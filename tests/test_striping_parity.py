"""Parity tests: optimized StripeMap extent mapping vs. the naive oracle.

The optimized :meth:`StripeMap.iter_extents` computes extents with
closed-form arithmetic (one loop iteration per extent); the kept
:meth:`StripeMap.reference_extents` walks the range one stripe unit at a
time, coalescing adjacent pieces like the seed implementation.  These
tests assert both emit *identical* sequences over seeded randomized
geometries and the edge cases that matter (zero-length ranges, ranges
that start/end exactly on unit boundaries, single-spindle coalescing).
:class:`TestSingleUnitParity` holds :meth:`StripeMap.extents`'s
closed-form one-unit path to the same oracle, on healthy and failed-over
(remapped) maps.
"""

import random

import pytest

from repro.pfs import StripeMap

KB = 1024


def assert_parity(smap: StripeMap, offset: int, nbytes: int) -> None:
    fast = list(smap.iter_extents(offset, nbytes))
    naive = smap.reference_extents(offset, nbytes)
    assert fast == naive, (
        f"extent mismatch for {smap!r} offset={offset} nbytes={nbytes}")


class TestSeededRandomParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_cases_match_reference(self, seed):
        rng = random.Random(0xC0FFEE + seed)
        for _ in range(200):
            unit = rng.choice([1, 7, KB, 4 * KB, 32 * KB, 64 * KB])
            smap = StripeMap(stripe_unit=unit,
                             n_io=rng.randint(1, 16),
                             disks_per_node=rng.randint(1, 4))
            offset = rng.randrange(0, 64 * unit)
            nbytes = rng.randrange(0, 32 * unit)
            assert_parity(smap, offset, nbytes)

    def test_randomized_strided_shapes_match_reference(self):
        """BTIO/FFT-style strided patterns: many small runs, fixed stride."""
        rng = random.Random(2024)
        for _ in range(50):
            smap = StripeMap(stripe_unit=rng.choice([32 * KB, 64 * KB]),
                             n_io=rng.randint(1, 8),
                             disks_per_node=rng.randint(1, 4))
            run = rng.randrange(1, 4 * KB)
            stride = run + rng.randrange(0, 256 * KB)
            base = rng.randrange(0, 128 * KB)
            for i in range(20):
                assert_parity(smap, base + i * stride, run)


class TestEdgeParity:
    @pytest.mark.parametrize("n_io,disks", [(1, 1), (1, 4), (4, 1), (4, 4)])
    def test_zero_length_is_empty(self, n_io, disks):
        smap = StripeMap(64 * KB, n_io, disks)
        for offset in (0, 1, 64 * KB - 1, 64 * KB, 10 * 64 * KB + 17):
            assert_parity(smap, offset, 0)
            assert smap.extents(offset, 0) == []

    @pytest.mark.parametrize("n_io,disks", [(1, 1), (1, 3), (3, 1), (4, 2)])
    def test_unit_boundary_edges(self, n_io, disks):
        unit = 4 * KB
        smap = StripeMap(unit, n_io, disks)
        cases = [
            (0, unit),              # exactly one unit
            (0, unit - 1),          # one byte short of the boundary
            (0, unit + 1),          # one byte past the boundary
            (unit - 1, 1),          # last byte of a unit
            (unit - 1, 2),          # straddles the boundary
            (unit, unit),           # starts on the second unit
            (3 * unit, 5 * unit),   # aligned multi-unit span
            (3 * unit - 7, 5 * unit + 14),  # unaligned multi-unit span
        ]
        for offset, nbytes in cases:
            assert_parity(smap, offset, nbytes)

    def test_single_spindle_coalesces_to_one_extent(self):
        smap = StripeMap(KB, 1, 1)
        exts = list(smap.iter_extents(5, 100 * KB))
        assert len(exts) == 1
        assert exts[0].disk_offset == 5
        assert exts[0].length == 100 * KB
        assert_parity(smap, 5, 100 * KB)

    def test_multi_spindle_one_extent_per_unit(self):
        smap = StripeMap(KB, 4, 2)
        exts = list(smap.iter_extents(0, 16 * KB))
        assert len(exts) == smap.units_touched(0, 16 * KB)
        assert_parity(smap, 0, 16 * KB)

    def test_negative_arguments_rejected(self):
        smap = StripeMap(KB, 2)
        with pytest.raises(ValueError):
            list(smap.iter_extents(-1, 10))
        with pytest.raises(ValueError):
            list(smap.iter_extents(0, -10))
        with pytest.raises(ValueError):
            smap.reference_extents(-1, 10)


def _random_remap(rng, n_io):
    """A failover remap: some logical slots sent to surviving nodes."""
    failed = set(rng.sample(range(n_io), rng.randint(1, n_io - 1)))
    survivors = [i for i in range(n_io) if i not in failed]
    return [rng.choice(survivors) if i in failed else i
            for i in range(n_io)]


class TestSingleUnitParity:
    """:meth:`StripeMap.extents` answers a request inside one stripe unit
    in closed form, skipping the memo and ``iter_extents``."""

    @staticmethod
    def assert_single(smap, offset, nbytes):
        got = smap.extents(offset, nbytes)
        assert got == smap.reference_extents(offset, nbytes), (
            f"single-unit mismatch for {smap!r} offset={offset} "
            f"nbytes={nbytes}")
        assert len(got) == 1
        assert not smap._memo       # the closed form bypasses the memo

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("remapped", [False, True])
    def test_randomized_single_unit_requests(self, seed, remapped):
        rng = random.Random(0x51E + seed)
        for _ in range(200):
            unit = rng.choice([1, 7, KB, 4 * KB, 32 * KB, 64 * KB])
            n_io = rng.randint(2 if remapped else 1, 16)
            smap = StripeMap(unit, n_io, rng.randint(1, 4))
            if remapped:
                smap.set_remap(_random_remap(rng, n_io))
            offset = rng.randrange(0, 64 * unit)
            nbytes = rng.randint(1, unit - offset % unit)
            self.assert_single(smap, offset, nbytes)

    @pytest.mark.parametrize("n_io,disks", [(1, 1), (1, 3), (3, 1), (4, 2)])
    def test_unit_edges(self, n_io, disks):
        unit = 4 * KB
        smap = StripeMap(unit, n_io, disks)
        for offset, nbytes in [(0, unit), (0, 1), (unit - 1, 1),
                               (5 * unit, unit), (7 * unit + 9, unit - 9)]:
            self.assert_single(smap, offset, nbytes)
        # One byte past the unit takes the memoized multi-extent path
        # (except on one spindle, where it coalesces to one extent).
        assert smap.extents(unit - 1, 2) == smap.reference_extents(unit - 1,
                                                                   2)
        assert smap._memo

    def test_single_spindle_failover(self):
        smap = StripeMap(4 * KB, 1, 1)
        smap.set_remap([3])
        self.assert_single(smap, 10 * KB + 5, 100)

    def test_remapped_strided_pieces(self):
        """AST-style 4 KB pieces over a degraded 4-node file."""
        smap = StripeMap(64 * KB, 4, 2)
        smap.set_remap([0, 0, 2, 2])
        for i in range(64):
            self.assert_single(smap, 3 * 64 * KB + i * 4 * KB, 4 * KB)

    def test_zero_and_negative_requests_keep_the_general_path(self):
        smap = StripeMap(4 * KB, 2)
        assert smap.extents(100, 0) == []
        with pytest.raises(ValueError):
            smap.extents(-1, 10)


class TestMemo:
    def test_extents_memo_returns_equal_fresh_lists(self):
        smap = StripeMap(64 * KB, 4, 2)
        a = smap.extents(100, 300 * KB)
        b = smap.extents(100, 300 * KB)
        assert a == b
        assert a is not b        # callers may mutate their copy
        a.clear()
        assert smap.extents(100, 300 * KB) == b

    def test_memo_bounded(self):
        from repro.pfs.striping import _MEMO_LIMIT
        smap = StripeMap(KB, 2)
        for i in range(_MEMO_LIMIT + 10):
            smap.extents(i, 2 * KB)    # multi-unit: the memoized path
        assert 0 < len(smap._memo) <= _MEMO_LIMIT
