"""Tests for the BTIO workload: decomposition, runs, collective benefit."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.btio import (
    BTIOConfig,
    BT_CLASSES,
    multipartition_cells,
    run_btio,
    split_axis,
)
from repro.apps.btio import _rank_runs
from repro.machine import sp2

QUICK = BTIOConfig(class_name="W", measured_dumps=1)


class TestDecomposition:
    @given(q=st.integers(1, 8))
    @settings(max_examples=8, deadline=None)
    def test_multipartition_each_rank_gets_q_cells(self, q):
        owners = multipartition_cells(q)
        assert len(owners) == q * q
        for cells in owners.values():
            assert len(cells) == q
            # One cell per z-layer.
            assert sorted(cz for _, _, cz in cells) == list(range(q))

    @given(q=st.integers(1, 8))
    @settings(max_examples=8, deadline=None)
    def test_multipartition_covers_all_cells_once(self, q):
        owners = multipartition_cells(q)
        all_cells = [c for cells in owners.values() for c in cells]
        assert len(all_cells) == q ** 3
        assert len(set(all_cells)) == q ** 3

    def test_split_axis_even_and_complete(self):
        parts = split_axis(64, 6)
        assert parts[0][0] == 0 and parts[-1][1] == 64
        sizes = [b - a for a, b in parts]
        assert sum(sizes) == 64
        assert max(sizes) - min(sizes) <= 1

    def test_split_axis_invalid(self):
        with pytest.raises(ValueError):
            split_axis(10, 0)

    @given(q=st.integers(1, 4))
    @settings(max_examples=4, deadline=None)
    def test_rank_runs_tile_the_dump_exactly(self, q):
        """The union of all ranks' runs covers every byte of one dump."""
        cfg = BTIOConfig(class_name="W")   # 24^3 grid
        covered = []
        for rank in range(q * q):
            runs = _rank_runs(cfg, q, rank)
            assert runs.payloads is None
            covered.extend(zip(runs.offsets, runs.lengths))
        covered.sort()
        pos = 0
        for off, nb in covered:
            assert off == pos, f"gap/overlap at {pos}"
            pos = off + nb
        assert pos == cfg.dump_bytes


class TestConfig:
    def test_classes(self):
        assert BTIOConfig(class_name="A").grid == 64
        assert BTIOConfig(class_name="B").grid == 102
        with pytest.raises(ValueError):
            BTIOConfig(class_name="Z")

    def test_dump_accounting(self):
        cfg = BTIOConfig(class_name="A", dump_interval=5)
        assert cfg.n_dumps == 40
        assert cfg.dump_bytes == 64 ** 3 * 40
        # Paper: ~408.9 MB total for Class A.
        assert cfg.total_io_bytes / 2**20 == pytest.approx(400, rel=0.05)

    def test_extrapolation(self):
        cfg = BTIOConfig(class_name="A", measured_dumps=4)
        assert cfg.dumps_to_run() == 4
        assert cfg.extrapolation_factor == 10.0

    def test_square_processor_count_required(self):
        with pytest.raises(ValueError):
            run_btio(sp2(8), QUICK, 8)


class TestRuns:
    def test_collective_beats_unoptimized(self):
        res_u = run_btio(sp2(9), QUICK.with_(version="unoptimized"), 9)
        res_c = run_btio(sp2(9), QUICK.with_(version="collective"), 9)
        assert res_c.io_time < 0.5 * res_u.io_time
        assert res_c.exec_time < res_u.exec_time

    def test_unoptimized_issues_many_calls(self):
        from repro.trace import IOOp
        res = run_btio(sp2(4), QUICK.with_(version="unoptimized"), 4)
        writes = res.trace.aggregate(IOOp.WRITE).count
        # 2 cells... q=2: per rank q*ceil(24/2)^2 = 288 runs; 4 ranks.
        assert writes > 500

    def test_collective_issues_one_write_per_rank_per_dump(self):
        from repro.trace import IOOp
        res = run_btio(sp2(4), QUICK.with_(version="collective"), 4)
        writes = res.trace.aggregate(IOOp.WRITE).count
        assert writes <= 4 * QUICK.dumps_to_run()

    def test_bandwidth_improves_with_collective(self):
        cfg = QUICK
        res_u = run_btio(sp2(9), cfg.with_(version="unoptimized"), 9)
        res_c = run_btio(sp2(9), cfg.with_(version="collective"), 9)
        bw_u = res_u.bandwidth_mb_s(cfg.total_io_bytes)
        bw_c = res_c.bandwidth_mb_s(cfg.total_io_bytes)
        assert bw_c > 3 * bw_u

    def test_exec_time_scales_with_extrapolation(self):
        short = run_btio(sp2(4), QUICK.with_(measured_dumps=1), 4)
        full_cfg = QUICK.with_(measured_dumps=2)
        longer = run_btio(sp2(4), full_cfg, 4)
        # Both extrapolate to the same total dump count: results comparable.
        assert short.exec_time == pytest.approx(longer.exec_time, rel=0.15)


class TestEpio:
    def test_epio_uses_private_files(self):
        res = run_btio(sp2(4), QUICK.with_(version="epio"), 4)
        # One large write per rank per dump, no seeks, no shared file.
        from repro.trace import IOOp
        writes = res.trace.aggregate(IOOp.WRITE)
        assert writes.count == 4 * QUICK.dumps_to_run()
        assert res.trace.aggregate(IOOp.SEEK).count == 0

    def test_epio_beats_unoptimized(self):
        res_u = run_btio(sp2(9), QUICK.with_(version="unoptimized"), 9)
        res_e = run_btio(sp2(9), QUICK.with_(version="epio"), 9)
        assert res_e.io_time < 0.5 * res_u.io_time

    def test_epio_writes_same_volume(self):
        from repro.trace import IOOp
        res_e = run_btio(sp2(4), QUICK.with_(version="epio"), 4)
        res_c = run_btio(sp2(4), QUICK.with_(version="collective"), 4)
        vol_e = res_e.trace.aggregate(IOOp.WRITE).nbytes
        vol_c = res_c.trace.aggregate(IOOp.WRITE).nbytes
        assert vol_e == pytest.approx(vol_c, rel=0.05)

    def test_collective_lands_near_epio_at_class_a(self):
        """Class A on 36 processors: epio bounds collective I/O, which in
        turn is far below the unoptimized version."""
        io = {version: run_btio(sp2(36), BTIOConfig(
                  class_name="A", version=version, measured_dumps=2),
                  36).io_time
              for version in ("unoptimized", "collective", "epio")}
        assert io["epio"] <= 1.2 * io["collective"]
        assert io["collective"] < 0.2 * io["unoptimized"]
