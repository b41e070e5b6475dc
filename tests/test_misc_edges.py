"""Grab-bag of edge-case tests across modules."""

import numpy as np
import pytest

from repro.iolib import PassionIO, PrefetchReader
from repro.pfs import PFS
from tests.conftest import run_proc

KB = 1024


class TestPrefetchEdges:
    def test_zero_length_stream(self, small_machine):
        fs = PFS(small_machine)
        interface = PassionIO(fs)
        def p():
            f = yield from interface.open(0, "z", create=True)
            pf = PrefetchReader(f, KB, total_bytes=0)
            yield from pf.prime()
            data, n = yield from pf.next_chunk()
            return data, n, pf.exhausted
        data, n, exhausted = run_proc(small_machine, p())
        assert (data, n) == (None, 0)
        assert exhausted

    def test_default_total_bytes_is_file_remainder(self, small_machine):
        fs = PFS(small_machine)
        interface = PassionIO(fs)
        def p():
            f = yield from interface.open(0, "d", create=True)
            yield from f.pwrite(0, 10 * KB)
            pf = PrefetchReader(f, 4 * KB, start_offset=2 * KB)
            return pf.total_bytes
        assert run_proc(small_machine, p()) == 8 * KB

    def test_depth_larger_than_stream(self, small_machine):
        fs = PFS(small_machine)
        interface = PassionIO(fs)
        def p():
            f = yield from interface.open(0, "s", create=True)
            yield from f.pwrite(0, 2 * KB)
            pf = PrefetchReader(f, KB, depth=16, total_bytes=2 * KB)
            yield from pf.prime()
            count = 0
            while True:
                _, n = yield from pf.next_chunk()
                if n == 0:
                    break
                count += 1
            return count
        assert run_proc(small_machine, p()) == 2


class TestOOCArrayEdges:
    def test_base_offset_shifts_file_placement(self, small_machine,
                                               functional_fs):
        from repro.iolib import Layout, OutOfCoreArray
        interface = PassionIO(functional_fs)
        def p():
            f = yield from interface.open(0, "two", create=True)
            a = OutOfCoreArray(f, 4, 4, layout=Layout.COLUMN_MAJOR)
            b = OutOfCoreArray(f, 4, 4, layout=Layout.COLUMN_MAJOR,
                               base_offset=a.nbytes)
            ta = np.full((4, 4), 1.0)
            tb = np.full((4, 4), 2.0)
            yield from a.write_tile(0, 4, 0, 4, ta)
            yield from b.write_tile(0, 4, 0, 4, tb)
            back_a = yield from a.read_tile(0, 4, 0, 4)
            back_b = yield from b.read_tile(0, 4, 0, 4)
            return back_a, back_b
        back_a, back_b = run_proc(small_machine, p())
        assert np.all(back_a == 1.0)
        assert np.all(back_b == 2.0)

    def test_one_by_one_array(self, small_machine, functional_fs):
        from repro.iolib import OutOfCoreArray
        interface = PassionIO(functional_fs)
        def p():
            f = yield from interface.open(0, "tiny", create=True)
            arr = OutOfCoreArray(f, 1, 1)
            yield from arr.write_tile(0, 1, 0, 1, np.array([[42.0]]))
            back = yield from arr.read_tile(0, 1, 0, 1)
            return back
        assert run_proc(small_machine, p())[0, 0] == 42.0
