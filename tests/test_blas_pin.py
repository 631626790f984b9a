"""The grid kernel's pin of OpenBLAS to the calling thread (`saft._BlasPin`).

A product handed to OpenBLAS's thread pool leaves the pool's idle workers
spinning for about 0.1 s of CPU after the call.  `grid_phase_sum` holds the
pin around its chunk loop, so its products run on the caller and no worker
wakes.  The contract is checked against a fake thread-count pair: one
thread inside, the count restored on every way out, and never left pinned
by nested use or overlapping threads.  The real pair and the spin itself
are checked only where OpenBLAS is mapped.
"""

import os
import sys
import threading
import time
from unittest.mock import patch

import numpy as np
import pytest

from saftlab import saft
from saftlab.saft import grid_phase_sum


class FakeBlas:
    """A stand-in for OpenBLAS's get/set thread-count pair."""

    def __init__(self, threads: int):
        self.threads = threads
        self.gets = 0
        self.sets = []

    def get(self) -> int:
        self.gets += 1
        return self.threads

    def set(self, threads: int) -> None:
        self.threads = threads
        self.sets.append(threads)

    def pin(self) -> saft._BlasPin:
        return saft._BlasPin(lambda: (self.get, self.set))


def _grid_case(side: int, n_out: int, seed: int = 5):
    rng = np.random.default_rng(seed)
    axes = [np.linspace(-3.0, 3.0, side), np.linspace(-2.0, 2.0, side)]
    vals = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    return rng.uniform(-4.0, 4.0, (n_out, 2)), axes, vals


def test_the_pin_runs_one_thread_inside_and_restores_the_count_on_return():
    blas = FakeBlas(4)
    pin = blas.pin()
    with pin:
        assert blas.threads == 1
    assert blas.threads == 4
    with pin:
        assert blas.threads == 1
    assert blas.threads == 4 and blas.sets == [1, 4, 1, 4]


def test_the_pin_restores_the_count_after_an_exception():
    blas = FakeBlas(3)
    pin = blas.pin()
    with pytest.raises(ZeroDivisionError):
        with pin:
            assert blas.threads == 1
            1 / 0
    assert blas.threads == 3
    with pin:
        assert blas.threads == 1
    assert blas.threads == 3


def test_nested_pins_save_and_restore_once():
    blas = FakeBlas(2)
    pin = blas.pin()
    with pin:
        with pin:
            assert blas.threads == 1
        assert blas.threads == 1
    assert blas.threads == 2
    assert blas.gets == 1 and blas.sets == [1, 2]


def test_the_last_of_two_overlapping_threads_restores_the_count():
    blas = FakeBlas(2)
    pin = blas.pin()
    first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def first():
        with pin:
            first_in.set()
            assert second_in.wait(10)
        first_out.set()

    def second():
        assert first_in.wait(10)
        with pin:
            second_in.set()
            assert first_out.wait(10)
            seen["after first left"] = blas.threads
        seen["after both left"] = blas.threads

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    assert seen == {"after first left": 1, "after both left": 2}
    assert blas.sets == [1, 2]


def test_many_threads_never_leave_the_process_pinned_or_unpin_it_early():
    blas = FakeBlas(2)
    pin = blas.pin()
    unpinned_inside = []
    interval = sys.getswitchinterval()

    def work():
        for _ in range(300):
            with pin:
                if blas.threads != 1:
                    unpinned_inside.append(blas.threads)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not unpinned_inside
    assert blas.threads == 2 and pin._depth == 0


def test_the_pair_is_resolved_once_on_first_use():
    blas = FakeBlas(2)
    calls = []
    pin = saft._BlasPin(lambda: calls.append(1) or (blas.get, blas.set))
    assert not calls
    for _ in range(3):
        with pin:
            pass
    assert calls == [1]


def test_grid_phase_sum_holds_the_pin():
    blas = FakeBlas(2)
    nu, axes, vals = _grid_case(9, 50)
    with patch.object(saft, "_blas_on_caller", blas.pin()):
        grid_phase_sum(nu, axes, vals)
    assert blas.sets == [1, 2]


def test_without_openblas_the_pin_does_nothing():
    calls = []
    pin = saft._BlasPin(lambda: calls.append(1))
    with pin:
        with pin:
            pass
    assert calls == [1] and pin._depth == 0
    # products this small stay on the calling thread either way
    nu, axes, vals = _grid_case(9, 50)
    pinned = grid_phase_sum(nu, axes, vals)
    with patch.object(saft, "_blas_on_caller", pin):
        assert np.array_equal(grid_phase_sum(nu, axes, vals), pinned)


def test_a_mapped_openblas_exports_a_known_thread_count_pair():
    paths = saft._openblas_paths()          # numpy maps its BLAS at import
    if not paths:
        pytest.skip("no OpenBLAS mapped into this process")
    pair = saft._openblas_threads()
    assert pair is not None, f"no known get/set_num_threads symbols in {paths}"
    assert pair[0]() >= 1


def _other_threads_cpu_s() -> float:
    """User+system CPU seconds of this process's threads but the caller."""
    tick = os.sysconf("SC_CLK_TCK")
    me = threading.get_native_id()
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == me:
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:                  # the thread ended meanwhile
            continue
        total += int(fields[11]) + int(fields[12])
    return total / tick


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_the_grid_kernel_leaves_no_blas_worker_spinning():
    if saft._openblas_threads() is None:
        pytest.skip("no OpenBLAS thread-count pair")
    # the shape of `dtsaft`'s box in the spectral benchmark: 4,096 outputs
    # over a 61^2 box, a product well past OpenBLAS's threading cut
    nu, axes, vals = _grid_case(61, 4096)
    time.sleep(0.3)                     # let a pool woken by an earlier test settle
    grid_phase_sum(nu, axes, vals)
    before = _other_threads_cpu_s()
    time.sleep(0.3)
    # unpinned, the woken worker spins for 0.10-0.14 s here
    assert _other_threads_cpu_s() - before < 0.03
