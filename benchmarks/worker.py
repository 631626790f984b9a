"""One benchmark process: set up a workload, run its passes, report events.

Started by ``run.py`` as a fresh child process per workload run, so that
its peak RSS is the workload's own.  It caps its own address space below
the machine's RAM before importing anything large, so that a memory
blow-up surfaces as a ``MemoryError`` (a failed operation) instead of
exhausting the machine.

Events are JSON lines on the original standard output; anything the program
prints goes to standard error instead.  Passes:

* ``plain``: operations back to back, untraced, for ``--seconds``, each
  timed by `pace.Pacer` (raw and host-speed-normalized figures);
* with ``--trace 1``: ``plain`` for half the time, ``traced`` (spans) for the
  other half, then one ``memory`` iteration (tracemalloc inside the
  peak-tracked functions) when the traced pass called any of them.

A pass starts no iteration that, as long as the one before it, would end
after its time is up; it always runs at least one.  The set-up (import of
saftlab and input generation) is timed by the pacer too.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: share of physical RAM the worker's address space may use
ADDRESS_SPACE_SHARE = 0.75


def mem_total_bytes() -> int:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("MemTotal missing from /proc/meminfo")


def peak_rss_mib() -> float:
    """This process's peak resident memory so far (VmHWM)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _blas_info() -> dict:
    """Vendor, version and thread count of the BLAS numpy loaded."""
    import ctypes

    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"blas": blas.get("name"), "blas_version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    info["blas_threads"] = None
    return info


def _import_saftlab():
    sys.path.insert(0, str(ROOT / "src"))
    import saftlab

    here = Path(saftlab.__file__).resolve()
    if ROOT / "src" not in here.parents:
        raise ImportError(f"saftlab imported from {here}, not from this checkout")
    return saftlab


class Runner:
    def __init__(self, workload, emit, pacer=None):
        self.workload = workload
        self.emit = emit
        self.pacer = pacer
        self.iteration = 0

    def run_pass(self, name: str, seconds: float, tracer=None) -> list[float]:
        """Iterate for ``seconds`` (at least once); returns the raw wall
        seconds of each iteration."""
        from pace import plain_timed
        from workloads import ReportedFailure

        walls = []
        start = time.perf_counter()
        while True:
            it_start = time.perf_counter()
            ops = []
            for op in self.workload.ops(self.iteration):
                root = (tracer.root(op.name, self.iteration)
                        if tracer is not None and name == "traced" else contextlib.nullcontext())
                timer = (self.pacer.timed() if self.pacer is not None and name == "plain"
                         else plain_timed())
                error = out = None
                with root, timer as timing:
                    try:
                        out = op.run()
                    except ReportedFailure as exc:
                        error = str(exc)
                    except MemoryError:
                        error = "MemoryError"
                    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                        traceback.print_exc()
                        error = f"{type(exc).__name__}: {exc}"
                problem, info = None, {}
                if error is None:
                    if tracer is not None:
                        tracer.paused = True
                    try:
                        problem, info = op.check(out)
                    except Exception as exc:  # noqa: BLE001 - a broken output is a wrong one
                        traceback.print_exc()
                        problem = f"check raised {type(exc).__name__}: {exc}"
                    finally:
                        if tracer is not None:
                            tracer.paused = False
                ops.append({"name": op.name, **vars(timing),
                            "ok": error is None and problem is None,
                            "wrong": problem is not None, "error": error,
                            "problem": problem, "info": info})
            totals = {key: sum(op[key] for op in ops)
                      for key in ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s")}
            self.emit({"event": "iteration", "pass": name, "index": self.iteration,
                       **totals, "peak_rss_mib": peak_rss_mib(), "ops": ops})
            self.iteration += 1
            walls.append(totals["raw_wall_s"])
            now = time.perf_counter()
            if now - start + (now - it_start) > seconds:
                return walls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    cap = int(ADDRESS_SPACE_SHARE * mem_total_bytes())
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def emit(event: dict) -> None:
        proto.write(json.dumps(event) + "\n")

    # the pacer loads numpy, so its import stays out of the set-up time
    import numpy as np
    from pace import Pacer

    pacer = Pacer()
    with pacer.timed() as setup:
        _import_saftlab()
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.size)
        workload.setup(args.seed, Path(args.workdir))

    emit({"event": "setup", "setup_s": setup.wall_s, "raw_setup_s": setup.raw_wall_s,
          "address_space_cap_mib": cap / 2**20,
          "machine": {"numpy": np.__version__, **_blas_info()}})
    if args.mode == "setup":
        return 0

    runner = Runner(workload, emit, pacer)
    if not args.trace:
        runner.run_pass("plain", args.seconds)
    else:
        from tracing import Tracer

        plain = runner.run_pass("plain", args.seconds / 2)
        tracer = Tracer()
        tracer.install("spans")
        try:
            traced = runner.run_pass("traced", args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        if tracer.peak_functions_called():
            tracer.install("memory")
            try:
                runner.run_pass("memory", 0, tracer)
            finally:
                tracer.uninstall()
        emit({"event": "layers", "metrics": tracer.layer_metrics(traced, plain)})
        if args.spans_out:
            tracer.save(args.spans_out)
    emit({"event": "done"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
