"""Spans around calls into saftlab's public functions, recorded from outside.

`Tracer.install` replaces each traced function by a wrapper in every
``saftlab`` module namespace that holds it (``from .x import f`` copies the
reference, so patching the defining module alone would miss callers), and
`Tracer.uninstall` puts the originals back.  Nothing under ``src/`` changes.

Two modes:

* ``spans`` records one span per call: name, start, end, parent span and
  operation id, kept in flat in-memory arrays and written out by
  `Tracer.save`.  Per-call sizes (pairs, points, bytes, ...) are summed at
  the same boundaries.
* ``memory`` wraps only the functions with a ``peak_mib`` metric and runs
  tracemalloc inside them; its timings are discarded.

Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import statistics
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

# ---------------------------------------------------------------------------
# per-call sizes, computed after the call returns (outside its span)


def _count(x) -> int:
    return len(x.entries)


def _points(arr, n: int) -> int:
    return int(np.asarray(arr).size // n)


def _conv_dd(args, kwargs, out):
    pairs = _count(args[1]) * _count(args[2])
    return {"pairs": pairs, "out_entries": _count(out)}


def _conv_sd(args, kwargs, out):
    return {"translates": _count(args[1])}


def _conv_cc(args, kwargs, out):
    return {"fft_points": int(out.values.size)}


def _seqfn(args, kwargs, out):
    return {"entries": _count(args[0])}


def _grid_out_points(args, kwargs, out):
    return {"points": int(out.values.size)}


def _kernel_quadrature(args, kwargs, out):
    p = args[0]
    return {"phase_elems": _points(args[1], p.n) * _points(args[4], p.n)}


def _dtsaft(args, kwargs, out):
    p, s, w = args[0], args[1], args[2]
    n_points = w.values.size if hasattr(w, "values") else _points(w, p.n)
    return {"phase_elems": _count(s) * n_points}


def _downsample(args, kwargs, out):
    return {"entries_in": _count(args[1]), "entries_out": _count(out)}


def _spectrum_at(args, kwargs, out):
    from saftlab.sis import resolved_band_mask

    model = args[0]
    pts = np.asarray(args[1], dtype=float)
    inside = int(np.count_nonzero(resolved_band_mask(model, pts)))
    return {"points": _points(pts, model.params.n), "inside": inside}


def _build_d(args, kwargs, out):
    model, lat = args[0], args[2]
    cutoff = kwargs.get("cutoff", args[4] if len(args) > 4 else None)
    k = model.cutoff if cutoff is None else int(cutoff)
    shifts = (2 * k + 1) ** model.params.n
    return {"points": int(out.wpoints.shape[0]) * lat.m * shifts}


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(kwargs.get("path", args[0] if args else None))}


# name -> (module, attribute, quantities, per-call size function, peak tracked)
# Quantity names follow the benchmark's per-layer metric names
# ``<module>.<function>.<quantity>``.  `merge_ratio`, `band_ratio` and
# `computed_mib` are derived from the summed sizes in `_derived`.
_T = ("calls", "self_ms")
_D = ("calls", "self_ms", "total_ms")
_KERNEL = _T + ("phase_elems", "computed_mib", "peak_mib")
TARGETS = {
    "conv.conv_dd": ("conv", "conv_dd", _T + ("pairs", "out_entries", "merge_ratio"),
                     _conv_dd, False),
    "conv.conv_sd": ("conv", "conv_sd", _T + ("translates",), _conv_sd, False),
    "conv.conv_cc": ("conv", "conv_cc", _T + ("fft_points",), _conv_cc, False),
    "params.chirp": ("params", "chirp", _T, None, False),
    "grid.SeqFn": ("grid", "SeqFn.__init__", _T + ("entries",), _seqfn, False),
    "grid.dft": ("grid", "dft", _T + ("points",), _grid_out_points, False),
    "lattice.decompose": ("lattice", "decompose", _T, None, False),
    "lattice.split_sequence": ("lattice", "split_sequence", _T, None, False),
    "lattice.merge_sequence": ("lattice", "merge_sequence", _T, None, False),
    "saft.saft_forward": ("saft", "saft_forward", _T + ("points",), _grid_out_points, False),
    "saft.saft_inverse": ("saft", "saft_inverse", _T + ("points",), _grid_out_points, False),
    "saft.kernel_quadrature": ("saft", "kernel_quadrature", _KERNEL, _kernel_quadrature, True),
    "saft.dtsaft": ("saft", "dtsaft", _KERNEL, _dtsaft, True),
    "saft.downsample": ("saft", "downsample", _T + ("entries_in", "entries_out"),
                        _downsample, False),
    "sis.build_sis": ("sis", "build_sis", _T, None, False),
    "sis.spectrum_at": ("sis", "spectrum_at", _T + ("points", "band_ratio"), _spectrum_at, False),
    "dynsamp.filtered_levels": ("dynsamp", "filtered_levels", _D, None, False),
    "dynsamp.measure_from_samples": ("dynsamp", "measure_from_samples", _D, None, False),
    "dynsamp.generator_coset_samples": ("dynsamp", "generator_coset_samples", _D, None, False),
    "dynsamp.build_B_window": ("dynsamp", "build_B_window", _D, None, False),
    "dynsamp.build_B_from_samples": ("dynsamp", "build_B_from_samples", _D, None, False),
    "dynsamp.stability_report": ("dynsamp", "stability_report", _D, None, False),
    "dynsamp.recover_discrete": ("dynsamp", "recover_discrete", _D, None, False),
    "dynsamp.recover_continuous": ("dynsamp", "recover_continuous", _D, None, False),
    "dynsamp.build_D": ("dynsamp", "build_D", _T + ("points", "peak_mib"), _build_d, True),
    "repro.build_example": ("repro", "build_example", ("calls", "total_ms"), None, False),
    "repro.run_example": ("repro", "run_example", ("calls", "self_ms"), None, False),
    "repro.window_periodization_check": ("repro", "window_periodization_check",
                                         ("calls", "total_ms"), None, False),
    "io.read_grid": ("io", "read_grid", _T + ("bytes",), _file_bytes, False),
    "io.write_grid": ("io", "write_grid", _T + ("bytes",), _file_bytes, False),
    "io.read_sequence": ("io", "read_sequence", _T + ("bytes",), _file_bytes, False),
    "io.write_sequence": ("io", "write_sequence", _T + ("bytes",), _file_bytes, False),
    "io.read_params": ("io", "read_params", _T + ("bytes",), _file_bytes, False),
}

#: CLI subcommands the workloads run; span name ``cli.main.<subcommand>``.
CLI_SUBCOMMANDS = (
    "repro_section5", "transform", "inverse", "conv", "dtsaft",
    "dynsamp_check", "dynsamp_recover",
)

#: metrics of the trace itself
TRACE_METRICS = {
    "trace.overhead_s": ("s", "lower"),
    "trace.self_sum_ratio": ("ratio", "higher"),
}

_UNITS = {
    "self_ms": "ms", "total_ms": "ms", "merge_ratio": "ratio", "band_ratio": "ratio",
    "computed_mib": "MiB", "peak_mib": "MiB", "bytes": "B",
}
_HIGHER = {"merge_ratio", "band_ratio"}


def metric_specs() -> list[dict]:
    """Every per-layer metric the traced run reports, in order."""
    out = []
    for name, (_, _, quantities, _, _) in TARGETS.items():
        for q in quantities:
            out.append({"name": f"{name}.{q}", "unit": _UNITS.get(q, "count"),
                        "better": "higher" if q in _HIGHER else "lower"})
    for sub in CLI_SUBCOMMANDS:
        out.append({"name": f"cli.main.{sub}.total_ms", "unit": "ms", "better": "lower"})
    for name, (unit, better) in TRACE_METRICS.items():
        out.append({"name": name, "unit": unit, "better": better})
    return out


def _cli_span_name(argv) -> str:
    argv = list(argv or ())
    if argv and argv[0] in ("repro", "dynsamp") and len(argv) > 1:
        return f"cli.main.{argv[0]}_{argv[1]}"
    return f"cli.main.{argv[0]}" if argv else "cli.main"


class Tracer:
    """Installs wrappers, records spans or peaks, and aggregates them."""

    def __init__(self):
        self._codes: dict[str, int] = {}
        self._names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op_id = -1
        self._op_iteration: list[int] = []
        self._sizes: dict[int, dict] = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        self._peaks: dict[str, float] = defaultdict(float)
        self._mem_stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        self.paused = False

    # -- installation -------------------------------------------------------

    def install(self, mode: str) -> None:
        """Wrap every target (``spans``) or only the peak-tracked ones
        (``memory``) in all loaded saftlab modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, (mod, attr, _, sizes, peak) in TARGETS.items():
            if mode == "memory" and not peak:
                continue
            module = importlib.import_module(f"saftlab.{mod}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = getattr(cls, meth)
                self._set(cls, meth, self._wrap(orig, name, sizes, mode))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(orig, name, sizes, mode)
            for mname, m in list(sys.modules.items()):
                if mname == "saftlab" or mname.startswith("saftlab."):
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, key, wrapper)
        if mode == "spans":
            cli = importlib.import_module("saftlab.cli")
            self._set(cli, "main", self._wrap(cli.main, None, None, mode))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def _set(self, owner, key, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self._names)
            self._names.append(name)
        return code

    def _open(self, code: int) -> int:
        idx = len(self.name)
        self.name.append(code)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def _wrap(self, fn, name, sizes, mode):
        """``name`` None: a ``cli.main`` span named by its subcommand."""
        if mode == "memory":
            return self._wrap_memory(fn, name)
        tracer = self
        fixed = None if name is None else self._code(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if fixed is None:
                code = tracer._code(_cli_span_name(args[0] if args else kwargs.get("argv")))
            else:
                code = fixed
            idx = tracer._open(code)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx, t0, perf())
            if sizes is not None:
                bucket = tracer._sizes[tracer._op_iteration[tracer._op_id]][name]
                for key, value in sizes(args, kwargs, out).items():
                    bucket[key] += value
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_memory(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._mem_stack
            if not stack:
                tracemalloc.start()
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1][1] = max(stack[-1][1], peak)
            tracemalloc.reset_peak()
            frame = [current, current]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                stack.pop()
                used = (max(frame[1], peak) - frame[0]) / 2**20
                tracer._peaks[name] = max(tracer._peaks[name], used)
                if stack:
                    stack[-1][1] = max(stack[-1][1], peak)
                else:
                    tracemalloc.stop()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- operations ---------------------------------------------------------

    @contextlib.contextmanager
    def root(self, op_name: str, iteration: int):
        """One operation of one iteration: the root span of its calls."""
        self._op_id += 1
        self._op_iteration.append(iteration)
        idx = self._open(self._code(f"op.{op_name}"))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())

    def peak_functions_called(self) -> bool:
        codes = {self._codes[n] for n, t in TARGETS.items() if t[4] and n in self._codes}
        return any(c in codes for c in set(self.name))

    # -- output ---------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the spans as parallel arrays to a compressed ``.npz``:
        ``name`` indexes ``names``, ``parent`` is a span index (-1 for an
        operation's root span), ``op`` indexes ``op_iteration``, and
        ``start``/``end`` are `time.perf_counter` seconds."""
        np.savez_compressed(
            path,
            names=np.array(self._names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op, dtype=np.int64),
            op_iteration=np.array(self._op_iteration, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
        )

    def layer_metrics(self, traced_wall_s: list[float], plain_wall_s: list[float]) -> dict:
        """Per-iteration medians of every per-layer metric."""
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int64)
        dur = (np.array(self.end) - np.array(self.start)) * 1e3
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ms = dur - child
        it_of_op = np.array(self._op_iteration, dtype=np.int64)
        iteration = it_of_op[np.array(self.op, dtype=np.int64)]
        iterations = sorted(set(self._op_iteration))

        def per_iter(mask, values):
            return [float(values[mask & (iteration == i)].sum()) for i in iterations]

        metrics = {}
        for spec in metric_specs():
            metrics[spec["name"]] = {"value": 0.0, "unit": spec["unit"]}
        for lname, (_, _, quantities, _, _) in TARGETS.items():
            code = self._codes.get(lname)
            mask = name == code if code is not None else np.zeros(dur.size, bool)
            series = {
                "calls": per_iter(mask, np.ones(dur.size)),
                "self_ms": per_iter(mask, self_ms),
                "total_ms": per_iter(mask, dur),
            }
            for q in quantities:
                if q in series:
                    values = series[q]
                elif q == "peak_mib":
                    values = [self._peaks.get(lname, 0.0)]
                else:
                    values = [_derived(q, self._sizes[i][lname]) for i in iterations]
                metrics[f"{lname}.{q}"]["value"] = statistics.median(values) if values else 0.0
        for sub in CLI_SUBCOMMANDS:
            code = self._codes.get(f"cli.main.{sub}")
            if code is not None:
                metrics[f"cli.main.{sub}.total_ms"]["value"] = statistics.median(
                    per_iter(name == code, dur))
        metrics["trace.overhead_s"]["value"] = (
            statistics.median(traced_wall_s) - statistics.median(plain_wall_s))
        # The root spans (one per operation) hold whatever no traced
        # function covers, so they are left out: the ratio is the share of
        # the traced wall time that the traced layers account for.
        metrics["trace.self_sum_ratio"]["value"] = (
            float(self_ms[has_parent].sum()) / 1e3 / sum(traced_wall_s))
        return metrics


def _derived(q: str, sizes: dict) -> float:
    if q == "merge_ratio":
        return sizes["out_entries"] / sizes["pairs"] if sizes.get("pairs") else 0.0
    if q == "band_ratio":
        return sizes["inside"] / sizes["points"] if sizes.get("points") else 0.0
    if q == "computed_mib":
        return sizes.get("phase_elems", 0.0) * 16 / 2**20
    return float(sizes.get(q, 0.0))
