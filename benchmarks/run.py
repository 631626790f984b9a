"""saftlab benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload {section5,spectral,cli_files} \\
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from a checkout of the repository (``src/saftlab`` is imported from
there, never from an installed copy).  Load model: a closed loop with one
caller; each workload runs in its own fresh worker process (``worker.py``)
whose operations run back to back.  The benchmark starts no threads of its
own; numpy's BLAS pool is left as configured.

``--trace 0`` reports the end-to-end metrics.  Times are normalized to a
reference host speed by the calibration probe of ``pace.py``; the raw
seconds are printed and recorded beside them.

* ``wall_s``: median wall seconds of one iteration (operations only; the
  output checks are not timed);
* ``cpu_s``: median user+sys CPU seconds of one iteration, all threads;
* ``peak_rss_mib``: peak resident memory of the worker process through its
  set-up and first iteration (later iterations add allocator slack that
  depends on how many fit into ``--seconds``);
* ``setup_s``: median over `SETUP_RUNS` fresh processes of the import of
  saftlab plus input generation or scenario build; the extra set-up
  processes run half before and half after the timed worker.

``--trace 1`` runs untraced and traced passes and reports the per-layer
metrics of ``tracing.py``, including the tracing overhead.

Every operation's output is checked.  Failed operations (nonzero exit code,
exception, output outside tolerance) count in ``failed`` and the printed
``fail_ratio``; ``correct`` is false when an operation returned an output
outside tolerance while reporting success, or the worker died.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.  A full
record (machine, every iteration, every operation) is written under
``--out-dir``, and with ``--trace 1`` the spans as ``.npz`` beside it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("section5", "spectral", "cli_files")

#: the whole run, all worker processes included, ends within this many seconds
RUN_BUDGET_S = 170.0
#: fresh processes whose set-up time is measured with ``--trace 0``
SETUP_RUNS = 5


def _machine() -> dict:
    info = {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                info["ram_mib"] = int(line.split()[1]) // 1024
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        info["cpu"] = None
    return info


def _spawn(args, mode: str, workdir: Path, deadline: float, spans_out: Path | None):
    """Run one worker; returns (events, exit code, timed out)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--mode", mode,
           "--workdir", str(workdir)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    events, buf, timed_out = [], b"", False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            if not sel.select(timeout=remaining):
                continue
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            buf += chunk
            *lines, buf = buf.split(b"\n")
            events.extend(json.loads(line) for line in lines if line.strip())
    proc.wait()
    proc.stdout.close()
    return events, proc.returncode, timed_out


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time of the timed pass(es); at least one iteration runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for smoke tests")
    ap.add_argument("--out-dir", default=str(ROOT / ".bench_out"),
                    help="directory for the full JSON record and the spans")
    args = ap.parse_args(argv)

    start = time.monotonic()
    src = ROOT / "src"
    if not (src / "saftlab" / "__init__.py").is_file():
        print(f"error: no saftlab sources under {src}", file=sys.stderr)
        return 2
    # bytecode is built once, as an installed package would have it
    compileall.compile_dir(str(src), quiet=1)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_out = out_dir / f"{stem}-spans.npz" if args.trace else None
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    deadline = start + RUN_BUDGET_S
    extra_setups = 0 if args.trace else SETUP_RUNS - 1
    setup_runs = []

    def setup_only(count: int) -> bool:
        for _ in range(count):
            events, code, _ = _spawn(args, "setup", workdir, deadline, None)
            setup = [e for e in events if e["event"] == "setup"]
            if code != 0 or not setup:
                print(f"error: set-up process exited with {code}", file=sys.stderr)
                return False
            setup_runs.append(setup[0])
        return True

    try:
        if not setup_only(extra_setups // 2):
            return 1
        events, code, timed_out = _spawn(args, "run", workdir, deadline, spans_out)
        if not setup_only(extra_setups - extra_setups // 2):
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup = [e for e in events if e["event"] == "setup"]
    iterations = [e for e in events if e["event"] == "iteration"]
    layers = [e for e in events if e["event"] == "layers"]
    finished = code == 0 and not timed_out and any(e["event"] == "done" for e in events)
    if not setup or not iterations:
        print(f"error: worker exited with {code} before finishing an iteration", file=sys.stderr)
        return 1
    setup_runs.append(setup[0])

    ops = [op for it in iterations for op in it["ops"]]
    attempted = len(ops) + (0 if finished else 1)
    failed = sum(not op["ok"] for op in ops) + (0 if finished else 1)
    correct = finished and not any(op["wrong"] for op in ops)
    plain = [it for it in iterations if it["pass"] == "plain"]

    if args.trace:
        if not layers:
            print("error: the traced run reported no layer metrics", file=sys.stderr)
            return 1
        metrics = layers[0]["metrics"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(it["wall_s"] for it in plain), "unit": "s"},
            "cpu_s": {"value": statistics.median(it["cpu_s"] for it in plain), "unit": "s"},
            "peak_rss_mib": {"value": plain[0]["peak_rss_mib"], "unit": "MiB"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in setup_runs),
                        "unit": "s"},
        }
    raw = {
        "raw_wall_s": statistics.median(it["raw_wall_s"] for it in plain),
        "raw_cpu_s": statistics.median(it["raw_cpu_s"] for it in plain),
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in setup_runs),
    }

    machine = {**_machine(), **setup[0]["machine"]}
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"{args.workload} seed={args.seed} size={args.size} trace={args.trace}: "
          f"{len(iterations)} iterations ({len(plain)} untraced), worker exit {code}"
          + (" (timed out)" if timed_out else ""))
    for op in ops:
        if not op["ok"]:
            print(f"  FAILED {op['name']}: {op['error'] or op['problem']}")
    infos = {}
    for op in ops:
        for key, value in op["info"].items():
            infos.setdefault(f"{op['name']}.{key}", []).append(value)
    for key, values in infos.items():
        shown = values[0] if all(v == values[0] for v in values) else values
        print(f"  info {key}: {shown}")
    print(f"  {'fail_ratio':<44} {_fmt(failed / attempted)} ratio ({failed}/{attempted})")
    for name, value in raw.items():
        print(f"  {name + ' (not normalized)':<44} {_fmt(value)} s")
    for name, m in metrics.items():
        print(f"  {name:<44} {_fmt(m['value'])} {m['unit']}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"args": vars(args), "machine": machine, "setup_runs": setup_runs,
              "worker_exit": code, "timed_out": timed_out,
              "address_space_cap_mib": setup[0]["address_space_cap_mib"],
              "iterations": iterations, "raw": raw, "result": result,
              "spans": str(spans_out) if spans_out else None}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
