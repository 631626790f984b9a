"""`dynsamp check` is `dynsamp recover`'s pre-flight, on random inputs.

Both commands judge a channel field by its one scan, `MatrixField.stability`.
On a window of one extent N per axis, `recover` builds the field that
`check --cell-points N` builds, because `build_B_window` reads the window
only through its shape.  So the two must exit alike, and where they pass,
the solve must give the truth back to rounding scaled by the field's
condition number.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from saftlab.cli import main
from saftlab.dynsamp import filtered_levels, measure_from_samples, sampled_generator
from saftlab.grid import SeqFn, sample_generator, sampling_grid
from saftlab.io import read_sequence, write_grid, write_params, write_sequence
from saftlab.lattice import build_lattice
from saftlab.params import preset, random_params


def _distinct_keys(rng, n: int, count: int, radius: int) -> np.ndarray:
    box = np.stack(np.meshgrid(*[np.arange(-radius, radius + 1)] * n, indexing="ij"), -1)
    box = box.reshape(-1, n)
    return box[rng.choice(len(box), size=count, replace=False)]


def _complex_normal(rng, count: int) -> np.ndarray:
    return rng.normal(size=(count, 2)).view(complex)[:, 0]


def _run(capsys, argv) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


def _inputs(d: Path, M) -> list[str]:
    """The block, generator, filter and lattice flags of both commands."""
    return ["--params", str(d / "p.json"), "--phi", str(d / "phi.grid"),
            "--filter", str(d / "filt.csv"), "--M", json.dumps(np.asarray(M).tolist())]


def _check_and_recover(capsys, d: Path, p, M, filt: SeqFn, sigma: float, truth: SeqFn):
    """Writes the inputs to ``d``, runs `dynsamp check` and `dynsamp recover`
    on them and returns both exit codes, the recovery and its max cond."""
    n = p.n
    lat = build_lattice(M)
    phi = sample_generator("gaussian", sampling_grid(2, 16, n=n), sigma=sigma)
    # the CLI's comb levels: the filter acts on the generator's integer samples
    levels = filtered_levels(p, filt, sampled_generator(phi), lat.m, "cc")
    channels = measure_from_samples(p, lat, truth, levels).levels
    write_params(d / "p.json", p)
    write_grid(d / "phi.grid", phi)
    write_sequence(d / "filt.csv", filt)
    rows = [",".join(f"k{i + 1}" for i in range(n)) + ",channel,re,im"]
    for j, s in enumerate(channels):
        # a channel with no sample on the lattice is named by one zero row
        for k, v in zip(s.keys.tolist() or [[0] * n], s.values.tolist() or [0j]):
            rows.append(",".join(map(str, k)) + f",{j},{v.real!r},{v.imag!r}")
    (d / "meas.csv").write_text("\n".join(rows) + "\n")

    # the default window is the channels' key range, which need not hold the
    # coset index of every unknown (a silent wrong answer, see README's
    # Measurement CSV paragraph): pass the hull of both, widened to one
    # extent N on every axis
    hull = np.concatenate([*(s.keys for s in channels), lat.split(truth.keys)[0]])
    lo, hi = hull.min(axis=0), hull.max(axis=0)
    N = int((hi - lo).max()) + 1
    window = ",".join(f"{a}:{a + N - 1}" for a in lo.tolist())

    check, _ = _run(capsys, ["dynsamp", "check", *_inputs(d, M), "--cell-points", str(N),
                             "--out", str(d / "field.csv")])
    recover, out = _run(capsys, ["dynsamp", "recover", *_inputs(d, M),
                                 "--measurements", str(d / "meas.csv"),
                                 f"--window={window}", "--out", str(d / "rec.csv")])
    if recover != 0:
        return check, recover, None, None
    return check, recover, read_sequence(d / "rec.csv", n), json.loads(out)["max_cond"]


def _relative_error(rec: SeqFn, truth: SeqFn) -> float:
    keys = {tuple(k) for k in np.concatenate([rec.keys, truth.keys]).tolist()}
    err = max(abs(rec.entries.get(k, 0) - truth.entries.get(k, 0)) for k in keys)
    return err / np.abs(truth.values).max()


# capsys is read out after every command, so one instance serves every example
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2**32 - 1))
def test_check_exits_as_recover_does_and_a_pass_gives_the_truth_back(capsys, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3))
    while True:
        M = rng.integers(-3, 4, size=(n, n))
        if 2 <= abs(round(np.linalg.det(M))) <= 6:
            break
    p = preset("ft", n) if rng.random() < 0.5 else random_params(n, rng)
    taps = int(rng.integers(1, 5))
    filt = SeqFn.from_arrays(n, _distinct_keys(rng, n, taps, 2), _complex_normal(rng, taps))
    sigma = float(rng.uniform(0.4, 0.8))
    count = int(rng.integers(1, 6))
    truth = SeqFn.from_arrays(n, _distinct_keys(rng, n, count, 3), _complex_normal(rng, count))

    with tempfile.TemporaryDirectory() as d:
        check, recover, rec, max_cond = _check_and_recover(capsys, Path(d), p, M, filt,
                                                           sigma, truth)
    assert check in (0, 2) and recover == check, (check, recover)
    if check == 0:
        assert _relative_error(rec, truth) <= 1e-12 * max(1.0, max_cond)


def test_the_check_takes_no_threshold_of_its_own(capsys, tmp_path):
    # the check's own --tol once failed this field at 0.99, which recover
    # inverts, and took 5, though |det| never exceeds its Hadamard bound
    truth = SeqFn(1, {(-2,): 1.0, (0,): 2 - 1j, (3,): 0.5})
    check, recover, rec, max_cond = _check_and_recover(
        capsys, tmp_path, preset("ft", 1), [[2]], SeqFn(1, {(0,): 0.3, (1,): 1.0}), 0.5, truth)
    assert check == recover == 0
    assert _relative_error(rec, truth) <= 1e-12 * max_cond
    for tol in ("0.99", "5"):
        assert main(["dynsamp", "check", *_inputs(tmp_path, [[2]]), "--tol", tol]) == 64
