"""Array kernels of the sparse-sequence path against their dict-loop oracles.

The oracles in ``dict_oracles.py`` are the entry-by-entry implementations
the kernels replaced.  When every product is real (real values on a
chirp-free block) the key sets and the values must agree bit for bit.
Otherwise each value must agree within ``4 eps`` times the sum of its term
magnitudes: numpy's vectorized complex multiply may fuse a multiply-add
where Python's scalar product does not, which also makes it
non-commutative in the last bit.  Terms that cancel exactly in one
implementation may then leave a residue of that size in the other, so in
the complex case a key present on one side only must carry a value within
the same bound (a missing key reads as zero).
"""

import tracemalloc
from unittest.mock import patch

import dict_oracles as oracle
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from saftlab import conv
from saftlab.conv import PAIR_BUDGET, conv_dd
from saftlab.dynsamp import generator_coset_samples, measure_from_samples
from saftlab.grid import SeqFn
from saftlab.lattice import build_lattice, decompose, merge_sequence, split_sequence
from saftlab.params import SaftParams, preset, random_params
from saftlab.saft import downsample

EPS = np.finfo(float).eps

#: non-diagonal lattices and negative determinants in every dimension
LATTICES = {
    1: [[[2]], [[3]], [[-2]]],
    2: [[[2, 0], [0, 2]], [[2, 1], [0, 3]], [[1, 2], [3, 1]]],
    3: [[[2, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 0], [0, 2, 1], [1, 0, 2]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 2]]],
}

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _scaled_ft(n: int) -> SaftParams:
    """Chirp-free block with |det B| = 2^n (A = D = 0, B = 2I, C = -I/2)."""
    eye = np.eye(n)
    return SaftParams(n, 0 * eye, 2 * eye, -0.5 * eye, 0 * eye, np.zeros(n), np.zeros(n))


_REAL = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]),
    st.floats(1e-3, 10.0),
    st.floats(-10.0, -1e-3),
)


@st.composite
def _seq(draw, n: int, real: bool, max_size: int = 8, radius: int = 5) -> SeqFn:
    keys = draw(st.lists(st.tuples(*[st.integers(-radius, radius)] * n),
                         max_size=max_size, unique=True))
    value = _REAL if real else st.builds(complex, _REAL, _REAL)
    vals = draw(st.lists(value, min_size=len(keys), max_size=len(keys)))
    return SeqFn(n, dict(zip(keys, vals)))


@st.composite
def _case(draw, max_size: int = 8):
    """(n, params, real, exact): exact when every product is real."""
    n = draw(st.sampled_from([1, 2, 3]))
    kind = draw(st.sampled_from(["ft", "scaled_ft", "random"]))
    if kind == "random":
        params = random_params(n, np.random.default_rng(draw(st.integers(0, 2**16))))
    else:
        params = preset("ft", n) if kind == "ft" else _scaled_ft(n)
    real = draw(st.booleans())
    return n, params, real, real and kind != "random"


def _assert_matches(new: SeqFn, ref: SeqFn, bound: dict, exact: bool) -> None:
    assert new.n == ref.n
    if exact:
        assert new.entries == ref.entries
        return
    for k in set(new.entries) | set(ref.entries):
        a, b = new.get(k), ref.get(k)
        assert abs(a - b) <= 4 * EPS * bound.get(k, 0.0), (k, a, b)


def _pair_bound(s: SeqFn, c: SeqFn, scale: float) -> dict:
    bound: dict = {}
    for k, zs in s.entries.items():
        for kp, zc in c.entries.items():
            l = tuple(a + b for a, b in zip(k, kp))
            bound[l] = bound.get(l, 0.0) + abs(zs) * abs(zc) * scale
    return bound


def _abs_bound(s: SeqFn) -> dict:
    return {k: abs(v) for k, v in s.entries.items()}


# ---------------------------------------------------------------------------
# conv_dd


@SETTINGS
@given(data=st.data(), case=_case())
def test_conv_dd_matches_oracle(data, case):
    n, p, real, exact = case
    s = data.draw(_seq(n, real))
    c = data.draw(_seq(n, real))
    bound = _pair_bound(s, c, 1.0 / np.sqrt(p.abs_det_b))
    _assert_matches(conv_dd(p, s, c), oracle.conv_dd(p, s, c), bound, exact)


@SETTINGS
@given(data=st.data(), case=_case(), budget=st.integers(1, 7))
def test_conv_dd_chunk_boundaries_keep_the_summation_order(data, case, budget):
    n, p, real, exact = case
    s = data.draw(_seq(n, real))
    c = data.draw(_seq(n, real))
    bound = _pair_bound(s, c, 1.0 / np.sqrt(p.abs_det_b))
    with patch.object(conv, "PAIR_BUDGET", budget):
        new = conv_dd(p, s, c)
    _assert_matches(new, oracle.conv_dd(p, s, c), bound, exact)


def _wide_sequence(rng, count: int, radius: int, real: bool) -> SeqFn:
    side = 2 * radius + 1
    flat = rng.choice(side * side, size=count, replace=False)
    keys = np.stack([flat // side - radius, flat % side - radius], axis=1)
    vals = rng.normal(size=count) + (0 if real else 1j * rng.normal(size=count))
    return SeqFn.from_arrays(2, keys, vals)


@pytest.mark.parametrize("real", [True, False])
def test_conv_dd_above_the_pair_budget_matches_oracle(real):
    rng = np.random.default_rng(11)
    s = _wide_sequence(rng, 700, 20, real)
    c = _wide_sequence(rng, 400, 12, real)
    assert len(s.entries) * len(c.entries) > PAIR_BUDGET
    p = preset("ft", 2) if real else random_params(2, rng)
    bound = _pair_bound(s, c, 1.0 / np.sqrt(p.abs_det_b))
    _assert_matches(conv_dd(p, s, c), oracle.conv_dd(p, s, c), bound, real)


def test_conv_dd_peak_memory_is_bounded_by_the_pair_budget():
    rng = np.random.default_rng(3)
    s = _wide_sequence(rng, 2000, 40, False)
    c = _wide_sequence(rng, 1000, 30, False)
    pairs = len(s.entries) * len(c.entries)
    assert pairs > 6 * PAIR_BUDGET
    tracemalloc.start()
    try:
        out = conv_dd(preset("ft", 2), s, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # ~130 bytes of temporaries per budgeted pair plus the output; forming
    # all 2M pairs at once would take about 250 MiB
    assert peak < 48 * 2**20, peak / 2**20
    assert len(out.entries) > 0


def test_conv_dd_empty_operands():
    p = preset("ft", 2)
    one = SeqFn(2, {(1, -1): 2.0})
    assert conv_dd(p, SeqFn(2, {}), one).entries == {}
    assert conv_dd(p, one, SeqFn(2, {})).entries == {}
    assert conv_dd(p, one, one).entries == oracle.conv_dd(p, one, one).entries


# ---------------------------------------------------------------------------
# coset kernels


@st.composite
def _lattice_case(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    lat = build_lattice(draw(st.sampled_from(LATTICES[n])))
    real = draw(st.booleans())
    return n, lat, draw(_seq(n, real, max_size=12, radius=7))


@SETTINGS
@given(case=_lattice_case())
def test_downsample_matches_oracle(case):
    _, lat, s = case
    new, ref = downsample(lat, s), oracle.downsample(lat, s)
    assert new.entries == ref.entries


@SETTINGS
@given(case=_lattice_case())
def test_split_and_merge_match_oracle(case):
    _, lat, s = case
    new, ref = split_sequence(lat, s), oracle.split_sequence(lat, s)
    assert [part.entries for part in new] == [part.entries for part in ref]
    assert merge_sequence(lat, new).entries == oracle.merge_sequence(lat, ref).entries
    assert merge_sequence(lat, new).entries == s.entries


@SETTINGS
@given(case=_lattice_case())
def test_decompose_matches_oracle(case):
    _, lat, s = case
    for k in s.entries:
        assert decompose(lat, k) == oracle.decompose(lat, k)


@pytest.mark.parametrize("M", [M for Ms in LATTICES.values() for M in Ms])
def test_split_agrees_with_decompose_oracle_on_a_box(M):
    lat = build_lattice(M)
    rng = np.random.default_rng(5)
    keys = rng.integers(-9, 10, size=(60, lat.n))
    r, j = lat.split(keys)
    for k, rk, jk in zip(keys.tolist(), r.tolist(), j.tolist()):
        assert (tuple(rk), jk) == oracle.decompose(lat, k)


@SETTINGS
@given(case=_lattice_case(), seed=st.integers(0, 2**16))
def test_generator_coset_samples_match_oracle(case, seed):
    # one split returns every coset as rows sorted by coset, then by r in a
    # SeqFn's order; each coset's rows must be the per-coset dict oracle's
    n, lat, s = case
    p = random_params(n, np.random.default_rng(seed))
    l, r, v = generator_coset_samples(p, lat, s)
    assert len(l) == len(r) == len(v) == len(s.entries)
    assert np.all(np.diff(l) >= 0)
    for c in range(lat.m):
        part = SeqFn.from_arrays(n, r[l == c], v[l == c])
        np.testing.assert_array_equal(part.keys, r[l == c])
        ref = oracle.generator_coset_samples(p, lat, s, c, chirped=True)
        _assert_matches(part, ref, _abs_bound(ref), exact=False)


@SETTINGS
@given(data=st.data(), case=_case(), levels=st.integers(1, 3))
def test_measure_from_samples_matches_oracle(data, case, levels):
    n, p, real, exact = case
    lat = build_lattice(data.draw(st.sampled_from(LATTICES[n])))
    s = data.draw(_seq(n, real))
    phi = [data.draw(_seq(n, real, max_size=10, radius=7)) for _ in range(levels)]
    new = measure_from_samples(p, lat, s, phi)
    ref = oracle.measure_from_samples(p, lat, s, phi)
    scale = 1.0 / np.sqrt(p.abs_det_b)
    for h, a, b in zip(phi, new.levels, ref.levels):
        # output r collects the pair keys M^T r
        pair = _pair_bound(s, h, scale)
        mt = lat.M.T
        bound = {r: pair[tuple(int(x) for x in mt @ np.array(r))] for r in b.entries}
        _assert_matches(a, b, bound, exact)


@SETTINGS
@given(data=st.data(), n=st.sampled_from([1, 2, 3]), real=st.booleans(),
       levels=st.integers(1, 3))
def test_plain_fourier_channels_are_the_downsampled_integer_samples(data, n, real, levels):
    # the continuous route once built its channels as downsample(conv_dd(...));
    # under the plain Fourier block the chirp is 1 + 0j and |det B| = 1, so
    # measure_from_samples must give the same keys and the same bits
    p = preset("ft", n)
    lat = build_lattice(data.draw(st.sampled_from(LATTICES[n])))
    s = data.draw(_seq(n, real))
    phi = [data.draw(_seq(n, real, max_size=10, radius=7)) for _ in range(levels)]
    for new, h in zip(measure_from_samples(p, lat, s, phi).levels, phi):
        (ka, va), (kb, vb) = new.as_arrays(), downsample(lat, conv_dd(p, s, h)).as_arrays()
        assert ka.tobytes() == kb.tobytes() and va.tobytes() == vb.tobytes()


# ---------------------------------------------------------------------------
# SeqFn array construction


def test_from_arrays_checks_shapes_and_drops_zeros():
    s = SeqFn.from_arrays(2, np.array([[0, 1], [2, -3], [4, 4]]), [1.5, 0.0, -2j])
    assert s.entries == {(0, 1): 1.5 + 0j, (4, 4): -2j}
    assert all(type(k[0]) is int for k in s.entries)
    assert all(type(v) is complex for v in s.entries.values())
    assert SeqFn.from_arrays(3, np.zeros((0, 3), dtype=int), []).entries == {}
    with pytest.raises(ValueError):
        SeqFn.from_arrays(2, np.array([[0, 1, 2]]), [1.0])
    with pytest.raises(ValueError):
        SeqFn.from_arrays(2, np.array([[0, 1]]), [1.0, 2.0])
    with pytest.raises(ValueError):
        SeqFn.from_arrays(2, np.array([[0.5, 1.0]]), [1.0])


def test_as_arrays_is_sorted_whatever_the_entry_order():
    s = SeqFn(2, {(3, 0): 1.0, (-1, 5): 2.0, (-1, -2): 3.0, (0, 0): 4.0})
    keys, vals = s.as_arrays()
    assert [tuple(k) for k in keys.tolist()] == sorted(s.entries)
    assert vals.tolist() == [s.entries[k] for k in sorted(s.entries)]
    keys, vals = SeqFn(1, {}).as_arrays()
    assert keys.shape == (0, 1) and vals.shape == (0,)
