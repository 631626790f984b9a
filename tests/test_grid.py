"""Grids, sequences, the continuous-normalization DFT, and file round-trips."""

import ast
from pathlib import Path

import dict_oracles as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import saftlab.grid
from saftlab.grid import (
    GridFn,
    SeqFn,
    dft,
    reciprocal_grid,
    sample_generator,
    sampling_grid,
    uniform_grid,
)
from saftlab.io import read_grid, read_params, read_sequence, write_grid, write_params, write_sequence
from saftlab.lattice import build_lattice
from saftlab.params import preset


# ---------------------------------------------------------------------------
# grid geometry


def test_uniform_grid_midpoint_convention():
    g = uniform_grid(-1.0, 1.0, 4)
    assert g.shape == (4,)
    assert np.allclose(g.axis_coords(0), [-0.75, -0.25, 0.25, 0.75])
    assert g.cell_volume == pytest.approx(0.5)


def test_sampling_grid_contains_integers():
    g = sampling_grid(3, 4, n=1)
    assert g.shape == (25,)
    xs = g.axis_coords(0)
    for k in range(-3, 4):
        assert np.min(np.abs(xs - k)) < 1e-12
    # 2d variant: cell centers on a tensor product
    g2 = sampling_grid(2, 2, n=2)
    assert g2.shape == (9, 9)


def test_sampling_grid_rejects_bad_args():
    with pytest.raises(ValueError):
        sampling_grid(0, 4)
    with pytest.raises(ValueError):
        sampling_grid(2, 0)


def test_grid_points_shape_and_order():
    g = uniform_grid([0.0, 0.0], [1.0, 2.0], (2, 3))
    pts = g.points().reshape(-1, g.n)
    assert pts.shape == (6, 2)
    # row-major: second axis varies fastest
    assert np.allclose(pts[0], [0.25, 1.0 / 3.0])
    assert np.allclose(pts[1], [0.25, 1.0])


def test_same_geometry_and_with_values():
    g = uniform_grid(-1, 1, 8)
    h = g.with_values(np.ones(8))
    assert g.same_geometry(h)
    assert not g.same_geometry(uniform_grid(-1, 1, 16))
    with pytest.raises(ValueError):
        g.with_values(np.ones(7))


def test_reciprocal_grid_is_an_involution_on_sampling_grids():
    g = sampling_grid(4, 8)
    r = reciprocal_grid(g)
    rr = reciprocal_grid(r)
    assert g.same_geometry(rr)
    # spacing product is 1/N
    assert np.allclose(r.spacing * np.array(g.shape) * g.spacing, 1.0)


def test_integrate_matches_closed_form():
    g = uniform_grid(0.0, 1.0, 4096)
    f = g.with_values(g.points()[..., 0] ** 2)
    # midpoint rule is exact to O(h^2) for smooth integrands
    assert abs(f.values.sum() * f.cell_volume - 1.0 / 3.0) < 1e-7


# ---------------------------------------------------------------------------
# DFT kernel


def _naive_dft(f, out, sign):
    pts = f.points().reshape(-1, f.n)
    tgt = out.points().reshape(-1, out.n)
    ker = np.exp(sign * 2j * np.pi * (tgt @ pts.T))
    return (ker @ f.values.reshape(-1)) * f.cell_volume


@pytest.mark.parametrize("sign", [-1, +1])
def test_dft_matches_naive_sum_1d(sign):
    rng = np.random.default_rng(3)
    g = sampling_grid(2, 3)
    f = g.with_values(rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    got = dft(f, sign)
    want = _naive_dft(f, got, sign)
    assert np.max(np.abs(got.values.reshape(-1) - want)) < 1e-12


def test_dft_matches_naive_sum_2d_offset_target():
    rng = np.random.default_rng(4)
    g = uniform_grid([-1.0, -2.0], [1.5, 2.0], (6, 5))
    f = g.with_values(rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    base = reciprocal_grid(f)
    # shift the target window: offsets must be absorbed exactly
    out = GridFn(2, base.shape, base.origin + 3.0 * base.spacing, base.spacing, base.values)
    got = dft(f, -1, out=out)
    want = _naive_dft(f, out, -1)
    assert np.max(np.abs(got.values.reshape(-1) - want)) < 1e-12


def test_dft_round_trip_identity():
    rng = np.random.default_rng(5)
    g = sampling_grid(3, 6, n=2)
    f = g.with_values(rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    back = dft(dft(f, -1), +1, out=f)
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_dft_rejects_incompatible_target():
    g = sampling_grid(2, 4)
    with pytest.raises(ValueError):
        dft(g, -1, out=sampling_grid(2, 8))
    with pytest.raises(ValueError):
        dft(g, 2)


# ---------------------------------------------------------------------------
# sequences


def test_seqfn_prunes_zeros_and_normalizes_keys():
    s = SeqFn(2, {(0, 0): 1.0, (1, -2): 0.0, (2, 2): 3j})
    assert set(s.entries) == {(0, 0), (2, 2)}
    assert s.get((1, -2)) == 0
    assert s.get(np.array([2, 2])) == 3j


def test_seqfn_arrays_sorted_and_l2():
    s = SeqFn(1, {(3,): 1.0, (-1,): 2.0})
    keys, vals = s.as_arrays()
    assert keys.tolist() == [[-1], [3]]
    assert vals.tolist() == [2.0, 1.0]
    assert s.l2norm() == pytest.approx(np.sqrt(5.0))


def test_seqfn_algebra():
    a = SeqFn(1, {(0,): 1.0, (1,): 2.0})
    b = SeqFn(1, {(1,): -2.0, (5,): 1e-20})
    c = a.plus(b)
    assert set(c.entries) == {(0,), (5,)}
    assert a.scaled(2j).get((1,)) == 4j
    with pytest.raises(ValueError):
        a.plus(SeqFn(2, {(0, 0): 1.0}))


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=-6, max_value=6),
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        max_size=8,
    )
)
def test_seqfn_plus_scaled_consistent(items):
    s = SeqFn(1, {(k,): v for k, v in items.items()})
    z = s.plus(s.scaled(-1.0))
    assert len(z) == 0
    doubled = s.plus(s)
    for k in s.entries:
        assert doubled.get(k) == pytest.approx(2 * s.get(k))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=complex).reshape(-1).view(np.int64)


def _seq_dicts(n: int, max_size: int = 12):
    """Index-tuple -> complex maps with exact and signed zeros among the values."""
    return st.dictionaries(
        st.tuples(*[st.integers(min_value=-2, max_value=2)] * n),
        st.one_of(
            st.sampled_from([0j, complex(-0.0, 1.0), complex(2.0, -0.0)]),
            st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        ),
        max_size=max_size,
    )


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=3))
def test_seqfn_stores_the_sorted_nonzero_items(data, n):
    d = data.draw(_seq_dicts(n))
    want = [(k, complex(v)) for k, v in sorted(d.items()) if v != 0]
    items = list(d.items())
    perm = data.draw(st.permutations(range(len(items))))
    keys = np.array([items[i][0] for i in perm], dtype=np.int64).reshape(-1, n)
    vals = np.array([items[i][1] for i in perm], dtype=complex)
    for s in (SeqFn(n, d), SeqFn.from_arrays(n, keys, vals)):
        assert s.keys.dtype == np.int64 and s.keys.shape == (len(want), n)
        assert [tuple(k) for k in s.keys.tolist()] == [k for k, _ in want]
        np.testing.assert_array_equal(_bits(s.values), _bits([v for _, v in want]))
        assert list(s.entries.items()) == want
        assert len(s) == len(want)


def test_seqfn_repeated_keys_raise():
    with pytest.raises(ValueError, match=r"repeated index \(1, -2\)"):
        SeqFn.from_arrays(2, np.array([[1, -2], [0, 0], [1, -2]]), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="repeated index"):
        SeqFn.from_arrays(1, np.array([[4], [4]]), [0.0, 1.0])    # also with a zero value
    with pytest.raises(ValueError, match="not a tuple of 2 integers"):
        SeqFn(2, {(0.5, 0): 1.0, (0, 0): 2.0})          # both were once read as (0, 0)


def test_seqfn_and_split_refuse_an_unsigned_key_past_int64():
    # the int64 cast once wrapped 2**63 to -2**63
    big = np.array([[2**63, 0]], dtype=np.uint64)
    with pytest.raises(ValueError, match=r"index 9223372036854775808 is 2\*\*63 or more"):
        SeqFn.from_arrays(2, big, [1.0])
    with pytest.raises(ValueError, match=r"index 9223372036854775808 is 2\*\*63 or more"):
        build_lattice([[2, 0], [0, 2]]).split(big)
    s = SeqFn.from_arrays(2, np.array([[2**63 - 1, 3]], dtype=np.uint64), [1.0])
    assert s.keys.dtype == np.int64 and s.keys.tolist() == [[2**63 - 1, 3]]


def test_seqfn_refuses_float_and_wrong_length_indices():
    # float indices were once truncated: (1.7, 2.2) read entry (1, 2)
    s = SeqFn(2, {(0, 0): 1.5, (1, 2): 2.0})
    for k in [(0,), (1, 2, 0), (1.7, 2.2), (1.0, 2), np.array([1.0, 2.0])]:
        with pytest.raises(ValueError, match="index"):
            s.get(k)
    assert s.get((np.int64(1), np.int32(2))) == s.get(np.array([1, 2])) == 2.0
    for entries in [{(0.5,): 1.0}, {(1.0,): 1.0}, {(0, 0): 1.0}]:
        with pytest.raises(ValueError, match="index"):
            SeqFn(1, entries)
    assert SeqFn(1, {(np.int64(-3),): 1.0}).keys.tolist() == [[-3]]


def test_seqfn_is_read_only():
    keys = np.array([[2, 2], [0, 1]])
    s = SeqFn.from_arrays(2, keys, [-1j, 1.5])
    keys[0] = 9                                 # the caller's array is not stored
    assert s.entries == {(0, 1): 1.5, (2, 2): -1j}
    with pytest.raises(AttributeError):
        s.entries = {}
    with pytest.raises(TypeError):
        s.entries[(0, 1)] = 2.0
    for name in ("n", "keys", "values"):
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(s, name))
    k, v = s.as_arrays()
    with pytest.raises(ValueError):
        k[0, 0] = 7
    with pytest.raises(ValueError):
        v[0] = 7
    assert s.entries == {(0, 1): 1.5, (2, 2): -1j}


@settings(max_examples=100, deadline=None)
@given(
    st.data(),
    st.integers(min_value=1, max_value=3),
    st.one_of(
        st.floats(min_value=-1e3, max_value=1e3),
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    ),
)
def test_seqfn_arithmetic_matches_the_dict_methods(data, n, alpha):
    a = SeqFn(n, data.draw(_seq_dicts(n)))
    b = SeqFn(n, data.draw(_seq_dicts(n)))
    pairs = [
        (a.plus(b), oracle.plus(a, b)),
        (b.plus(a), oracle.plus(b, a)),
        (a.scaled(alpha), oracle.scaled(a, alpha)),
        (a.plus(a.scaled(-1.0)), oracle.plus(a, oracle.scaled(a, -1.0))),
    ]
    for new, ref in pairs:
        assert new.keys.tolist() == ref.keys.tolist()
        np.testing.assert_array_equal(_bits(new.values), _bits(ref.values))
    ref = oracle.l2norm(a)
    assert abs(a.l2norm() - ref) <= 4 * np.finfo(float).eps * ref


# ---------------------------------------------------------------------------
# generators


def test_gaussian_generator_profile():
    g = sampling_grid(4, 4)
    f = sample_generator("gaussian", g, sigma=0.7, center=0.25)
    xs = g.points().reshape(-1, g.n)[:, 0]
    want = np.exp(-np.pi * ((xs - 0.25) / 0.7) ** 2)
    assert np.max(np.abs(f.values.reshape(-1) - want)) < 1e-15


def test_gaussian_generator_modulation_and_chirp():
    g = sampling_grid(2, 8)
    f = sample_generator("gaussian", g, sigma=1.0, modulation=0.5, chirp=0.3)
    xs = g.points().reshape(-1, g.n)[:, 0]
    want = np.exp(-np.pi * xs**2) * np.exp(2j * np.pi * 0.5 * xs) * np.exp(1j * np.pi * 0.3 * xs**2)
    assert np.max(np.abs(f.values.reshape(-1) - want)) < 1e-14


def test_unknown_generator_raises():
    with pytest.raises(ValueError):
        sample_generator("nope", sampling_grid(1, 2))


def test_grid_imports_no_other_saftlab_module():
    # grid is the package's base layer: every other module builds on it
    tree = ast.parse(Path(saftlab.grid.__file__).read_text())
    sources = ["." * node.level + (node.module or "") for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)]
    sources += [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    assert [s for s in sources if s.startswith(".") or s.split(".")[0] == "saftlab"] == []


# ---------------------------------------------------------------------------
# io round-trips


def test_grid_file_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    g = uniform_grid([-1.0, 0.0], [2.0, 1.0], (5, 4))
    f = g.with_values(rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    path = tmp_path / "f.grid"
    write_grid(path, f)
    back = read_grid(path)
    assert back.same_geometry(f)
    assert np.max(np.abs(back.values - f.values)) < 1e-15
    # plain decimal text, no numpy scalar reprs
    assert "np.float64" not in path.read_text()


def test_sequence_file_roundtrip(tmp_path):
    s = SeqFn(2, {(0, 1): 1.5 - 2j, (-3, 4): 0.25})
    path = tmp_path / "s.csv"
    write_sequence(path, s)
    back = read_sequence(path, n=2)
    assert back.n == 2
    assert set(back.entries) == set(s.entries)
    for k in s.entries:
        assert back.get(k) == pytest.approx(s.get(k))
    assert "np.float64" not in path.read_text()


def test_zero_sequence_roundtrip(tmp_path):
    # an all-zero sequence prunes to an empty map; the file keeps only the
    # header and must read back as the zero sequence, not an error
    z = SeqFn(2, {(0, 0): 0.0})
    path = tmp_path / "zero.csv"
    write_sequence(path, z)
    back = read_sequence(path, n=2)
    assert back.n == 2 and len(back) == 0


def test_params_file_roundtrip(tmp_path):
    p = preset("custom", A=[[0.6]], B=[[1.25]], C=[[-0.416]], D=[[0.8]], P=[0.3], Q=[-0.45])
    path = tmp_path / "p.json"
    write_params(path, p)
    q = read_params(path)
    for name in "ABCD":
        assert np.allclose(getattr(q, name), getattr(p, name), atol=0)
    assert np.allclose(q.P, p.P) and np.allclose(q.Q, p.Q)


def test_read_grid_rejects_garbage(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_text("not a grid\n")
    with pytest.raises(ValueError):
        read_grid(path)
