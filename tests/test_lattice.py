"""Integer lattices: coset enumeration, exact decomposition, split/merge."""

import dataclasses
import itertools
import tracemalloc
from fractions import Fraction
from math import isqrt, prod

import construction_oracles as oracle
import numpy as np
import pytest
from construction_oracles import _adjugate_int, _det_int
from hypothesis import given, settings
from hypothesis import strategies as st

from saftlab.grid import SeqFn
from saftlab.lattice import (
    SamplingLattice,
    _det_adj,
    build_lattice,
    decompose,
    merge_sequence,
    split_sequence,
)


def test_basic_counts_and_zero_first():
    lat = build_lattice([[2, 0], [0, 2]])
    assert lat.m == 4
    assert len(lat.gamma) == 4 and len(lat.eta) == 4
    assert lat.gamma[0] == (0, 0) and lat.eta[0] == (0, 0)


@pytest.mark.parametrize("diag", [(2,), (3,), (1, 2), (3, 2), (2, 3), (2, 2), (1, 2, 3),
                                  (2, 1, 2)])
def test_positive_diagonal_gamma_runs_over_the_box_in_c_order(diag):
    # recover_continuous tiles the full DFT grid by one transpose on this order
    lat = build_lattice(np.diag(diag))
    assert lat.gamma == tuple(itertools.product(*map(range, diag)))


def test_m_inverse_exact():
    lat = build_lattice([[2, 1], [0, 3]])
    assert np.allclose(lat.M @ lat.m_inverse(), np.eye(2), atol=1e-15)


def test_rejects_singular_and_noninteger():
    with pytest.raises(ValueError):
        build_lattice([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        build_lattice([[1.5, 0], [0, 2]])
    with pytest.raises(ValueError):
        build_lattice([1, 2, 3])
    # near-integers once passed np.allclose and built 2I and diag(10**6, 1)
    for near in ([[2.00001, 0], [0, 2]], [[1000000.5, 0], [0, 1]]):
        with pytest.raises(ValueError, match="integer entries"):
            build_lattice(near)
    assert build_lattice([[2.0, 0.0], [0.0, 2.0]]).M.tolist() == [[2, 0], [0, 2]]


def test_reps_are_distinct_modulo_lattice():
    lat = build_lattice([[3, 1], [1, 2]])  # det 5
    # gamma_i - gamma_j must never lie in M Z^2 for i != j
    minv = lat.m_inverse()
    for i, j in itertools.combinations(range(lat.m), 2):
        d = np.array(lat.gamma[i]) - np.array(lat.gamma[j])
        q = minv @ d
        assert not np.allclose(q, np.round(q), atol=1e-9)


@pytest.mark.parametrize("M", [[[2]], [[2, 0], [0, 2]], [[2, 1], [0, 2]], [[3, 1], [1, 2]]])
def test_decompose_partitions_a_box(M):
    lat = build_lattice(M)
    n = lat.n
    mt = lat.M.T
    for k in itertools.product(range(-4, 5), repeat=n):
        r, j = decompose(lat, k)
        rebuilt = mt @ np.array(r) + np.array(lat.eta[j])
        assert tuple(rebuilt) == k


@settings(max_examples=30, deadline=None)
@given(
    ms=st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    items=st.dictionaries(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
        st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
        max_size=10,
    ),
)
def test_split_merge_roundtrip(ms, items):
    M = [[ms[0], ms[1]], [ms[2], ms[3]]]
    if abs(ms[0] * ms[3] - ms[1] * ms[2]) == 0:
        return
    lat = build_lattice(M)
    s = SeqFn(2, items)
    parts = split_sequence(lat, s)
    assert len(parts) == lat.m
    back = merge_sequence(lat, parts)
    assert set(back.entries) == set(s.entries)
    for k in s.entries:
        assert back.get(k) == s.get(k)


def test_split_preserves_mass():
    lat = build_lattice([[2, 0], [0, 3]])
    rng = np.random.default_rng(8)
    s = SeqFn(
        2, {(int(a), int(b)): complex(rng.normal(), rng.normal()) for a, b in rng.integers(-6, 7, (20, 2))}
    )
    parts = split_sequence(lat, s)
    assert sum(len(p) for p in parts) == len(s)
    total = sum(p.l2norm() ** 2 for p in parts)
    assert total == pytest.approx(s.l2norm() ** 2, rel=1e-12)


def test_split_refuses_keys_of_another_width():
    # a reshape would read (K, 2) keys as (2K, 1) keys of a 1-D lattice
    with pytest.raises(ValueError, match=r"shape \(K, 1\)"):
        build_lattice([[2]]).split(np.zeros((3, 2), dtype=np.int64))
    with pytest.raises(ValueError, match=r"shape \(K, 2\)"):
        build_lattice([[2, 0], [0, 2]]).split(np.zeros(4, dtype=np.int64))


def test_split_and_decompose_refuse_keys_of_a_float_dtype():
    lat = build_lattice([[2, 0], [0, 2]])
    # a cast to int64 once read 1.9 as 1: the coset of (1, 0)
    with pytest.raises(ValueError, match="keys must be integers, got dtype float64"):
        lat.split([[1.9, 0]])
    with pytest.raises(ValueError, match="keys must be integers, got dtype float64"):
        lat.split(np.array([[2.0, 0.0]]))
    with pytest.raises(ValueError, match="keys must be integers, got dtype bool"):
        lat.split([[True, False]])
    with pytest.raises(ValueError, match="keys must be integers"):
        decompose(lat, (1.9, 0))
    # an empty key array may have any dtype, as in SeqFn.from_arrays
    r, j = lat.split(np.zeros((0, 2)))
    assert r.shape == (0, 2) and r.dtype == np.int64 and j.shape == (0,)
    assert decompose(lat, np.array([3, -1], dtype=np.int32)) == ((1, -1), lat.eta.index((1, 1)))


def test_merge_requires_full_part_list():
    lat = build_lattice([[2]])
    with pytest.raises(ValueError):
        merge_sequence(lat, [SeqFn(1, {})])


def _int_matrices(n: int, lo: int, hi: int):
    """n x n integer matrices, a singular one (a row a multiple of another) now and then."""
    rows = st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    square = st.lists(rows, min_size=n, max_size=n)
    return square | square.flatmap(lambda m: st.integers(-3, 3).map(
        lambda c: m[:-1] + [[c * x for x in m[0]]]))


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 4).flatmap(lambda n: _int_matrices(n, -50, 50)))
def test_one_elimination_gives_the_bareiss_determinant_and_the_cofactor_adjugate(m):
    det, adj = _det_adj(m)
    assert det == _det_int(m)
    # a singular M has no M^{-1} to scale, and build_lattice refuses it
    assert adj == (_adjugate_int(m) if det else None)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 3).flatmap(lambda n: _int_matrices(n, -3, 3)))
def test_a_lattices_determinant_and_adjugate_are_the_oracles(m):
    det = _det_int(m)
    if det == 0:
        with pytest.raises(ValueError, match="M is singular"):
            build_lattice(m)
        return
    lat = build_lattice(m)
    adj = np.array(_adjugate_int(m), dtype=np.int64)
    assert lat.det == det and lat.m == abs(det)
    assert lat.adj.dtype == adj.dtype and lat.adj.tobytes() == adj.tobytes()
    assert lat.M.tolist() == m and lat.M.dtype == np.int64
    assert not lat.M.flags.writeable and not lat.adj.flags.writeable


def _oracle_lattice(lat: SamplingLattice) -> SamplingLattice:
    """`lat` with its cosets from the bounding-box scan the Hermite box replaced."""
    return dataclasses.replace(lat, gamma=tuple(oracle._coset_reps(lat.M, lat.det, lat.adj)),
                               eta=tuple(oracle._coset_reps(lat.M.T, lat.det, lat.adj.T)))


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 3).flatmap(lambda n: _int_matrices(n, -3, 3)), data=st.data())
def test_hermite_box_cosets_and_split_are_the_bounding_box_scans(m, data):
    if _det_int(m) == 0:
        return
    lat = build_lattice(m)
    old = _oracle_lattice(lat)
    # M, adj, det and m come from code the change left alone; the cosets are new
    assert lat.gamma == old.gamma and lat.eta == old.eta and lat.m == len(old.gamma)
    assert all(type(x) is int for rep in lat.gamma + lat.eta for x in rep)
    keys = np.array(data.draw(st.lists(st.lists(st.integers(-60, 60), min_size=lat.n,
                                                max_size=lat.n), max_size=40)),
                    dtype=np.int64).reshape(-1, lat.n)
    for new, ref in zip(lat.split(keys), oracle.split(old, keys)):
        assert new.dtype == ref.dtype and new.shape == ref.shape
        assert new.tobytes() == ref.tobytes()


@st.composite
def _sheared(draw):
    """``L D U``: unit triangular shears around a diagonal with ``|det| <= 50``,
    every entry at most 10**4 in magnitude, or, half the time, shears of at
    least half their cap for entries up to 2**40 (2**27 in 3-D, where an
    adjugate entry sums products of two entries, and its row sums times a
    Hermite box index must stay under 2**63)."""
    n = draw(st.integers(1, 3))
    d = []
    for _ in range(n):     # drawn within the product bound, not filtered to it
        d.append(draw(st.integers(1, 50 // prod(d))))
    d = [x * draw(st.sampled_from((1, -1))) for x in d]
    large = draw(st.booleans())
    # |(L D U)_ij| <= n * k**2 * max|d_l|
    cap = (2**40 if n < 3 else 2**27) if large else 10**4
    k = isqrt(cap // (n * max(map(abs, d))))
    off = (st.integers(k // 2, k).flatmap(lambda x: st.sampled_from((x, -x))) if large
           else st.integers(-k, k))
    low = [[1 if i == j else draw(off) if j < i else 0 for j in range(n)] for i in range(n)]
    up = [[1 if i == j else draw(off) if j > i else 0 for j in range(n)] for i in range(n)]
    return [[sum(low[i][l] * d[l] * up[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)]


def _in_unit_box(adj, det, v) -> bool:
    """``adj v / det`` in ``[0,1)^n``, in exact Python ints."""
    return all(0 <= Fraction(sum(a * x for a, x in zip(row, v)), det) < 1 for row in adj)


@settings(max_examples=100, deadline=None)
@given(m=_sheared(), data=st.data())
def test_sheared_cosets_are_the_fundamental_domain_and_split_rebuilds_each_key(m, data):
    assert max(abs(x) for row in m for x in row) <= 2**40
    lat = build_lattice(m)
    det, adj, n = _det_int(m), _adjugate_int(m), len(m)
    adj_t = [list(col) for col in zip(*adj)]
    assert lat.m == abs(det) <= 50
    for reps, a in ((lat.gamma, adj), (lat.eta, adj_t)):
        # m distinct points of M[0,1)^n (of M^T[0,1)^n), zero first, then in order
        assert len(set(reps)) == len(reps) == lat.m
        assert reps[0] == (0,) * n and list(reps[1:]) == sorted(reps[1:])
        assert all(_in_unit_box(a, det, v) for v in reps)
    # inside _reduce's bound: a key's product with adj(M^T) stays under 2**63
    top = min(10**6, (2**63 - 1) // max(sum(map(abs, row)) for row in adj_t))
    keys = data.draw(st.lists(st.lists(st.integers(-top, top), min_size=n, max_size=n),
                              min_size=1, max_size=30))
    r, j = lat.split(np.array(keys, dtype=np.int64))
    for k, rr, jj in zip(keys, r.tolist(), j.tolist()):
        assert k == [sum(m[i][c] * rr[i] for i in range(n)) + lat.eta[jj][c] for c in range(n)]


def test_a_sheared_unimodular_lattice_is_built_in_proportion_to_its_one_coset():
    # the bounding box of M[0,1)^2 holds about 9 * 10**6 points here
    tracemalloc.start()
    try:
        lat = build_lattice([[3000, 2999], [2999, 2998]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lat.gamma == lat.eta == ((0, 0),)
    assert peak < 2**20, peak


def test_a_lattice_with_a_vast_bounding_box_splits_by_its_hermite_box():
    # eta's bounding box holds about 2**80 points, past any numpy array
    # (numpy's "invalid dims" once); the Hermite box of M^T holds m = 2
    m = [[2**40 + 1, 2**40 - 1], [1, 1]]
    lat = build_lattice(m)
    assert lat.m == 2
    keys = [[5, 7], [0, 0], [-3, 2**20], [2**21, -1], [-(2**21), 2**21 - 1]]
    r, j = lat.split(keys)
    assert sorted(set(j.tolist())) == [0, 1]
    for k, rr, jj in zip(keys, r.tolist(), j.tolist()):
        assert k == [sum(m[i][c] * rr[i] for i in range(2)) + lat.eta[jj][c] for c in range(2)]
    # this one builds, but a point of M^T[0,1)^2 has an entry near 2**62, and
    # taking it to its Hermite box digits could pass 2**63
    big = build_lattice([[2**62, 2**62 - 2], [1, 1]])
    assert big.m == 2
    with pytest.raises(ValueError, match=r"Hermite box .*2\*\*63"):
        big.split([[0, 0]])


def test_split_refuses_keys_whose_products_could_wrap_int64():
    lat = build_lattice([[2, 0], [0, 2]])
    # 2**62 * 2 is 2**63: int64 would wrap r to -2**61
    with pytest.raises(ValueError, match=r"4611686018427387904 .*2\*\*63"):
        lat.split([[2**62, 3]])
    # -2**63 is a legal CSV index, and np.abs(-2**63) is negative
    with pytest.raises(ValueError, match=r"9223372036854775808 .*2\*\*63"):
        lat.split(np.array([[-(2**63), 0]], dtype=np.int64))
    r, j = lat.split([[2**62 - 1, -(2**62) + 1]])
    assert r.tolist() == [[2**61 - 1, -(2**61)]] and lat.eta[int(j[0])] == (1, 1)
    sheared = build_lattice([[2**31, 2**31 - 1], [2**31 + 1, 2**31]])
    assert sheared.m == 1
    with pytest.raises(ValueError, match=r"2\*\*63"):
        sheared.split([[2**33, -(2**33) + 5]])
    r, j = sheared.split([[2**20, -(2**20) + 5]])
    assert (sheared.M.T @ r[0]).tolist() == [2**20, -(2**20) + 5] and j.tolist() == [0]


def test_enumeration_refuses_a_box_whose_products_could_wrap_int64():
    # det 3 with a Hermite box {0} x [0, 3): adj(M) (0, 2) has an entry near 2**63
    with pytest.raises(ValueError, match=r"index 2 .*2\*\*63"):
        build_lattice([[2**62 + 1, 2**62 - 2], [1, 1]])
    # unimodular, but adj M holds 2**80, which no int64 array can (an OverflowError once)
    with pytest.raises(ValueError, match=r"adj M .*2\*\*63"):
        build_lattice([[1, 2**40, 0], [0, 1, 2**40], [0, 0, 1]])
