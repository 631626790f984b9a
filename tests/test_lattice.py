"""Integer lattices: coset enumeration, exact decomposition, split/merge."""

import itertools

import numpy as np
import pytest
from construction_oracles import _adjugate_int, _det_int
from hypothesis import given, settings
from hypothesis import strategies as st

from saftlab.grid import SeqFn
from saftlab.lattice import _det_adj, build_lattice, decompose, merge_sequence, split_sequence


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
