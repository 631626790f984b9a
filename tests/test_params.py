"""Parameter blocks: constraints, presets, inversion, phase factors."""

import re

import construction_oracles as oracle
import numpy as np
import pytest
from conftest import coarse_sis
from hypothesis import given, settings
from hypothesis import strategies as st

from saftlab.grid import sample_generator, sampling_grid
from saftlab.params import (
    SaftParams,
    _offset_phase,
    _physical_points,
    _reduced_points,
    chirp,
    inverse_params,
    modulation,
    preset,
    random_params,
    require_valid,
    validate,
)
from saftlab.sis import resolved_band_mask

ALL_PRESETS = [
    ("ft", dict(n=1)),
    ("ft", dict(n=2)),
    ("ft", dict(n=3)),
    ("lct", dict(A=[[0.6]], B=[[1.25]], C=[[-0.416]], D=[[0.8]])),
    ("separable_lct", dict(a=[0.6, 1.0], b=[1.25, 0.5], c=[-0.416, -2.0], d=[0.8, 0.0])),
    ("separable_frft", dict(theta=[0.7])),
    ("separable_frft", dict(theta=[0.4, 1.9])),
    ("nonseparable_fresnel", dict(B=[[1.0, 0.3], [0.3, 2.0]])),
    ("separable_fresnel", dict(b=[0.8, 1.6])),
    ("separable_lorentz", dict(phi=[0.5])),
    ("custom", dict(A=[[0.6]], B=[[1.25]], C=[[-0.416]], D=[[0.8]], P=[0.3], Q=[-0.45])),
]


@pytest.mark.parametrize("kind,kwargs", ALL_PRESETS)
def test_presets_satisfy_constraints(kind, kwargs):
    p = preset(kind, **kwargs)
    rep = validate(p, 1e-12)
    assert rep.ok, str(rep)
    # A B^T symmetric, C D^T symmetric, A D^T - B C^T = I, checked directly
    assert np.allclose(p.A @ p.B.T, p.B @ p.A.T, atol=1e-12)
    assert np.allclose(p.C @ p.D.T, p.D @ p.C.T, atol=1e-12)
    assert np.allclose(p.A @ p.D.T - p.B @ p.C.T, np.eye(p.n), atol=1e-12)


def test_ft_preset_blocks():
    p = preset("ft", 2)
    assert np.array_equal(p.A, np.zeros((2, 2)))
    assert np.array_equal(p.B, np.eye(2))
    assert np.array_equal(p.C, -np.eye(2))
    assert np.array_equal(p.D, np.zeros((2, 2)))
    assert p.is_chirp_free()
    assert p.is_plain_fourier()
    assert p.abs_det_b == 1.0


def test_plain_fourier_needs_every_block_and_offset():
    eye, zero = np.eye(1), np.zeros((1, 1))
    assert not preset("separable_frft", theta=[0.7]).is_plain_fourier()
    assert not SaftParams(1, zero, 2 * eye, -0.5 * eye, zero, [0.0], [0.0]).is_plain_fourier()
    assert not SaftParams(1, zero, eye, -eye, zero, [0.25], [0.0]).is_plain_fourier()
    assert not SaftParams(1, zero, eye, -eye, zero, [0.0], [0.25]).is_plain_fourier()


def test_invalid_block_is_reported_not_raised():
    # breaking the symplectic identity must flip the verdict, not crash; a
    # residual that overflows to NaN (1e200 * 1e200 - 1e200 * 1e200) once
    # passed, since nan > tol is false
    for args, name, residual in [
        (([[0.5]], [[1.0]], [[-1.0]], [[1.0]]), "symplectic_identity", 0.5),
        (([[1e200]], [[1e200]], [[0.0]], [[1e-200]]), "ab_symmetry", np.nan),
    ]:
        with np.errstate(over="ignore", invalid="ignore"):
            p = SaftParams(1, *args, [0.0], [0.0])
        rep = validate(p)
        assert not rep.ok
        assert rep.residuals[name] == pytest.approx(residual, nan_ok=True)
        with pytest.raises(ValueError):
            require_valid(p)


def test_singular_b_detected():
    p = SaftParams(2, np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)), np.zeros(2), np.zeros(2))
    assert not validate(p).ok
    with pytest.raises(ValueError):
        _ = p.b_inv


def test_shape_errors_raise_at_construction():
    with pytest.raises(ValueError):
        SaftParams(2, np.eye(3), np.eye(2), np.eye(2), np.eye(2), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        SaftParams(2, np.zeros((2, 2)), np.eye(2), -np.eye(2), np.zeros((2, 2)), np.zeros(3), np.zeros(2))
    # a non-finite entry once built a block that validated (a NaN residual
    # passed) or failed later in numpy's SVD; each is named
    Z, I = np.zeros((1, 1)), np.eye(1)
    for build, line in [
        (lambda: SaftParams(1, [[np.nan]], I, Z, I, [0.0], [0.0]), "A has a non-finite entry"),
        (lambda: SaftParams(1, Z, I, -I, Z, [np.nan], [0.0]), "P has a non-finite entry"),
        (lambda: SaftParams(1, Z, I, -I, Z, [0.0], [np.inf]), "Q has a non-finite entry"),
        (lambda: preset("separable_lorentz", phi=[1000.0]), "A has a non-finite entry"),
        (lambda: preset("separable_frft", theta=[np.nan]),
         "preset 'separable_frft': theta has a non-finite entry"),
    ]:
        with pytest.raises(ValueError) as err, np.errstate(over="ignore"):
            build()
        assert str(err.value) == line


def test_preset_rejects_singular_angles():
    with pytest.raises(ValueError):
        preset("separable_frft", theta=[0.0])
    with pytest.raises(ValueError):
        preset("separable_lorentz", phi=[0.0])
    with pytest.raises(ValueError):
        preset("nonseparable_fresnel", B=[[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        preset("no_such_kind", n=1)


def test_preset_refuses_keys_it_does_not_read_and_a_disagreeing_n():
    with pytest.raises(ValueError, match="'ft' does not take theta"):
        preset("ft", 2, theta=[1.0])
    # kind is positional-only, so a stray kind is one more unread key
    with pytest.raises(ValueError, match="'ft' does not take kind"):
        preset("ft", n=2, **{"kind": 1})
    with pytest.raises(ValueError, match="n = 2, but its arguments give dimension 1"):
        preset("separable_frft", theta=[0.7], n=2)
    assert preset("separable_frft", theta=[0.7, 1.1], n=2).n == 2
    assert preset("custom", A=[[0.6]], B=[[1.25]], C=[[-0.416]], D=[[0.8]], P=[0.3]).n == 1


@pytest.mark.parametrize("kind, key, value, shape", [
    ("separable_frft", "theta", [[0.7, 1.1]], (1, 2)),
    ("separable_fresnel", "b", [[1, 2], [3, 4]], (2, 2)),
    ("separable_lorentz", "phi", [[[0.5]]], (1, 1, 1)),
])
def test_preset_refuses_a_per_axis_argument_of_two_or_more_dimensions(kind, key, value, shape):
    # np.diag once took its diagonal, and the block's shape check failed instead
    with pytest.raises(ValueError) as err:
        preset(kind, **{key: value})
    assert str(err.value) == (f"preset {kind!r}: {key} must be a scalar or a vector, "
                              f"got shape {shape}")


def test_inverse_params_is_an_involution():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        p = random_params(n, rng)
        q = inverse_params(p)
        assert validate(q, 1e-9).ok
        r = inverse_params(q)
        for name in "ABCD":
            assert np.allclose(getattr(r, name), getattr(p, name), atol=1e-12)
        assert np.allclose(r.P, p.P, atol=1e-12)
        assert np.allclose(r.Q, p.Q, atol=1e-12)


def test_inverse_params_composes_to_identity_blocks():
    rng = np.random.default_rng(11)
    p = random_params(2, rng)
    q = inverse_params(p)
    # composing the symplectic matrices must give the identity
    Sp = np.block([[p.A, p.B], [p.C, p.D]])
    Sq = np.block([[q.A, q.B], [q.C, q.D]])
    assert np.allclose(Sq @ Sp, np.eye(4), atol=1e-10)


def test_phase_factors_have_unit_modulus(rand1, rng):
    pts = rng.uniform(-5, 5, (64, 1))
    assert np.allclose(np.abs(chirp(rand1, pts)), 1.0, atol=1e-14)
    assert np.allclose(np.abs(modulation(rand1, pts)), 1.0, atol=1e-14)
    # scalar input gives a python complex
    val = chirp(rand1, np.array([0.3]))
    assert isinstance(val, complex)


def test_chirp_free_block_has_trivial_chirp():
    p = preset("ft", 2)
    pts = np.array([[0.5, -1.0], [2.0, 3.0]])
    assert np.allclose(chirp(p, pts), 1.0, atol=0.0)
    assert np.allclose(modulation(p, pts), 1.0, atol=0.0)


def test_modulation_matches_direct_formula(rand1):
    w = np.array([0.7])
    direct = np.exp(
        1j * np.pi * (w @ rand1.D @ rand1.b_inv @ w)
        + 2j * np.pi * ((rand1.Q - (rand1.D @ rand1.b_inv).T @ rand1.P) @ w)
    )
    assert abs(modulation(rand1, w) - complex(direct)) < 1e-14


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(min_value=1, max_value=3))
def test_random_params_always_valid(seed, n):
    rng = np.random.default_rng(seed)
    p = random_params(n, rng)
    assert validate(p, 1e-9).ok
    assert p.abs_det_b >= 0.3
    assert np.linalg.norm(p.b_inv @ p.A, 2) <= 2.0 + 1e-12
    assert np.linalg.norm(p.D @ p.b_inv, 2) <= 2.0 + 1e-12


def test_random_params_deterministic_per_seed():
    a = random_params(2, np.random.default_rng(123))
    b = random_params(2, np.random.default_rng(123))
    assert np.array_equal(a.B, b.B) and np.array_equal(a.P, b.P)


@pytest.mark.parametrize("n", [2, 3])
def test_phase_factors_give_a_point_the_same_bits_alone_and_in_a_batch(n):
    # kernels evaluate these per chunk of outputs, so a value must not
    # depend on how many other points share its call; the frame conversions
    # and the band test feed them
    rng = np.random.default_rng(40 + n)
    phi = sample_generator("gaussian", sampling_grid(2, 4, n=n), sigma=0.5)
    for _ in range(20):
        p = random_params(n, rng)
        model = coarse_sis(p, phi)
        w = rng.uniform(-8.0, 8.0, (400, n))
        for fn in (chirp, modulation, _reduced_points, _physical_points, _offset_phase,
                   lambda _p, x: resolved_band_mask(model, x)):
            batch = fn(p, w)
            alone = np.array([fn(p, pt) for pt in w])
            stacked = fn(p, w.reshape(20, 20, n)).reshape(batch.shape)
            assert np.array_equal(batch, alone)
            assert np.array_equal(batch, stacked)


# ---------------------------------------------------------------------------
# one preset table against the if chain it replaced, and the derived matrices


def _outcome(build):
    """The block's n and matrices as bytes, or the error's type and text."""
    try:
        p = build()
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc), str(exc)
    return p.n, [(getattr(p, k).shape, getattr(p, k).tobytes()) for k in "ABCDPQ"]


_entry = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]) | st.floats(-3.0, 3.0)


def _per_axis(k):
    return _entry | st.lists(_entry, min_size=k, max_size=k)


def _square(k):
    return _entry | st.lists(st.lists(_entry, min_size=k, max_size=k), min_size=k, max_size=k)


@st.composite
def _preset_calls(draw):
    """A kind, with each key it reads drawn (or left out), an unread key now
    and then and an ``n`` that may contradict the arguments."""
    kind = draw(st.sampled_from(sorted(oracle._PRESET_KEYS)))
    k = draw(st.integers(1, 3))
    kwargs = {}
    if kind in ("lct", "custom") and draw(st.booleans()):
        p = random_params(k, np.random.default_rng(draw(st.integers(0, 2**16))))
        kwargs = {name: getattr(p, name).tolist() for name in "ABCDPQ"[:6 if kind == "custom" else 4]}
    if kind == "separable_lct" and draw(st.booleans()):
        theta = np.array(draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k)))
        kwargs = dict(zip("abcd", (np.cos(theta), np.sin(theta), -np.sin(theta), np.cos(theta))))
    for key in oracle._PRESET_KEYS[kind]:
        if key not in kwargs and draw(st.integers(0, 9)):
            if key == "B" and kind == "nonseparable_fresnel" and draw(st.booleans()):
                m = np.array(draw(_square(k)), ndmin=2)
                kwargs[key] = ((m + m.T) / 2).tolist()      # symmetric
            elif key in "PQ":
                kwargs[key] = draw(_per_axis(k))
            else:
                kwargs[key] = draw(_square(k) if key in "ABCD" else _per_axis(k))
    if not draw(st.integers(0, 9)):
        kwargs["theta" if kind != "separable_frft" else "b"] = [0.5]
    n = draw(st.none() | st.integers(1, 3))
    return kind, n, kwargs


@settings(max_examples=300, deadline=None)
@given(call=_preset_calls())
def test_every_preset_kind_gives_the_if_chains_block_or_error(call):
    kind, n, kwargs = call
    new = _outcome(lambda: preset(kind, n, **kwargs))
    if kind == "nonseparable_fresnel" and "B" in kwargs and np.ndim(kwargs["B"]) == 0:
        # the if chain crashed on a scalar B; the table reads it as the 1x1 block
        kwargs = {**kwargs, "B": [[kwargs["B"]]]}
    old = _outcome(lambda: oracle.preset(kind, n, **kwargs))
    if old[0] is KeyError:
        # the if chain's bare KeyError(k) on a missing key k: the table
        # refuses with a ValueError naming the missing keys, k first
        assert new[0] is ValueError
        assert re.fullmatch(rf"preset {kind!r} needs {old[1][1:-1]}(, \w+)*", new[1]), new
    else:
        assert new == old


def test_a_scalar_fresnel_b_is_the_one_by_one_block():
    with pytest.raises(IndexError):     # the if chain's crash
        oracle.preset("nonseparable_fresnel", B=2.0)
    p = preset("nonseparable_fresnel", B=2.0)
    assert p.n == 1 and p.B.tolist() == [[2.0]] and p.A.tolist() == [[1.0]] == p.D.tolist()
    assert p.C.tolist() == [[0.0]]


#: the matrices a block derives from B^{-1}, each with the expression that formed
#: it at construction before they were formed on first read
_DERIVED = {
    "b_inv": lambda p, b_inv: b_inv,
    "b_inv_a": lambda p, b_inv: b_inv @ p.A,
    "d_b_inv": lambda p, b_inv: p.D @ b_inv,
    "b_inv_p": lambda p, b_inv: b_inv @ p.P,
    "_mod_lin": lambda p, b_inv: p.Q - (p.D @ b_inv).T @ p.P,
}


def test_derived_matrices_have_the_eager_bits_are_read_only_and_formed_once():
    rng = np.random.default_rng(34)
    blocks = [random_params(n, rng) for n in (1, 2, 3) for _ in range(10)]
    blocks += [preset(kind, **kwargs) for kind, kwargs in ALL_PRESETS]
    for p in blocks:
        b_inv = np.linalg.inv(p.B)
        for name, eager in _DERIVED.items():
            got, want = getattr(p, name), eager(p, b_inv)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
            assert not got.flags.writeable, name
            assert getattr(p, name) is got, name


def test_a_singular_b_refuses_every_derived_matrix_and_the_modulation_alike():
    Z, I = np.zeros((2, 2)), np.eye(2)
    p = SaftParams(2, Z, Z, I, Z, np.zeros(2), np.zeros(2))
    reads = [lambda name=name: getattr(p, name) for name in _DERIVED]
    reads += [lambda: modulation(p, [0.5, 0.25]), lambda: chirp(p, [0.5, 0.25])]
    for read in reads * 2:      # a refusal is not cached: the second read raises too
        with pytest.raises(ValueError) as exc:
            read()
        assert str(exc.value) == "B is numerically singular; this operation needs B^{-1}"
