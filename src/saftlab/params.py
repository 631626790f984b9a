"""Parameter blocks (A, B, C, D | P, Q) for the affine-Fourier family.

A parameter block is valid when

* ``A B^T`` and ``C D^T`` are symmetric,
* ``A D^T - B C^T = I``,
* ``B`` is non-singular.

The first three say the matrix ``[[A, B], [C, D]]`` is symplectic; everything
downstream (inversion, convolution theorems, sampling identities) relies on
them.  Offsets ``P`` (input side) and ``Q`` (output side) are free vectors.

Two unit-modulus scalar fields derived from a block appear throughout:

* `chirp`: ``exp(i*pi * t^T B^{-1}A t)``, the input-side quadratic phase;
* `modulation`: ``exp(i*pi * w^T D B^{-1} w + 2i*pi (Q^T - P^T D B^{-1}) w)``,
  the output-side quadratic/linear phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SaftParams",
    "ValidityReport",
    "validate",
    "require_valid",
    "preset",
    "inverse_params",
    "chirp",
    "modulation",
    "random_params",
]

#: default tolerance for the symplectic constraint residuals (inputs may come
#: from text files with rounded entries)
DEFAULT_CONSTRAINT_TOL = 1e-10

#: |det B| below this times ||B||^n counts as singular
SINGULARITY_RTOL = 1e-12


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _floats(x, name: str) -> np.ndarray:
    """`x` as a float array; an entry that is not a finite number is refused by `name`."""
    try:
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError):     # a JSON object, a string, a ragged list
        raise ValueError(f"{name} has an entry that is not a number") from None
    except OverflowError:               # an int past the float range, as 1e400 is inf
        raise ValueError(f"{name} has a non-finite entry") from None
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has a non-finite entry")
    return a


def _as_matrix(x, n: int, name: str) -> np.ndarray:
    m = _floats(x, name)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.shape != (n, n):
        raise ValueError(f"{name} must be {n}x{n}, got shape {m.shape}")
    return m


def _as_offset(x, n: int, name: str) -> np.ndarray:
    v = _floats(x, name).reshape(-1)
    if v.size == 1 and n > 1 and np.all(v == 0):
        v = np.zeros(n)
    if v.shape != (n,):
        raise ValueError(f"{name} must be a length-{n} vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class SaftParams:
    """Immutable parameter block; ``B^{-1}`` and the matrices derived from it
    are formed on first read, read-only.

    Construction only enforces structural consistency (shapes).  Constraint
    residuals are computed and stored so `validate` can report them; if ``B``
    is numerically singular, reading ``B^{-1}`` or anything formed from it
    raises ValueError.
    """

    n: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    P: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        n = int(self.n)
        if n <= 0:
            raise ValueError("dimension n must be a positive integer")
        object.__setattr__(self, "n", n)
        for name in "ABCD":
            object.__setattr__(self, name, _as_matrix(getattr(self, name), n, name))
        for name in "PQ":
            object.__setattr__(self, name, _as_offset(getattr(self, name), n, name))
        for name in "ABCDPQ":
            _read_only(getattr(self, name))

        A, B, C, D = self.A, self.B, self.C, self.D
        det_b = float(np.linalg.det(B))
        norm_b = float(np.linalg.norm(B, ord=2)) if np.any(B) else 0.0
        # floor applied after the power so an all-zero B cannot underflow
        # the threshold to 0 and slip past the guard
        singular = abs(det_b) < SINGULARITY_RTOL * max(norm_b**n, 1e-300)
        object.__setattr__(self, "abs_det_b", abs(det_b))
        object.__setattr__(self, "_b_singular", bool(singular))
        residuals = {
            "ab_symmetry": float(np.max(np.abs(A @ B.T - B @ A.T))),
            "cd_symmetry": float(np.max(np.abs(C @ D.T - D @ C.T))),
            "symplectic_identity": float(np.max(np.abs(A @ D.T - B @ C.T - np.eye(n)))),
        }
        object.__setattr__(self, "_residuals", residuals)

    @cached_property
    def b_inv(self) -> np.ndarray:
        """``B^{-1}``; every derived matrix is formed from it, so a
        numerically singular B raises here alone."""
        if self._b_singular:
            raise ValueError("B is numerically singular; this operation needs B^{-1}")
        return _read_only(np.linalg.inv(self.B))

    @cached_property
    def b_inv_a(self) -> np.ndarray:
        """``B^{-1} A``, symmetric for valid blocks."""
        return _read_only(self.b_inv @ self.A)

    @cached_property
    def d_b_inv(self) -> np.ndarray:
        return _read_only(self.D @ self.b_inv)

    @cached_property
    def b_inv_p(self) -> np.ndarray:
        return _read_only(self.b_inv @ self.P)

    @cached_property
    def _mod_lin(self) -> np.ndarray:
        """The modulation phase's linear coefficient ``Q - (D B^{-1})^T P``."""
        return _read_only(self.Q - self.d_b_inv.T @ self.P)

    def is_chirp_free(self, tol: float = 0.0) -> bool:
        """True when the input-side quadratic phase vanishes (A == 0)."""
        return float(np.max(np.abs(self.A))) <= tol

    def is_plain_fourier(self) -> bool:
        """True for the plain Fourier block: A = D = 0, B = I, zero offsets
        (each to 1e-12)."""
        return bool(
            self.is_chirp_free(1e-12)
            and float(np.max(np.abs(self.D))) <= 1e-12
            and np.allclose(self.B, np.eye(self.n), atol=1e-12)
            and float(np.max(np.abs(self.P))) <= 1e-12
            and float(np.max(np.abs(self.Q))) <= 1e-12
        )

    def __repr__(self):  # compact; the matrices are small
        with np.printoptions(precision=4, suppress=True):
            return (
                f"SaftParams(n={self.n}, A={self.A.tolist()}, B={self.B.tolist()}, "
                f"C={self.C.tolist()}, D={self.D.tolist()}, P={self.P.tolist()}, Q={self.Q.tolist()})"
            )


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    residuals: dict
    b_singular: bool
    tol: float

    def __str__(self):
        lines = [f"valid: {self.ok} (tol {self.tol:g})"]
        for k, v in self.residuals.items():
            lines.append(f"  {k}: {v:.3e}")
        lines.append(f"  b_singular: {self.b_singular}")
        return "\n".join(lines)


def validate(p: SaftParams, tol: float = DEFAULT_CONSTRAINT_TOL) -> ValidityReport:
    """Check the symplectic constraints and B's invertibility.

    Structural problems (wrong shapes, non-finite entries) raise at
    construction time and never reach here; this reports constraint
    failures, and a residual that overflowed to NaN fails too.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    bad = p._b_singular or not all(r <= tol for r in p._residuals.values())
    return ValidityReport(ok=not bad, residuals=dict(p._residuals), b_singular=p._b_singular, tol=tol)


def require_valid(p: SaftParams) -> None:
    rep = validate(p)
    if not rep.ok:
        raise ValueError(f"invalid parameter block:\n{rep}")


# ---------------------------------------------------------------------------
# presets


def _dim(a: np.ndarray) -> int:
    """A block matrix's dimension: its first axis, 1 for a scalar."""
    return a.shape[0] if a.ndim else 1


def _vector(kind: str, key: str, value) -> np.ndarray:
    """A per-axis argument as a finite float vector, a scalar as one axis."""
    v = np.atleast_1d(_floats(value, f"preset {kind!r}: {key}"))
    if v.ndim > 1:
        raise ValueError(f"preset {kind!r}: {key} must be a scalar or a vector, "
                         f"got shape {v.shape}")
    return v


def _ft(kwargs, n):
    if n is None:
        raise ValueError("ft preset needs the dimension n")
    Z, I = np.zeros((n, n)), np.eye(n)
    return Z, I, -I, Z


def _fresnel(B: np.ndarray):
    # a diagonal B always passes
    if np.max(np.abs(B - B.T)) > 1e-12:
        raise ValueError("nonseparable fresnel block requires a symmetric B")
    I, Z = np.eye(_dim(B)), np.zeros((_dim(B), _dim(B)))
    return I, B, Z, I


def _cos_sin(v: np.ndarray, cos, sin, sign: float, singular: str):
    """A = D = diag(cos v), B = diag(sin v), C = sign * B, for the circular
    or the hyperbolic cos and sin."""
    if np.any(np.abs(sin(v)) < 1e-12):
        raise ValueError(singular)
    c, s = np.diag(cos(v)), np.diag(sin(v))
    return c, s, sign * s, c


def _full(kwargs, n):
    return _floats(kwargs["A"], "A"), kwargs["B"], kwargs["C"], kwargs["D"]


#: each preset kind: the keyword arguments it reads, and the builder of its
#: blocks (A, B, C, D) from those arguments and the ``n`` given to `preset`;
#: a lower-case argument is per axis (`_vector`), an upper-case one a matrix
_PRESETS = {
    "ft": ((), _ft),
    "lct": (tuple("ABCD"), _full),
    "separable_lct": (tuple("abcd"), lambda kw, n: [np.diag(kw[k]) for k in "abcd"]),
    "separable_frft": (("theta",), lambda kw, n: _cos_sin(
        kw["theta"], np.cos, np.sin, -1.0, "frft angles with sin(theta) = 0 give a singular B")),
    "nonseparable_fresnel": (("B",), lambda kw, n: _fresnel(_floats(kw["B"], "B"))),
    "separable_fresnel": (("b",), lambda kw, n: _fresnel(np.diag(kw["b"]))),
    "separable_lorentz": (("phi",), lambda kw, n: _cos_sin(
        kw["phi"], np.cosh, np.sinh, 1.0, "lorentz rapidity 0 gives a singular B")),
    "custom": (tuple("ABCDPQ"), _full),
}


def _block(kind: str, n: int | None, kwargs: dict) -> SaftParams:
    """`preset` without its validation, which a parameter file's reader leaves to its caller."""
    kind = kind.lower().replace("-", "_")
    if kind not in _PRESETS:
        raise ValueError(f"unknown preset kind {kind!r}")
    keys, build = _PRESETS[kind]
    unread = sorted(set(kwargs) - set(keys))
    if unread:
        raise ValueError(f"preset {kind!r} does not take {', '.join(unread)}")
    if missing := [k for k in keys if k not in kwargs.keys() | {"P", "Q"}]:
        raise ValueError(f"preset {kind!r} needs {', '.join(missing)}")
    A, B, C, D = build({k: _vector(kind, k, v) if k.islower() else v
                        for k, v in kwargs.items()}, n)
    dim = _dim(np.asarray(A, dtype=float))
    p = SaftParams(dim, A, B, C, D, kwargs.get("P", np.zeros(dim)), kwargs.get("Q", np.zeros(dim)))
    if n is not None and n != dim:
        raise ValueError(f"preset {kind!r}: n = {n}, but its arguments give dimension {dim}")
    return p


def preset(kind: str, /, n: int | None = None, **kwargs) -> SaftParams:
    """Construct a named special-case parameter block.

    Kinds (all validated to 1e-12 before returning):

    - ``ft``: A=D=P=Q=0, B=I, C=-I.
    - ``lct``: full matrices A, B, C, D (P=Q=0).
    - ``separable_lct``: per-axis diagonals a, b, c, d (P=Q=0).
    - ``separable_frft``: angles theta_i; A=D=diag(cos), B=-C=diag(sin).
    - ``nonseparable_fresnel``: A=D=I, C=0, B symmetric (a scalar is 1x1).
    - ``separable_fresnel``: A=D=I, C=0, B=diag(b).
    - ``separable_lorentz``: rapidities phi_i; A=D=diag(cosh), B=C=diag(sinh).
    - ``custom``: full A, B, C, D, P, Q.

    The dimension is A's first axis (1 for a scalar A), and offsets not
    given are zero.  A missing argument other than P and Q, a keyword the
    kind does not read or an ``n`` that the arguments contradict raises.  A
    parameter file takes these rules (`io.params_from_dict`), as ``custom``
    when it names no preset, but its caller validates its block.
    """
    p = _block(kind, n, kwargs)
    rep = validate(p, 1e-12)
    if not rep.ok:
        raise ValueError(f"preset {kind!r} arguments give an invalid block:\n{rep}")
    return p


def inverse_params(p: SaftParams) -> SaftParams:
    """Parameter block of the inverse transform.

    ``(A', B', C', D') = (D^T, -B^T, -C^T, A^T)`` with offsets
    ``P' = B^T Q - D^T P`` and ``Q' = C^T P - A^T Q``.  Applying it twice
    returns the original block (an involution on valid blocks).
    """
    require_valid(p)
    return SaftParams(
        p.n,
        p.D.T,
        -p.B.T,
        -p.C.T,
        p.A.T,
        p.B.T @ p.Q - p.D.T @ p.P,
        p.C.T @ p.P - p.A.T @ p.Q,
    )


# ---------------------------------------------------------------------------
# frame conversions and unit-modulus factors


def _fixed_sums(x, m):
    """``x @ m.T`` for points ``x`` (..., n), yielded as one array (...) per row
    of ``m``, output j summed as ``0 + m[j,0] x_0 + m[j,1] x_1 + ...`` in index
    order.  Unlike a BLAS product, a point gets the same bits alone as in any
    batch and no thread pool wakes; integer operands stay exact integers."""
    xs = np.moveaxis(np.asarray(x), -1, 0)
    if len(xs) != np.shape(m)[-1]:
        raise ValueError(f"points must have trailing dimension {np.shape(m)[-1]}")
    for row in m:
        acc = 0
        for c, xi in zip(row, xs):
            acc = acc + c * xi
        yield acc


def _fixed_product(x, m) -> np.ndarray:
    """`_fixed_sums` as one array (..., k) for ``m`` (k, n)."""
    return np.stack(list(_fixed_sums(x, m)), axis=-1)


def _reduced_points(p: SaftParams, w) -> np.ndarray:
    """Reduced frequencies ``nu = B^{-1} w`` of the physical points ``w`` (..., n)."""
    return _fixed_product(w, p.b_inv)


def _physical_points(p: SaftParams, nu) -> np.ndarray:
    """Physical points ``w = B nu`` of the reduced frequencies ``nu`` (..., n)."""
    return _fixed_product(nu, p.B)


def _offset_phase(p: SaftParams, t) -> np.ndarray:
    """The input offset's phase ``t . B^{-1}P`` in turns at the points ``t`` (..., n)."""
    return next(_fixed_sums(t, p.b_inv_p[None, :]))


def _quad_phase(points, m: np.ndarray) -> np.ndarray:
    """``t^T m t`` per point, ``m t`` from `_fixed_sums` and the outer sum in
    index order too, so a point gets the same bits alone as in any batch."""
    pts = np.asarray(points, dtype=float)
    ph = 0.0
    for ti, row in zip(np.moveaxis(pts, -1, 0), _fixed_sums(pts, m)):
        ph = ph + ti * row
    return ph


def chirp(p: SaftParams, t) -> np.ndarray | complex:
    """Input-side quadratic phase ``exp(i*pi * t^T B^{-1}A t)``.

    ``t`` may be a single n-vector or an array of shape (..., n).  The result
    has unit modulus exactly (a purely imaginary exponent is used).
    """
    ph = _quad_phase(t, p.b_inv_a)
    out = np.exp(1j * np.pi * ph)
    return complex(out) if out.ndim == 0 else out


def modulation(p: SaftParams, w) -> np.ndarray | complex:
    """Output-side phase ``exp(i*pi w^T D B^{-1} w + 2i*pi (Q^T - P^T D B^{-1}) w)``,
    both terms summed elementwise in a fixed order (`_fixed_sums`)."""
    w_arr = np.asarray(w, dtype=float)
    quad = _quad_phase(w_arr, p.d_b_inv)
    ph = quad + 2.0 * next(_fixed_sums(w_arr, p._mod_lin[None, :]))
    out = np.exp(1j * np.pi * ph)
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# random valid blocks for tests and the verify CLI


def random_params(n: int, rng: np.random.Generator) -> SaftParams:
    """Draw a random valid parameter block.

    The symplectic part is a product of four elementary symplectic factors
    (free propagation with a symmetric upper block, a thin-lens lower block,
    a per-axis rotation, an axis scaling; symmetric entries uniform in
    [-1, 1]), so the constraints hold by construction.  Draws are rejected
    until ``|det B| >= 0.3`` and the quadratic-phase rates ``||B^{-1}A||``
    and ``||D B^{-1}||`` are at most 2 — bounded rates keep grid-based
    evaluations of the transform well resolved at moderate grid sizes.  The
    offsets P and Q are uniform in [-1, 1].
    """

    def sym(k):
        S = rng.uniform(-1.0, 1.0, (k, k))
        return (S + S.T) / 2.0

    I = np.eye(n)
    Z = np.zeros((n, n))
    for _ in range(256):
        S = np.eye(2 * n)
        for _ in range(4):
            kind = rng.integers(0, 4)
            if kind == 0:       # free propagation
                T = sym(n)
                F = np.block([[I, T], [Z, I]])
            elif kind == 1:     # thin lens
                L = sym(n)
                F = np.block([[I, Z], [L, I]])
            elif kind == 2:     # per-axis rotation
                th = rng.uniform(0.2, np.pi - 0.2, n)
                c, s = np.diag(np.cos(th)), np.diag(np.sin(th))
                F = np.block([[c, s], [-s, c]])
            else:               # axis scaling
                d = np.exp(rng.uniform(-0.4, 0.4, n))
                F = np.block([[np.diag(d), Z], [Z, np.diag(1.0 / d)]])
            S = F @ S
        A, B = S[:n, :n], S[:n, n:]
        C, D = S[n:, :n], S[n:, n:]
        if abs(np.linalg.det(B)) < 0.3:
            continue
        b_inv = np.linalg.inv(B)
        if np.linalg.norm(b_inv @ A, 2) > 2.0 or np.linalg.norm(D @ b_inv, 2) > 2.0:
            continue
        P = rng.uniform(-1, 1, n)
        Q = rng.uniform(-1, 1, n)
        p = SaftParams(n, A, B, C, D, P, Q)
        if validate(p, 1e-9).ok:
            return p
    raise RuntimeError("could not draw a valid parameter block (rate bounds too tight?)")
