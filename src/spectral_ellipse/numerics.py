"""Complex scalar conventions and an Aberth-Ehrlich polynomial root finder.

All routines are pure functions of their inputs and never admit NaN/Inf.
The square-root branch fixed here (argument in (-pi/2, pi/2]) is the one
convention every downstream phase computation relies on.  The root finder
starts on Fujiwara's circle, which encloses every root (Fujiwara, Tohoku
Math. J. 10, 1916) and exceeds the largest root's modulus by at most a
factor 2n, so the first evaluation stays finite for long polynomials with
large coefficients; the start radius sets the sweep count (Bini, Numer.
Algorithms 13, 1996).  Each sweep evaluates its iterate once and moves
every root by the full Aberth correction; a phase stops once every residual
is at its noise floor, and the residual check runs only on a polish that
ran out of sweeps.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

_EPS = float(np.finfo(float).eps)

# irrational angle increment applied to the initial root circle; breaks the
# real-axis symmetry that can trap simultaneous iterations
_GOLDEN_ANGLE = 2.0 * math.pi * (1.0 - 1.0 / ((1.0 + math.sqrt(5.0)) / 2.0))

DEFAULT_ROOT_TOL = 1e-13
DEFAULT_MAX_ITER = 200


class NonConvergence(RuntimeError):
    """Root iteration did not meet its residual targets within its sweep budget."""

    def __init__(self, message: str, residuals: tuple[float, ...]):
        super().__init__(message)
        self.residuals = residuals


class NonFinite(ValueError):
    """A scalar overflowed to inf or NaN, typically from an input near the
    float range."""


def principal_sqrt(z: complex) -> complex:
    """Square root with argument in (-pi/2, pi/2]; maps -1 to +1j, 0 to 0.

    A negative real input always lands on the +i side regardless of the
    sign of its (zero) imaginary part.  Raises NonFinite on inf or NaN.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonFinite(f"non-finite complex scalar: {z!r}")
    if z.imag == 0.0:
        z = complex(z.real, 0.0)  # collapse -0.0 so the branch cut is one-sided
    w = cmath.sqrt(z)
    # for z.real < 0 and a tiny z.imag < 0 the positive real part underflows to 0
    return complex(math.ulp(0.0), w.imag) if w.real == 0.0 and w.imag < 0.0 else w


def _horner_all(coeffs: np.ndarray, z: np.ndarray):
    """Vectorized p(z), p'(z), and the raw running magnitude bound whose
    product with machine epsilon is the plain-evaluation noise floor."""
    b = np.full_like(z, coeffs[-1])
    d = np.zeros_like(z)
    bound = np.abs(b)
    az = np.abs(z)
    for k in range(len(coeffs) - 2, -1, -1):
        d = d * z + b
        b = b * z + coeffs[k]
        bound = bound * az + np.abs(b)
    return b, d, bound


_SPLITTER = 134217729.0  # 2**27 + 1, Dekker split for error-free products


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    ca = _SPLITTER * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLITTER * b
    bh = cb - (cb - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _comp_horner_all(coeffs: np.ndarray, z: np.ndarray):
    """Compensated complex Horner: p(z) accurate to ~eps*|p| + eps^2*bound,
    plain p'(z), and the same raw magnitude bound as `_horner_all`.

    Plain evaluation cannot resolve |p| below eps*bound, which caps how well
    clustered roots can be located and lets their power sums drift off the
    coefficients.  Error-free transformations push that floor to second
    order, so the endgame can park iterates on the computed polynomial's
    exact roots and the returned multiset keeps Newton-identity accuracy.
    """
    zr = z.real
    zi = z.imag
    az = np.abs(z)
    br = np.full_like(zr, coeffs[-1].real)
    bi = np.full_like(zi, coeffs[-1].imag)
    er = np.zeros_like(zr)
    ei = np.zeros_like(zi)
    dr = np.zeros_like(zr)
    di = np.zeros_like(zi)
    bound = np.hypot(br, bi)
    for k in range(len(coeffs) - 2, -1, -1):
        dr, di = dr * zr - di * zi + br, dr * zi + di * zr + bi
        p1, e1 = _two_prod(br, zr)
        p2, e2 = _two_prod(bi, zi)
        p3, e3 = _two_prod(br, zi)
        p4, e4 = _two_prod(bi, zr)
        rr, e5 = _two_sum(p1, -p2)
        ri, e6 = _two_sum(p3, p4)
        br_new, e7 = _two_sum(rr, coeffs[k].real)
        bi_new, e8 = _two_sum(ri, coeffs[k].imag)
        er, ei = (
            er * zr - ei * zi + (e1 - e2 + e5 + e7),
            er * zi + ei * zr + (e3 + e4 + e6 + e8),
        )
        br, bi = br_new, bi_new
        bound = bound * az + np.hypot(br, bi)
    return (br + er) + 1j * (bi + ei), dr + 1j * di, bound


def _noise_floor(z, dpz, bound, compensated):
    """The residual under which |p(z)| cannot be certified smaller:
    evaluation noise plus position quantization (moving z by one ulp already
    changes p by |p'| * eps * |z|)."""
    eval_noise = (4.0 * len(z) * len(z) * _EPS * _EPS) if compensated else (8.0 * _EPS)
    return eval_noise * bound + np.abs(dpz) * (_EPS * np.abs(z))


def _sweep_phase(coeffs, z, compensated):
    """Aberth-Ehrlich sweeps with one evaluation flavor, up to
    DEFAULT_MAX_ITER of them.

    Stops as soon as every residual sits at its noise floor; only that
    settled multiset reproduces the coefficients' power sums (the downstream
    moment checks) to rounding accuracy.  The tol sleeve plays no part here:
    near-zero coefficients can leave |p| under it across whole regions, and
    stopping there would return junk positions whose power sums drift off
    the coefficients.

    Each sweep evaluates its iterate once and moves every root by the full
    Aberth correction.  Returns the final iterate and whether it settled.
    """
    evaluate_all = _comp_horner_all if compensated else _horner_all
    for _ in range(DEFAULT_MAX_ITER):
        pz, dpz, bound = evaluate_all(coeffs, z)
        if bool(np.all(np.abs(pz) <= _noise_floor(z, dpz, bound, compensated))):
            return z, True

        # Newton correction, with a deterministic nudge where p' vanishes
        safe_dpz = np.where(dpz != 0, dpz, 1.0)
        w = np.where(dpz != 0, pz / safe_dpz, (0.1 + 0.1j) * (1.0 + np.abs(z)))
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)  # 1/inf = 0: a root does not repel itself
        collided = diff == 0
        if bool(np.any(collided)):  # nudges of opposite sign below and above the diagonal split equal iterates
            sign = 2.0 * np.tri(len(z)) - 1.0
            diff = np.where(collided, sign * (_EPS * (1.0 + np.abs(z)))[:, None], diff)
        repulsion = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * repulsion
        z = z - np.where(denom != 0, w / np.where(denom != 0, denom, 1.0), w)
    return z, False


def find_roots(coeffs: np.ndarray) -> tuple[complex, ...]:
    """All roots of the polynomial with ascending coefficients `coeffs`, by
    simultaneous (Aberth-Ehrlich) iteration.

    The coefficients must be a 1-D array of degree >= 1 with a nonzero
    leading coefficient (ValueError otherwise), all finite (NonFinite).  The
    iterates start on Fujiwara's circle of the monic coefficients, radius
    2·max(|c_{n-1}|, |c_{n-2}|^(1/2), ..., |c_1|^(1/(n-1)), |c_0/2|^(1/n)),
    which encloses every root; for p = z^n it has radius 0 and the roots
    come back as n exact zeros.  Two phases share the same sweep: plain
    Horner arithmetic brings the iterates in from that circle, then a
    compensated-evaluation endgame polishes them below the plain noise floor
    so that multiple roots return as tight clusters whose power sums match
    the coefficients.  Each phase stops once every residual is at its noise
    floor.  Returns exactly degree values sorted lexicographically by
    (re, im); multiple roots are never merged.  A polish that runs out of
    sweeps must leave each r with |p(r)| <= DEFAULT_ROOT_TOL*(1 + max|c_k|)
    or at the compensated floor, else NonConvergence.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size < 2:
        raise ValueError(f"root finding needs a 1-D array of degree >= 1, got shape {coeffs.shape}")
    if not (np.isfinite(coeffs.real).all() and np.isfinite(coeffs.imag).all()):
        raise NonFinite("coefficients must be finite")
    lead = coeffs[-1]
    if lead == 0:
        raise ValueError("leading coefficient is zero")
    if lead != 1:
        # dividing by an exact 1 could still flip the sign of a zero
        coeffs = np.append(coeffs[:-1] / lead, 1.0 + 0.0j)
    deg = len(coeffs) - 1
    if deg == 1:
        return (complex(-coeffs[0]),)

    k = np.arange(deg)
    mags = np.abs(coeffs[:-1])
    mags[0] /= 2.0
    radius = 2.0 * float(np.max(mags ** (1.0 / (deg - k))))
    z = radius * np.exp(1j * (2.0 * math.pi * k / deg + _GOLDEN_ANGLE * k))

    z, _ = _sweep_phase(coeffs, z, compensated=False)
    z, settled = _sweep_phase(coeffs, z, compensated=True)
    if not settled:
        pz, dpz, bound = _comp_horner_all(coeffs, z)
        res = np.abs(pz)
        limit = DEFAULT_ROOT_TOL * (1.0 + float(np.max(np.abs(coeffs))))
        if not bool(np.all((res <= limit) | (res <= _noise_floor(z, dpz, bound, True)))):
            raise NonConvergence(
                f"residuals not below {limit:.3e} after up to {DEFAULT_MAX_ITER} plain and "
                f"{DEFAULT_MAX_ITER} polishing sweeps "
                f"(worst {float(res.max()):.3e})",
                tuple(float(r) for r in res),
            )

    order = np.lexsort((z.imag, z.real))
    return tuple(complex(v) for v in z[order])
