"""Eigenvalues via characteristic polynomial root finding, validated by the
two power-sum identities sum(lambda) = tr A and sum(lambda^2) = tr(A^2).

Validation is by moments rather than residual vectors: the pipeline produces
roots, not eigenvectors, and the downstream geometry consumes exactly these
two power sums.  A failed moment check is a hard error because an unreliable
spectrum must never reach the containment verdict.  Scale is chosen in
`cli`, which passes the matrix at unit scale and keeps the answer there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrix
from .numerics import NonFinite, find_roots

DEFAULT_MOMENT_TOL = 1e-8


class MomentMismatch(RuntimeError):
    """Computed eigenvalues fail the trace / q_form consistency identities."""

    def __init__(self, message: str, sum_residual: float, q_residual: float, tol: float):
        super().__init__(message)
        self.sum_residual = sum_residual
        self.q_residual = q_residual
        self.tol = tol


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset (lexicographically sorted) with validation residuals."""

    values: tuple[complex, ...]
    sum_residual: float
    q_residual: float


def moment(values, k: int) -> complex:
    """Power sum sum(v**k) for k in {1, 2}."""
    if k not in (1, 2):
        raise ValueError(f"unsupported moment order {k}")
    return complex(sum(complex(v) ** k for v in values))


def moment_tol(a: np.ndarray, tol: float = DEFAULT_MOMENT_TOL) -> float:
    """tol*(1 + ||A||_F)^2 of the matrix as given.  The pipeline gives it A0
    at its own unit scale, where the limit is relative to the scale of A0."""
    with np.errstate(over="ignore"):
        f = float(np.linalg.norm(a))
    if f == math.inf:  # numpy's sum of squares overflows first; hypot does not
        f = math.hypot(*np.abs(a).ravel())
    try:
        return tol * (1.0 + f) ** 2
    except OverflowError:  # f is far above 2^53 here, so 1 + f == f
        return tol * f * f


def eigenvalues(a: np.ndarray) -> Spectrum:
    """All eigenvalues of a, counted by multiplicity, sorted by (re, im).

    The matrix is divided by ||A||_F / sqrt(n) (np.linalg.norm) before the
    characteristic polynomial is formed, and the roots multiplied back.
    Fujiwara's start circle scales with the coefficients, so this no longer
    places it; it bounds the mean square eigenvalue modulus by 1 (Schur's
    inequality), hence |c_{n-k}| <= C(n, k), and lowers the prescribed_n8
    golden's eigenvalue error from 0.59 to 0.33 eps*||A||_F.
    It expects its matrix at unit scale: `cli` puts A0 there
    (`matrix.power_of_two_scale`), where neither the norm nor either step
    can overflow or underflow; far from unit scale the result may be
    NonFinite.  The zero matrix gets its exact spectrum of n zeros without
    a solve.  Raises MomentMismatch when the power sums disagree with tr A
    or tr(A^2) beyond moment_tol(a), NonFinite when an eigenvalue or a
    moment residual leaves the float range, and propagates NonConvergence
    from the root finder.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 1:
        lam = complex(a[0, 0])
        return Spectrum(values=(lam,), sum_residual=0.0, q_residual=0.0)

    if not a.any():
        return Spectrum(values=(0j,) * n, sum_residual=0.0, q_residual=0.0)

    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends in NonFinite or NonConvergence
        scale = float(np.linalg.norm(a)) / math.sqrt(n)
        roots = find_roots(matrix.char_poly(a / scale))
    lams = tuple(sorted((scale * r for r in roots), key=lambda z: (z.real, z.imag)))

    limit = moment_tol(a)
    try:
        sum_residual = abs(moment(lams, 1) - complex(np.trace(a)))
        q_residual = abs(moment(lams, 2) - matrix.q_form(a))
    except OverflowError as exc:  # a power sum left the float range
        raise NonFinite(f"eigenvalue power sum overflows: {exc}") from None
    # a NaN residual would pass the comparison below
    if not (math.isfinite(sum_residual) and math.isfinite(q_residual)):
        raise NonFinite(f"non-finite moment residuals ({sum_residual}, {q_residual})")
    if sum_residual > limit or q_residual > limit:
        raise MomentMismatch(
            f"moment residuals ({sum_residual:.3e}, {q_residual:.3e}) exceed {limit:.3e}",
            sum_residual,
            q_residual,
            limit,
        )
    return Spectrum(values=lams, sum_residual=sum_residual, q_residual=q_residual)
