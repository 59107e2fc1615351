"""Dense complex matrices: the trace quadratic form, traceless decomposition,
LAPACK similarity transforms, and the Faddeev-LeVerrier characteristic polynomial.

Matrices are square numpy complex128 arrays; `as_matrix` is the validating
entry point for externally supplied data.  It takes over a C-ordered complex
argument and freezes it in place; every other operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def as_matrix(entries) -> np.ndarray:
    """Validate and freeze a square complex matrix from any array-like.

    Anything but a C-ordered complex array is copied into a new one.  A
    C-ordered complex argument is taken over, not copied: it is made
    read-only and returned, and the caller must not write to it again, nor
    to any array whose data it views."""
    a = np.asarray(entries, dtype=complex, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    a.flags.writeable = False
    return a


def power_of_two_scale(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(A * 2^-e, e) with e = frexp(m)[1] for the largest real or imaginary
    part m, so the largest part of A * 2^-e lies in [1/2, 1); e = 0 for the
    zero matrix.

    Wherever the values involved stay normal floats, scaling by a power of
    two is exact and commutes with every rounding in later sums, products,
    quotients and square roots: a quantity computed from A * 2^-e and scaled
    back by ldexp has the bits of the same quantity computed from A (the
    safe scaling of Anderson, "Safe scaling in the Level 1 BLAS", ACM TOMS
    2017).  2^-e is applied in two factors because it overflows as one float
    for subnormal m.
    """
    m = float(max(np.max(np.abs(a.real)), np.max(np.abs(a.imag))))
    e = math.frexp(m)[1]
    half = -e // 2
    return a * math.ldexp(1.0, half) * math.ldexp(1.0, -e - half), e


def q_form(a: np.ndarray) -> complex:
    """tr(A^2), evaluated as sum_ij A_ij A_ji without forming the product."""
    return complex(np.einsum("ij,ji->", a, a))


@dataclass(frozen=True)
class Decomposition:
    """Split A = gamma*1 + A0 with tr(A0) = 0, plus the q values tied by
    q_total = n*gamma^2 + q_traceless."""

    gamma: complex
    traceless_part: np.ndarray
    q_total: complex
    q_traceless: complex
    n: int


def decompose(a: np.ndarray) -> Decomposition:
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    gamma = complex(np.trace(a)) / n
    # A - gamma * I with the bits of a - gamma * eye(n), signed zeros too:
    # gamma * 0 off the diagonal and gamma * 1 on it, without the n x n eye
    off, on = gamma * np.array([0j, 1 + 0j])
    a0 = a - off
    np.fill_diagonal(a0, np.diagonal(a) - on)
    a0.flags.writeable = False
    return Decomposition(
        gamma=gamma,
        traceless_part=a0,
        q_total=q_form(a),
        q_traceless=q_form(a0),
        n=n,
    )


def condition_estimate(t: np.ndarray) -> float:
    """||T||_F * ||T^-1||_F by LAPACK at unit scale, where no norm overflows; inf for a singular T."""
    return float(np.linalg.cond(power_of_two_scale(t)[0], "fro"))


def similarity(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """T^-1 A T by a LAPACK solve of T X = A T.  T must come from the
    ensembles' transform sampler, which caps its condition estimate at
    50 * max(1, n/32); no second check is made here."""
    a = np.asarray(a, dtype=complex)
    t = np.asarray(t, dtype=complex)
    if a.shape != t.shape:
        raise ValueError("matrix and transform must have matching shape")
    x = np.linalg.solve(t, a @ t)
    x.flags.writeable = False
    return x


def char_poly(a: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial by the Faddeev-LeVerrier recursion,
    coefficients in ascending degree order."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    m = eye.copy()
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    for k in range(1, n + 1):
        prod = a @ m
        c = -np.trace(prod) / k
        coeffs[n - k] = c
        if k < n:
            m = prod + c * eye
    return coeffs
