"""Deterministic, seeded matrix generators for property testing.

Randomness comes from a counter-based generator: output i of stream `seed`
is the SplitMix64 finalizer applied to seed + (i+1)*0x9E3779B97F4A7C15, a
pure function of (seed, i) with no hidden state, so every generated matrix
is reproducible bit-for-bit from its EnsembleSpec alone (golden test vectors
live in the test suite).  Gaussians come from Box-Muller on two counter
draws; the sine partner is discarded so each normal costs exactly two
draws.

Draw order per kind is fixed: spectrum-defining draws first (so
`reference_spectrum` can replay them), then the scrambling transform's
entries, row-major, real part before imaginary part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrix

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

KINDS = (
    "Ginibre",
    "RealGaussian",
    "Nilpotent",
    "PrescribedSpectrum",
    "RemarkExtremal",
    "QZero",
)

TRANSFORM_CONDITION_CAP = 50.0
MAX_TRANSFORM_DRAWS = 1000
_TRANSFORM_SPREAD = 0.3


class UnsupportedDimension(ValueError):
    """Requested ensemble kind cannot be built at this dimension."""


def counter_value(seed: int, index: int) -> int:
    """Output `index` of stream `seed`: a 64-bit value, pure in (seed, index)."""
    z = (seed + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class CounterRng:
    """Sequential view over one counter stream."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.index = 0

    def next_u64(self) -> int:
        v = counter_value(self.seed, self.index)
        self.index += 1
        return v

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0**-53  # in [0, 1)
        return lo + (hi - lo) * u

    def normal(self) -> float:
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53  # in (0, 1]
        u2 = (self.next_u64() >> 11) * 2.0**-53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str
    n: int
    seed: int


def _complex_normal(rng: CounterRng) -> complex:
    return complex(rng.normal(), rng.normal())


def _sample_transform(rng: CounterRng, n: int) -> np.ndarray:
    """Random well-conditioned transform I + 0.3*G, resampled until the
    Frobenius condition estimate ||T||_F * ||T^-1||_F stays within the cap,
    which grows with n above n = 32 as the estimate does (like 1.1 n).
    UnsupportedDimension after MAX_TRANSFORM_DRAWS rejected draws."""
    scale = 1.0 / math.sqrt(2.0 * n)
    cap = TRANSFORM_CONDITION_CAP * max(1.0, n / 32)
    for _ in range(MAX_TRANSFORM_DRAWS):
        g = np.array(
            [[_complex_normal(rng) for _ in range(n)] for _ in range(n)], dtype=complex
        )
        t = matrix.identity(n) + _TRANSFORM_SPREAD * scale * g
        try:
            cond = matrix.condition_estimate(t)
        except matrix.SingularTransform:
            continue
        if cond <= cap:
            return t
    raise UnsupportedDimension(
        f"no transform with condition estimate <= {cap:g} in {MAX_TRANSFORM_DRAWS} draws at n = {n}"
    )


def _scramble(diag_values, rng: CounterRng) -> np.ndarray:
    n = len(diag_values)
    d = np.diag(np.asarray(diag_values, dtype=complex))
    t = _sample_transform(rng, n)
    return matrix.similarity(d, t)


def _prescribed_values(rng: CounterRng, n: int) -> tuple[complex, ...]:
    return tuple(complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n))


def _qzero_values(rng: CounterRng, n: int) -> tuple[complex, ...]:
    """Fourth-roots-of-unity blocks (block 0 unrotated, later blocks at a
    sampled phase) padded with zeros: both power sums vanish exactly."""
    blocks = n // 4
    values: list[complex] = []
    for b in range(blocks):
        theta = 0.0 if b == 0 else rng.uniform(0.0, 2.0 * math.pi)
        w = complex(math.cos(theta), math.sin(theta)) if b else 1.0 + 0.0j
        values.extend((w, w * 1j, -w, -w * 1j))
    values.extend([0.0 + 0.0j] * (n - 4 * blocks))
    return tuple(values)


def _remark_values(n: int) -> tuple[complex, ...]:
    return tuple([-1.0 + 0.0j] * (n - 1) + [complex(n - 1)])


def generate(spec: EnsembleSpec) -> np.ndarray:
    """Build the matrix for spec; identical spec gives a bit-identical matrix."""
    if spec.kind not in KINDS:
        raise ValueError(f"unknown ensemble kind {spec.kind!r}")
    n = spec.n
    if n < 1:
        raise UnsupportedDimension(f"dimension must be >= 1, got {n}")
    if spec.kind in ("RemarkExtremal", "QZero") and n < 2:
        raise UnsupportedDimension(f"{spec.kind} needs n >= 2, got {n}")
    rng = CounterRng(spec.seed)

    if spec.kind == "Ginibre":
        scale = 1.0 / math.sqrt(2.0 * n)
        a = np.array(
            [[scale * _complex_normal(rng) for _ in range(n)] for _ in range(n)],
            dtype=complex,
        )
    elif spec.kind == "RealGaussian":
        scale = 1.0 / math.sqrt(n)
        a = np.array(
            [[scale * rng.normal() for _ in range(n)] for _ in range(n)], dtype=complex
        )
    elif spec.kind == "Nilpotent":
        scale = 1.0 / math.sqrt(2.0 * n)
        a = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(i + 1, n):
                a[i, j] = scale * _complex_normal(rng)
        if n > 1:
            a = np.asarray(matrix.similarity(a, _sample_transform(rng, n)))
    elif spec.kind == "PrescribedSpectrum":
        a = _scramble(_prescribed_values(rng, n), rng)
    elif spec.kind == "RemarkExtremal":
        a = _scramble(_remark_values(n), rng)
    else:  # QZero
        a = _scramble(_qzero_values(rng, n), rng)

    a = np.array(a)
    a.flags.writeable = False
    return a


def reference_spectrum(spec: EnsembleSpec) -> tuple[complex, ...] | None:
    """The exact intended spectrum, or None when it is unknown (Gaussian kinds).

    Replays the spectrum-defining prefix of the draw stream, so it never
    needs the generated matrix.
    """
    if spec.kind not in KINDS:
        raise ValueError(f"unknown ensemble kind {spec.kind!r}")
    if spec.kind in ("Ginibre", "RealGaussian"):
        return None
    if spec.kind == "Nilpotent":
        return tuple([0.0 + 0.0j] * spec.n)
    if spec.kind == "RemarkExtremal":
        return _remark_values(spec.n)
    rng = CounterRng(spec.seed)
    if spec.kind == "PrescribedSpectrum":
        return _prescribed_values(rng, spec.n)
    return _qzero_values(rng, spec.n)
