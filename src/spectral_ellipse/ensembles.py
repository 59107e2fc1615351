"""Deterministic, seeded matrix generators for property testing.

Randomness comes from a counter-based generator: output i of stream `seed`
is the SplitMix64 finalizer applied to seed + (i+1)*0x9E3779B97F4A7C15, a
pure function of (seed, i) with no hidden state, so every generated matrix
is reproducible bit-for-bit from its EnsembleSpec alone (golden test vectors
live in the test suite).  Because no output depends on another, a run of
consecutive outputs is computed at once over a uint64 index array (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).  Gaussians
come from Box-Muller on two consecutive draws; the sine partner is
discarded so each normal costs exactly two draws.  The logarithm and cosine
are libm's `math.log` and `math.cos`, taken element by element: numpy's
vectorized versions differ from them in the last bit on some inputs, and
the matrices must not depend on the numpy build.

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
# SplitMix64's increment and finalizer multipliers, as uint64 so the array
# path does not convert them on each call
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO_PI = 2.0 * math.pi
_NORMAL_BLOCK = 1 << 15  # normals per Box-Muller pass, which bounds its temporaries

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
    z = (seed + (index + 1) * int(_GAMMA)) & _MASK64
    z = ((z ^ (z >> 30)) * int(_MIX1)) & _MASK64
    z = ((z ^ (z >> 27)) * int(_MIX2)) & _MASK64
    return z ^ (z >> 31)


def counter_values(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start .. start+count-1 of stream `seed` as a uint64 array:
    `counter_value` element by element, in numpy's wrapping uint64 arithmetic."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _GAMMA
    z += seed & _MASK64
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


class CounterRng:
    """Sequential view over one counter stream: each call consumes the next
    outputs, starting at `index`."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.index = 0

    def draws(self, count: int) -> np.ndarray:
        z = counter_values(self.seed, self.index, count)
        self.index += count
        return z

    def uniforms(self, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        u = (self.draws(count) >> 11) * 2.0**-53  # in [0, 1)
        return lo + (hi - lo) * u

    def normals(self, count: int) -> np.ndarray:
        """Box-Muller, one normal per two draws, _NORMAL_BLOCK normals at a time."""
        out = np.empty(count)
        for start in range(0, count, _NORMAL_BLOCK):
            v = self.draws(2 * min(_NORMAL_BLOCK, count - start)) >> 11
            u1 = (v[0::2] + 1) * 2.0**-53  # in (0, 1]
            u2 = v[1::2] * 2.0**-53
            m = len(u1)
            log_u1 = np.fromiter(map(math.log, u1.tolist()), float, m)
            cos_u2 = np.fromiter(map(math.cos, (_TWO_PI * u2).tolist()), float, m)
            np.multiply(np.sqrt(-2.0 * log_u1), cos_u2, out=out[start : start + m])
        return out


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str
    n: int
    seed: int


def _complex_normals(rng: CounterRng, count: int, scale: float) -> np.ndarray:
    """count complex normals times scale, each real part drawn before its
    imaginary part."""
    z = rng.normals(2 * count)
    z *= scale
    return z.view(complex)


def _sample_transform(rng: CounterRng, n: int) -> np.ndarray:
    """Random well-conditioned transform I + 0.3*G, resampled until the
    Frobenius condition estimate ||T||_F * ||T^-1||_F stays within the cap,
    which grows with n above n = 32 as the estimate does (like 1.1 n).
    UnsupportedDimension after MAX_TRANSFORM_DRAWS rejected draws."""
    scale = 1.0 / math.sqrt(2.0 * n)
    cap = TRANSFORM_CONDITION_CAP * max(1.0, n / 32)
    for _ in range(MAX_TRANSFORM_DRAWS):
        g = _complex_normals(rng, n * n, _TRANSFORM_SPREAD * scale).reshape(n, n)
        t = matrix.identity(n) + g
        if matrix.condition_estimate(t) <= cap:  # inf for a singular T
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
    return tuple(rng.uniforms(2 * n, -1.0, 1.0).view(complex).tolist())


def _qzero_values(rng: CounterRng, n: int) -> tuple[complex, ...]:
    """Fourth-roots-of-unity blocks (block 0 unrotated, later blocks at a
    sampled phase) padded with zeros: both power sums vanish exactly."""
    blocks = n // 4
    phases = rng.uniforms(max(blocks - 1, 0), 0.0, _TWO_PI).tolist()
    rotations = [1.0 + 0.0j] + [complex(math.cos(t), math.sin(t)) for t in phases]
    values: list[complex] = []
    for w in rotations[:blocks]:
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
        a = _complex_normals(rng, n * n, scale).reshape(n, n)
    elif spec.kind == "RealGaussian":
        scale = 1.0 / math.sqrt(n)
        a = (scale * rng.normals(n * n)).reshape(n, n).astype(complex)
    elif spec.kind == "Nilpotent":
        scale = 1.0 / math.sqrt(2.0 * n)
        a = np.zeros((n, n), dtype=complex)
        a[np.triu_indices(n, 1)] = _complex_normals(rng, n * (n - 1) // 2, scale)
        if n > 1:
            a = np.asarray(matrix.similarity(a, _sample_transform(rng, n)))
    elif spec.kind == "PrescribedSpectrum":
        a = _scramble(_prescribed_values(rng, n), rng)
    elif spec.kind == "RemarkExtremal":
        a = _scramble(_remark_values(n), rng)
    else:  # QZero
        a = _scramble(_qzero_values(rng, n), rng)

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
