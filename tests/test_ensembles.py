import hashlib
import math
import os
import platform
import signal
import subprocess
import sys

import numpy as np
import pytest

from spectral_ellipse.ellipse import ellipse_from_normalized, normalize_mu
from spectral_ellipse import ensembles, matrix
from spectral_ellipse.ensembles import (
    KINDS,
    TRANSFORM_CONDITION_CAP,
    CounterRng,
    EnsembleSpec,
    UnsupportedDimension,
    _sample_transform,
    counter_value,
    counter_values,
    generate,
    reference_spectrum,
)
from spectral_ellipse.matrix import as_matrix, condition_estimate, q_form
from spectral_ellipse.spectrum import eigenvalues

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


class ScalarRng:
    """Reference for CounterRng's array draws: one counter_value per draw
    and one Box-Muller normal at a time, in Python floats."""

    def __init__(self, seed):
        self.seed = seed & (2**64 - 1)
        self.index = 0

    def next_u64(self):
        v = counter_value(self.seed, self.index)
        self.index += 1
        return v

    def uniform(self, lo=0.0, hi=1.0):
        u = (self.next_u64() >> 11) * 2.0**-53  # in [0, 1)
        return lo + (hi - lo) * u

    def normal(self):
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53  # in (0, 1]
        u2 = (self.next_u64() >> 11) * 2.0**-53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def complex_normal(self):
        return complex(self.normal(), self.normal())


def scalar_transform(rng, n):
    """Reference for _sample_transform, drawn entry by entry; the cap, the
    draw limit and the condition estimate are read from the package."""
    scale = 1.0 / math.sqrt(2.0 * n)
    cap = ensembles.TRANSFORM_CONDITION_CAP * max(1.0, n / 32)
    for _ in range(ensembles.MAX_TRANSFORM_DRAWS):
        g = np.array([[rng.complex_normal() for _ in range(n)] for _ in range(n)], dtype=complex)
        t = np.eye(n, dtype=complex) + ensembles._TRANSFORM_SPREAD * scale * g
        if matrix.condition_estimate(t) <= cap:
            return t
    raise UnsupportedDimension(f"no transform in {ensembles.MAX_TRANSFORM_DRAWS} draws at n = {n}")


def scalar_generate(spec):
    """Reference for generate: every draw taken one at a time, in the
    stream order the module docstring fixes."""
    n, rng = spec.n, ScalarRng(spec.seed)
    if spec.kind == "Ginibre":
        scale = 1.0 / math.sqrt(2.0 * n)
        return np.array([[scale * rng.complex_normal() for _ in range(n)] for _ in range(n)], dtype=complex)
    if spec.kind == "RealGaussian":
        scale = 1.0 / math.sqrt(n)
        return np.array([[scale * rng.normal() for _ in range(n)] for _ in range(n)], dtype=complex)
    if spec.kind == "Nilpotent":
        scale = 1.0 / math.sqrt(2.0 * n)
        a = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(i + 1, n):
                a[i, j] = scale * rng.complex_normal()
        return matrix.similarity(a, scalar_transform(rng, n)) if n > 1 else a
    values = scalar_spectrum(spec.kind, n, rng)
    return matrix.similarity(np.diag(np.array(values, dtype=complex)), scalar_transform(rng, n))


def scalar_spectrum(kind, n, rng):
    """Reference for the spectrum-defining draws of the scrambled kinds."""
    if kind == "PrescribedSpectrum":
        return [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n)]
    if kind == "RemarkExtremal":
        return [-1.0 + 0.0j] * (n - 1) + [complex(n - 1)]
    values = []  # QZero
    for b in range(n // 4):
        theta = 0.0 if b == 0 else rng.uniform(0.0, 2.0 * math.pi)
        w = complex(math.cos(theta), math.sin(theta)) if b else 1.0 + 0.0j
        values.extend((w, w * 1j, -w, -w * 1j))
    values.extend([0.0 + 0.0j] * (n - len(values)))
    return values


def greedy_match_distance(found, reference):
    remaining = list(reference)
    worst = 0.0
    for v in found:
        j = min(range(len(remaining)), key=lambda i: abs(v - remaining[i]))
        worst = max(worst, abs(v - remaining[j]))
        remaining.pop(j)
    return worst


class TestCounterRng:
    def test_golden_vectors(self):
        # frozen at first implementation; any change to the generator is a
        # breaking change for every seeded artifact
        assert counter_value(0, 0) == 16294208416658607535
        assert counter_value(42, 7) == 14769051326987775908
        assert counter_value(2**63, 123) == 1572445733666261465

    def test_pure_in_seed_and_index(self):
        assert counter_value(99, 5) == counter_value(99, 5)
        assert counter_value(99, 5) != counter_value(99, 6)
        assert counter_value(99, 5) != counter_value(100, 5)

    def test_array_golden_vectors(self):
        assert counter_values(0, 0, 1).tolist() == [16294208416658607535]
        assert counter_values(42, 7, 1).tolist() == [14769051326987775908]
        assert counter_values(2**63, 123, 1).tolist() == [1572445733666261465]

    def test_array_matches_counter(self):
        for seed in (0, 5, 2**63 + 1, 2**64 - 1):
            for start in (0, 17, 2**40):
                expected = [counter_value(seed, start + i) for i in range(50)]
                assert counter_values(seed, start, 50).tolist() == expected

    def test_sequential_view_matches_counter(self):
        rng = CounterRng(7)
        assert rng.draws(4).tolist() == [counter_value(7, i) for i in range(4)]
        assert rng.draws(3).tolist() == [counter_value(7, i) for i in range(4, 7)]
        assert rng.index == 7

    def test_draws_match_scalar_reference(self):
        rng, ref = CounterRng(19), ScalarRng(19)
        assert rng.uniforms(300, -1.0, 1.0).tolist() == [ref.uniform(-1.0, 1.0) for _ in range(300)]
        # more normals than one Box-Muller block, so the seam between blocks is covered
        count = ensembles._NORMAL_BLOCK + 5
        assert rng.normals(count).tobytes() == np.array([ref.normal() for _ in range(count)]).tobytes()
        assert rng.index == ref.index

    def test_uniform_range(self):
        draws = CounterRng(3).uniforms(2000)
        assert all(0 <= u < 1 for u in draws)
        assert abs(sum(draws) / len(draws) - 0.5) < 0.05

    def test_normal_moments(self):
        draws = CounterRng(11).normals(4000).tolist()
        mean = sum(draws) / len(draws)
        var = sum((d - mean) ** 2 for d in draws) / len(draws)
        assert abs(mean) < 0.1
        assert abs(var - 1) < 0.1


class TestGenerate:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_scalar_reference(self, kind):
        for n in (*range(1, 9), 13, 16, 32, 46, 64):
            for seed in (0, 1, 12345, 2**63 + 5, 2**64 - 1):
                spec = EnsembleSpec(kind, n, seed)
                if kind in ("RemarkExtremal", "QZero") and n < 2:
                    continue
                assert generate(spec).tobytes() == scalar_generate(spec).tobytes(), spec

    def test_large_ginibre_matches_scalar_reference(self):
        spec = EnsembleSpec("Ginibre", 512, 3)
        assert generate(spec).tobytes() == scalar_generate(spec).tobytes()

    def test_bit_identical_for_same_spec(self):
        spec = EnsembleSpec("Ginibre", 6, 12345)
        assert np.array_equal(generate(spec), generate(spec))

    def test_different_seeds_differ(self):
        a = generate(EnsembleSpec("Ginibre", 4, 1))
        b = generate(EnsembleSpec("Ginibre", 4, 2))
        assert not np.array_equal(a, b)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate(EnsembleSpec("Wishart", 4, 1))

    def test_dimension_guards(self):
        with pytest.raises(UnsupportedDimension):
            generate(EnsembleSpec("Ginibre", 0, 1))
        with pytest.raises(UnsupportedDimension):
            generate(EnsembleSpec("RemarkExtremal", 1, 1))
        with pytest.raises(UnsupportedDimension):
            generate(EnsembleSpec("QZero", 1, 1))

    def test_real_gaussian_is_real(self):
        a = generate(EnsembleSpec("RealGaussian", 5, 9))
        assert np.all(a.imag == 0)

    def test_remark_extremal_q_value(self):
        # Q = n(n-1) by construction, up to similarity rounding
        for n in (2, 3, 8, 16):
            a = generate(EnsembleSpec("RemarkExtremal", n, 77))
            assert abs(q_form(a) - n * (n - 1)) <= 1e-9 * (1 + n * (n - 1))
            assert abs(complex(np.trace(a))) <= 1e-9 * n

    def test_nilpotent_q_zero(self):
        for n in (2, 4, 8):
            a = generate(EnsembleSpec("Nilpotent", n, 5))
            assert abs(q_form(a)) <= 1e-9

    def test_qzero_moments_vanish(self):
        for n in (2, 4, 8, 16):
            a = generate(EnsembleSpec("QZero", n, 31))
            assert abs(complex(np.trace(a))) <= 1e-9
            assert abs(q_form(a)) <= 1e-9

    def test_qzero_n4_spectrum_is_fourth_roots(self):
        a = generate(EnsembleSpec("QZero", 4, 8))
        s = eigenvalues(a)
        assert greedy_match_distance(s.values, (1, 1j, -1, -1j)) <= 1e-6 * 2

    def test_ginibre_scale(self):
        # entries (g1 + i g2)/sqrt(2n): Frobenius norm concentrates near sqrt(n)
        a = generate(EnsembleSpec("Ginibre", 16, 21))
        assert 0.5 * 4 < np.linalg.norm(a) < 1.5 * 4


def gaussian_digest() -> str:
    """sha256 over the Ginibre and RealGaussian matrices of n in
    {2, 3, 4, 8, 16, 32} and seeds 0-4, in that order."""
    h = hashlib.sha256()
    for kind in ("Ginibre", "RealGaussian"):
        for n in (2, 3, 4, 8, 16, 32):
            for seed in range(5):
                h.update(generate(EnsembleSpec(kind, n, seed)).tobytes())
    return h.hexdigest()


# Each setting acts only on the child process that reads it.  Haswell and
# SkylakeX kernels are left out: they fault on a CPU without AVX2 or AVX-512.
CPU_SETTINGS = {
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "openblas-nehalem": {"OPENBLAS_CORETYPE": "Nehalem"},
    "numpy-dispatch-x86-v2": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR X86_V3"},
}


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86_64 kernel names")
@pytest.mark.parametrize("setting", sorted(CPU_SETTINGS))
def test_gaussian_kinds_do_not_depend_on_the_cpu_kernel(setting):
    # The unscrambled kinds are libm and elementwise numpy arithmetic only, so
    # a child on another OpenBLAS kernel or numpy dispatch level draws the
    # same bytes.  The scrambled kinds go through `matrix.similarity`, whose
    # bits follow the kernel; whether they differ depends on this host's own.
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env.update(CPU_SETTINGS[setting], PYTHONPATH=os.pathsep.join((SRC, TESTS)))
    proc = subprocess.run(
        [sys.executable, "-c", "from test_ensembles import gaussian_digest; print(gaussian_digest())"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == gaussian_digest() + "\n"


class TestReferenceSpectrum:
    def test_remark(self):
        assert reference_spectrum(EnsembleSpec("RemarkExtremal", 3, 0)) == (-1, -1, 2)

    def test_nilpotent(self):
        assert reference_spectrum(EnsembleSpec("Nilpotent", 5, 0)) == (0, 0, 0, 0, 0)

    def test_replay_matches_scalar_reference(self):
        for kind in ("PrescribedSpectrum", "RemarkExtremal", "QZero"):
            for n in (2, 3, 4, 7, 8, 13, 16, 33):
                for seed in (0, 9, 2**64 - 1):
                    expected = scalar_spectrum(kind, n, ScalarRng(seed))
                    assert reference_spectrum(EnsembleSpec(kind, n, seed)) == tuple(expected)

    @pytest.mark.parametrize("kind, n", [("RemarkExtremal", 1), ("QZero", 1), ("Nilpotent", 0)])
    def test_refuses_what_generate_refuses(self, kind, n):
        spec = EnsembleSpec(kind, n, 0)
        for build in (generate, reference_spectrum):
            with pytest.raises(UnsupportedDimension):
                build(spec)

    def test_unknown_for_gaussian_kinds(self):
        assert reference_spectrum(EnsembleSpec("Ginibre", 8, 0)) is None
        assert reference_spectrum(EnsembleSpec("RealGaussian", 8, 0)) is None

    def test_prescribed_matches_eigensolver(self):
        # simple spectra: the solver must recover the sampled values closely
        for n in (2, 4, 8, 16):
            spec = EnsembleSpec("PrescribedSpectrum", n, 1000 + n)
            ref = reference_spectrum(spec)
            assert len(ref) == n
            s = eigenvalues(generate(spec))
            scale = 1 + max(abs(v) for v in ref)
            assert greedy_match_distance(s.values, ref) <= 1e-6 * scale

    def test_qzero_matches_eigensolver(self):
        for n in (4, 8, 16):
            spec = EnsembleSpec("QZero", n, 2000 + n)
            ref = reference_spectrum(spec)
            s = eigenvalues(generate(spec))
            assert greedy_match_distance(s.values, ref) <= 1e-6 * 2

    def test_clustered_kinds_match_through_moments(self):
        # multiplicity > 1 makes pointwise recovery impossible through the
        # characteristic polynomial (roots respond like eps^(1/multiplicity)),
        # so the reference is validated through power sums and the isolated
        # simple eigenvalue instead
        for n in (4, 8, 16):
            spec = EnsembleSpec("RemarkExtremal", n, 3000 + n)
            s = eigenvalues(generate(spec))
            ref = reference_spectrum(spec)
            assert abs(sum(s.values) - sum(ref)) <= 1e-7 * n
            assert abs(sum(v * v for v in s.values) - sum(v * v for v in ref)) <= 1e-6 * n * n
            outlier = max(s.values, key=abs)
            assert abs(outlier - (n - 1)) <= 1e-6 * n
        for n in (3, 6):
            spec = EnsembleSpec("Nilpotent", n, 4000 + n)
            s = eigenvalues(generate(spec))
            assert abs(sum(s.values)) <= 1e-8
            # cluster radius for an n-fold zero scales like eps^(1/n)
            assert max(abs(v) for v in s.values) <= 10 * (1e-12) ** (1.0 / n)

    def test_remark_reference_ellipse_shape(self):
        # built from the exact reference multiset: a flat segment with
        # semimajor sqrt(n/(2(n-1))) <= 1, approaching 1/sqrt(2)
        previous = None
        for n in range(2, 33):
            ref = reference_spectrum(EnsembleSpec("RemarkExtremal", n, 0))
            e = ellipse_from_normalized(normalize_mu(ref))
            want = math.sqrt(n / (2.0 * (n - 1)))
            assert e.semiminor <= 1e-9
            assert abs(e.semimajor - want) <= 1e-9
            assert e.semimajor <= 1.0
            if previous is not None:
                assert e.semimajor < previous
            previous = e.semimajor


class TestTransforms:
    def test_condition_cap_holds(self):
        for n in (2, 8, 32):
            rng = CounterRng(13 * n)
            t = _sample_transform(rng, n)
            assert condition_estimate(t) <= TRANSFORM_CONDITION_CAP

    def test_large_dimensions_generate_within_time_limit(self):
        # the estimate grows like 1.1 n, so a fixed cap of 50 rejected nearly
        # every draw from n = 46 on and the resampling loop never ended; the
        # cap now scales with n / 32 above n = 32
        def expired(signum, frame):
            raise TimeoutError("generate did not finish within 30 s")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(30)
        try:
            for n in (46, 48, 64):
                for kind in ("Nilpotent", "PrescribedSpectrum"):
                    assert generate(EnsembleSpec(kind, n, 7)).shape == (n, n)
                t = _sample_transform(CounterRng(n), n)
                assert condition_estimate(t) <= TRANSFORM_CONDITION_CAP * n / 32
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_singular_candidate_is_skipped(self, monkeypatch):
        # the first candidate I + G is the zero matrix, whose estimate is inf;
        # the sampler goes on to the next candidate without raising
        n = 3
        second = 0.05j * np.arange(n * n).reshape(n, n)
        candidates = iter((-np.eye(n, dtype=complex), second))
        monkeypatch.setattr(ensembles, "_complex_normals", lambda rng, count, scale: next(candidates))
        assert condition_estimate(np.zeros((n, n), dtype=complex)) == math.inf
        assert np.array_equal(_sample_transform(CounterRng(0), n), np.eye(n) + second)

    def test_exhausted_resampling_is_an_error(self, monkeypatch):
        # ||T||_F * ||T^-1||_F >= n for every T, so a cap of 1 accepts nothing
        monkeypatch.setattr(ensembles, "TRANSFORM_CONDITION_CAP", 1.0)
        monkeypatch.setattr(ensembles, "MAX_TRANSFORM_DRAWS", 5)
        with pytest.raises(UnsupportedDimension, match="5 draws"):
            generate(EnsembleSpec("PrescribedSpectrum", 3, 0))

    def test_all_kinds_generate_all_sizes(self):
        for kind in KINDS:
            for n in (2, 3, 5):
                a = generate(EnsembleSpec(kind, n, 1))
                assert a.shape == (n, n)
                assert as_matrix(a) is not None
