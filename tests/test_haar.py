import sys
import threading
import tracemalloc

import numpy as np
import pytest

from qmeter import catalog, estimator as est, haar
from qmeter.errors import DimensionMismatch, OutcomeOutOfRange, OutOfDomain, ZeroProbabilityOutcome
from qmeter.measurement import PROBABILITY_FLOOR, Measurement

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def optimal_post(m):
    return [est.best_post_estimate(m, s) for s in range(1, m.n_outcomes + 1)]


def optimal_pre(m):
    return [est.best_pre_estimate(m, s) for s in range(1, m.n_outcomes + 1)]


def bloch_sphere_quadrature(n_polar=48, n_azimuth=96):
    """Exact-to-rounding quadrature over qubit pure states.

    Gauss-Legendre in cos(theta) and a trapezoid rule in phi integrate the
    (low-degree) fidelity integrands exactly under the uniform measure.
    Returns (states, weights) with weights summing to 1.
    """
    x, wx = np.polynomial.legendre.leggauss(n_polar)
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    c = np.sqrt((1.0 + x) / 2.0)
    s = np.sqrt((1.0 - x) / 2.0)
    states = np.empty((n_polar * n_azimuth, 2), dtype=np.complex128)
    weights = np.empty(n_polar * n_azimuth)
    for i in range(n_polar):
        block = slice(i * n_azimuth, (i + 1) * n_azimuth)
        states[block, 0] = c[i]
        states[block, 1] = s[i] * np.exp(1j * phi)
        weights[block] = wx[i] / (2.0 * n_azimuth)
    return states, weights


class TestHaarStates:
    def test_dimension_one_is_a_phase(self):
        psi = haar.haar_state(1, haar.RngStream(3))
        assert abs(abs(psi[0]) - 1.0) < 1e-14

    def test_states_are_normalized(self):
        states = haar.haar_states(5, 1000, seed=4)
        norms = np.linalg.norm(states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_second_moment_matches_haar(self):
        # E |<0|psi>|^2 = 1/d by unitary invariance.
        for d in (2, 4):
            states = haar.haar_states(d, 100_000, seed=5)
            vals = np.abs(states[:, 0]) ** 2
            se = np.std(vals, ddof=1) / np.sqrt(len(vals))
            assert abs(vals.mean() - 1.0 / d) <= 5 * se

    def test_fourth_moment_matches_haar(self):
        # E |<0|psi>|^4 = 2/(d(d+1)); for d=2 this is 1/3.
        states = haar.haar_states(2, 100_000, seed=6)
        vals = np.abs(states[:, 0]) ** 4
        se = np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - 1.0 / 3.0) <= 5 * se

    def test_chunked_generation_is_bit_identical(self):
        full = haar.haar_states(3, 500, seed=7)
        parts = [
            haar.haar_states(3, 123, seed=7, start=0),
            haar.haar_states(3, 277, seed=7, start=123),
            haar.haar_states(3, 100, seed=7, start=400),
        ]
        assert np.array_equal(full, np.vstack(parts))

    def test_streams_are_independent(self):
        a = haar.haar_state(4, haar.RngStream(8, 0))
        b = haar.haar_state(4, haar.RngStream(8, 1))
        assert not np.allclose(a, b)

    def test_stream_reproducible(self):
        a = haar.haar_state(4, haar.RngStream(9, 2))
        b = haar.haar_state(4, haar.RngStream(9, 2))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 64, 1000])
    @pytest.mark.parametrize("seed", [0, 5, -3, 2**64 + 1])
    def test_haar_state_is_sample_zero_of_the_ensemble(self, d, seed):
        assert np.array_equal(haar.haar_state(d, haar.RngStream(seed, 0)), haar.haar_states(d, 1, seed)[0])

    def test_bad_dimension(self):
        with pytest.raises(OutOfDomain):
            haar.haar_state(0, haar.RngStream(1))

    def test_negative_count(self):
        with pytest.raises(OutOfDomain):
            haar.haar_states(3, -1, seed=1)

    def test_negative_start(self):
        # A negative start would wrap the Philox counter instead of naming a sample.
        with pytest.raises(OutOfDomain):
            haar.haar_states(2, 3, seed=1, start=-1)

    def test_sizes_beyond_numpy_index_range_are_typed(self):
        # Pure arithmetic refuses these; none of them allocates anything.
        calls = [
            lambda: haar.haar_states(2, 10**400, 0),
            lambda: haar.haar_states(2, 1, 0, 10**400),
            lambda: haar.haar_states(2, 2**62, 0),
            lambda: haar.haar_states(3, 0, 0, (2**66 - 1) // 6 + 1),
            lambda: catalog.projective(10**400),
            lambda: est.domain_boundary(2, 10**400),
            lambda: est.domain_boundary(10**400, 3),
            lambda: est.tradeoff_bound(10**400, 0.5),
        ]
        for call in calls:
            with pytest.raises(OutOfDomain):
                call()

    def test_last_philox_block_keeps_the_partition_property(self):
        # d = 2 puts sample i at counter block i; numpy casts a list counter through float64 above 2**63.
        last = 2**64 - 1
        pair = haar.haar_states(2, 2, seed=5, start=last - 1)
        assert np.array_equal(pair[1:], haar.haar_states(2, 1, seed=5, start=last))
        assert not np.array_equal(pair[:1], haar.haar_states(2, 1, seed=5, start=0))


class TestStreamLayout:
    """Sample ``i`` is the Box-Muller transform of words ``[2d i, 2d (i+1))`` of stream 0, from plain numpy."""

    @staticmethod
    def words(seed, first, count):
        """``count`` uniform words of stream 0 from word ``first`` on: Philox makes four words per counter block."""
        gen = np.random.Generator(np.random.Philox(key=seed % 2**64, counter=first // 4))
        return gen.random(first % 4 + count)[first % 4 :]

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("seed", [0, 7, -1, 2**64 + 5])
    def test_rows_are_box_muller_of_their_own_words(self, d, seed):
        last = (2**66 - 1) // (2 * d)
        for start in (0, 1, 3, 123, last - 2):
            u = self.words(seed, 2 * d * start, 3 * 2 * d).reshape(3, d, 2)
            amps = np.sqrt(-2.0 * np.log(1.0 - u[..., 0])) * np.exp(2j * np.pi * u[..., 1])
            oracle = amps / np.linalg.norm(amps, axis=1, keepdims=True)
            assert np.max(np.abs(haar.haar_states(d, 3, seed, start) - oracle)) <= 1e-15

    @pytest.mark.parametrize("index", [0, 1, 2**64 - 1])
    def test_stream_starts_at_its_own_counter_block(self, index):
        philox = np.random.Generator(np.random.Philox(key=11, counter=index << 128))
        assert np.array_equal(haar.RngStream(11, index).generator().random(9), philox.random(9))


class TestInPlaceDraw:
    """The draw overwrites its uniform block, and its bits are those of the out-of-place Box-Muller expression."""

    @staticmethod
    def out_of_place(uniforms):
        radius = np.sqrt(-2.0 * np.log1p(-uniforms[..., 0]))
        angle = (2.0 * np.pi) * uniforms[..., 1]
        return radius * np.cos(angle) + 1j * (radius * np.sin(angle))

    @classmethod
    def normalized(cls, uniforms):
        amps = cls.out_of_place(uniforms)
        return amps / np.sqrt(np.sum(amps.real**2 + amps.imag**2, axis=-1, keepdims=True))

    @staticmethod
    def assert_same_bits(got, expected):
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("seed", [0, 13, -2])
    def test_haar_states(self, d, seed):
        for start, count in ((0, 1), (0, 2), (5, 257), (3, 2048)):
            u = TestStreamLayout.words(seed, 2 * d * start, count * 2 * d).reshape(count, d, 2)
            self.assert_same_bits(haar.haar_states(d, count, seed, start), self.normalized(u))

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("seed", [0, 13, -2])
    def test_haar_state(self, d, seed):
        for index in (0, 1, 2**64 - 1):
            u = np.random.Generator(np.random.Philox(key=seed % 2**64, counter=index << 128)).random((d, 2))
            self.assert_same_bits(haar.haar_state(d, haar.RngStream(seed, index)), self.normalized(u))

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("seed", [0, 13, -2])
    def test_haar_isometry(self, d, seed):
        for rows in (d, 2 * d + 1):
            u = np.random.Generator(np.random.Philox(key=seed % 2**64, counter=3 << 128)).random((rows, d, 2))
            q, r = np.linalg.qr(self.out_of_place(u))
            diag = np.diagonal(r).copy()
            diag[diag == 0] = 1.0
            self.assert_same_bits(haar.haar_isometry(rows, d, haar.RngStream(seed, 3)), q * (diag / np.abs(diag)))

    def test_a_zero_radius_word_keeps_the_expressions_signs_of_zero(self):
        # A radius word of exactly 0.0 (odds 2**-53 per amplitude) makes a zero amplitude; an angle word in
        # each quadrant and on each axis gives each sign of cos and sin.
        angles = np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9])
        u = np.stack([np.stack([np.zeros(8), angles], axis=-1), np.full((8, 2), 0.4)], axis=1)
        self.assert_same_bits(haar._gaussian_amplitudes(u.copy()), self.out_of_place(u))
        self.assert_same_bits(haar._haar_draw(u.copy()), self.normalized(u))

    def test_the_uniform_block_becomes_the_states(self):
        u = haar.RngStream(4).generator().random((5, 3, 2))
        states = haar._haar_draw(u)
        assert np.shares_memory(states, u) and states.flags.c_contiguous
        assert np.array_equal(u.view(np.complex128)[..., 0], states)


class TestSeeds:
    def test_any_integer_seed_keys_its_low_64_bits(self):
        base = haar.haar_states(2, 3, 3)
        for seed in (np.int64(3), np.uint64(3), 2**64 + 3, 3 - 2**64, 3 + 5 * 2**64):
            assert np.array_equal(haar.haar_states(2, 3, seed), base)
        assert np.array_equal(haar.haar_states(2, 3, -5), haar.haar_states(2, 3, 2**64 - 5))

    @pytest.mark.parametrize("seed", ["x", None, 1.5, 3.0, True, [3], np.nan])
    def test_non_integer_seeds_are_typed(self, seed):
        with pytest.raises(OutOfDomain, match="^seed must be an integer"):
            haar.haar_states(2, 3, seed)
        with pytest.raises(OutOfDomain, match="^seed must be an integer"):
            catalog.random_device(2, 2, seed)

    @pytest.mark.parametrize("index", [-1, 2**64, 1.0, "0", None])
    def test_stream_index_is_a_64_bit_word(self, index):
        with pytest.raises(OutOfDomain, match="^stream index must be an integer"):
            haar.RngStream(1, index).generator()
        assert haar.RngStream(1, 2**64 - 1).generator().random() != haar.RngStream(1, 0).generator().random()

    def test_stream_is_gated_once_at_construction(self):
        with pytest.raises(OutOfDomain, match=r"^stream index must be an integer in \[0, 18446744073709551615\], got -1$"):
            haar.RngStream(1, -1)
        stream = haar.RngStream(np.int64(3), np.uint8(2))
        assert (type(stream.seed), type(stream.stream_index)) == (int, int)
        assert stream == haar.RngStream(3, 2)


class TestHaarIsometry:
    def test_columns_orthonormal(self):
        iso = haar.haar_isometry(12, 3, haar.RngStream(10))
        assert np.allclose(iso.conj().T @ iso, np.eye(3), atol=1e-12)

    def test_square_case_is_unitary(self):
        u = haar.haar_isometry(4, 4, haar.RngStream(11))
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    def test_deterministic(self):
        a = haar.haar_isometry(6, 2, haar.RngStream(12))
        b = haar.haar_isometry(6, 2, haar.RngStream(12))
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "call, type_name",
    [
        (lambda: haar.haar_state(2, 5), "int"),
        (lambda: haar.haar_isometry(2, 2, None), "NoneType"),
        (lambda: haar.haar_state(2, np.random.default_rng(1)), "Generator"),
    ],
    ids=["state_int", "isometry_None", "state_Generator"],
)
def test_sampler_stream_must_be_an_rng_stream(call, type_name):
    with pytest.raises(OutOfDomain, match=f"^stream must be a haar.RngStream, got {type_name}$"):
        call()


class TestEstimationFidelity:
    def test_perfect_guess(self):
        m = catalog.unsharp_qubit(0.6)
        guess = m.collapse(PLUS, 1)
        assert haar.mc_estimation_fidelity(m, 1, guess, PLUS) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_guess(self):
        m = catalog.unsharp_qubit(0.6)
        post = m.collapse(PLUS, 1)
        orth = np.array([-post[1].conjugate(), post[0].conjugate()])
        assert haar.mc_estimation_fidelity(m, 1, orth, PLUS) == pytest.approx(0.0, abs=1e-12)

    def test_unsharp_by_hand_value(self):
        m = catalog.unsharp_qubit(0.6)
        assert haar.mc_estimation_fidelity(m, 1, [1.0, 0.0], PLUS) == pytest.approx(0.8, abs=1e-12)

    def test_zero_probability(self):
        m = catalog.projective(2)
        with pytest.raises(ZeroProbabilityOutcome):
            haar.mc_estimation_fidelity(m, 2, [0.0, 1.0], [1.0, 0.0])

    @pytest.mark.parametrize("s", [0, 3])
    def test_outcome_out_of_range(self, s):
        with pytest.raises(OutcomeOutOfRange):
            haar.mc_estimation_fidelity(catalog.projective(2), s, [1.0, 0.0], PLUS)

    def test_probability_floor(self):
        # ||M_2 psi||^2 = p: refused at or below PROBABILITY_FLOOR, answered above it.
        m = catalog.projective(2)
        for p, refused in ((0.5 * PROBABILITY_FLOOR, True), (4 * PROBABILITY_FLOOR, False)):
            psi = [np.sqrt(1.0 - p), np.sqrt(p)]
            if refused:
                with pytest.raises(ZeroProbabilityOutcome):
                    haar.mc_estimation_fidelity(m, 2, [0.0, 1.0], psi)
            else:
                assert haar.mc_estimation_fidelity(m, 2, [0.0, 1.0], psi) == pytest.approx(1.0, abs=1e-15)

    def test_matches_the_born_rule_quotient(self):
        # The collapse-based value against |<g|M_s psi>|^2 / <psi|E_s|psi>, on 600 random cases.
        worst = 0.0
        for i in range(150):
            m = catalog.random_device(2 + i % 3, 4, seed=5100 + i)
            psi, guess = haar.haar_states(m.dim, 2, seed=5100 + i)
            p = m.outcome_distribution(psi)
            for s in range(1, 5):
                quotient = abs(np.vdot(guess, m.kraus_op(s) @ psi)) ** 2 / p[s - 1]
                worst = max(worst, abs(haar.mc_estimation_fidelity(m, s, guess, psi) - quotient))
        assert worst <= 1e-15


class TestMonteCarloIntegrals:
    def test_identity_device_g_post(self):
        m = catalog.identity_device(3)
        r = haar.mc_g_post(m, [haar.haar_state(3, haar.RngStream(1))], samples=100_000, seed=2)
        assert abs(r.mean - 1.0 / 3) <= 5 * r.std_error

    def test_projective_g_post_exact_per_sample(self):
        m = catalog.projective(3)
        r = haar.mc_g_post(m, optimal_post(m), samples=1000, seed=3)
        assert r.mean == pytest.approx(1.0, abs=1e-12)
        assert r.std_error < 1e-15

    def test_unsharp_g_post(self):
        m = catalog.unsharp_qubit(0.6)
        r = haar.mc_g_post(m, optimal_post(m), samples=100_000, seed=4)
        assert abs(r.mean - 0.8) <= max(5 * r.std_error, 1e-3)

    def test_projective_g_pre(self):
        m = catalog.projective(2)
        r = haar.mc_g_pre(m, optimal_pre(m), samples=100_000, seed=5)
        assert abs(r.mean - 2.0 / 3) <= 5 * r.std_error

    def test_identity_g_pre(self):
        m = catalog.identity_device(2)
        r = haar.mc_g_pre(m, [np.array([1.0, 0.0])], samples=100_000, seed=6)
        assert abs(r.mean - 0.5) <= 5 * r.std_error

    def test_unsharp_g_pre(self):
        m = catalog.unsharp_qubit(0.6)
        r = haar.mc_g_pre(m, optimal_pre(m), samples=100_000, seed=7)
        assert abs(r.mean - 0.6) <= 5 * r.std_error

    def test_identity_operation_fidelity_exact(self):
        m = catalog.identity_device(4)
        r = haar.mc_operation_fidelity(m, samples=1000, seed=8)
        assert r.mean == pytest.approx(1.0, abs=1e-12)
        assert r.std_error < 1e-15

    def test_projective_operation_fidelity(self):
        m = catalog.projective(3)
        r = haar.mc_operation_fidelity(m, samples=100_000, seed=9)
        assert abs(r.mean - 0.5) <= 5 * r.std_error

    def test_unsharp_operation_fidelity(self):
        m = catalog.unsharp_qubit(0.6)
        r = haar.mc_operation_fidelity(m, samples=100_000, seed=10)
        assert abs(r.mean - 2.8 / 3) <= 5 * r.std_error

    def test_sample_floor(self):
        with pytest.raises(OutOfDomain):
            haar.mc_g_post(catalog.projective(2), optimal_post(catalog.projective(2)), samples=10)

    def test_determinism_bit_identical(self):
        m = catalog.random_device(3, 4, seed=20)
        guesses = optimal_post(m)
        a = haar.mc_g_post(m, guesses, samples=5000, seed=21)
        b = haar.mc_g_post(m, guesses, samples=5000, seed=21)
        assert a.mean == b.mean and a.std_error == b.std_error and a.samples == b.samples

    def test_integrand_values_in_unit_interval(self):
        m = catalog.random_device(3, 5, seed=22)
        states = haar.haar_states(3, 5000, seed=23)
        for values in (
            haar.g_post_integrand(m, optimal_post(m), states),
            haar.g_pre_integrand(m, optimal_pre(m), states),
            haar.operation_integrand(m, states),
        ):
            assert values.min() >= 0.0
            assert values.max() <= 1.0 + 1e-12

    def test_haar_invariance_under_fixed_rotation(self):
        # Rotating every sampled state by a fixed unitary is realized by moving
        # the rotation into the device; the estimate may only move by noise.
        m = catalog.random_device(3, 4, seed=24)
        u = haar.haar_isometry(3, 3, haar.RngStream(25))
        m_rot = Measurement([k @ u for k in m.kraus])  # integrand of m at states U @ psi
        guesses = optimal_post(m)
        a = haar.mc_g_post(m, guesses, samples=100_000, seed=26)
        b = haar.mc_g_post(m_rot, guesses, samples=100_000, seed=26)
        assert abs(a.mean - b.mean) <= 5 * max(a.std_error, b.std_error)

    def test_haar_moments_by_bloch_quadrature(self):
        # Deterministic cross-check of the sampler's target measure for d=2.
        states, weights = bloch_sphere_quadrature()
        second = np.sum(weights * np.abs(states[:, 0]) ** 2)
        fourth = np.sum(weights * np.abs(states[:, 0]) ** 4)
        assert second == pytest.approx(0.5, abs=1e-13)
        assert fourth == pytest.approx(1.0 / 3, abs=1e-13)

    def test_closed_forms_by_bloch_quadrature(self):
        # The quadrature is exact for these integrands, so tolerances are tight.
        states, weights = bloch_sphere_quadrature()
        rng = np.random.default_rng(404)
        devices = [
            catalog.unsharp_qubit(0.6),
            catalog.tetrahedron_rank_one(),
            catalog.with_kicks(
                catalog.unsharp_qubit(0.3),
                [haar.haar_isometry(2, 2, haar.RngStream(405, s)) for s in range(2)],
            ),
            catalog.random_device(2, 3, seed=406),
        ]
        for m in devices:
            guesses = haar.haar_states(2, m.n_outcomes, seed=int(rng.integers(1 << 30)))
            post_int = pre_int = f_int = 0.0
            for s in range(1, m.n_outcomes + 1):
                k = m.kraus_op(s)
                chi = guesses[s - 1]
                applied = states @ k.T
                post_int += np.sum(weights * np.abs(applied @ chi.conj()) ** 2)
                p = np.sum(np.abs(applied) ** 2, axis=1)
                pre_int += np.sum(weights * p * np.abs(states @ chi.conj()) ** 2)
                f_int += np.sum(weights * np.abs(np.einsum("ij,ij->i", states.conj(), applied)) ** 2)
            assert post_int == pytest.approx(est.g_post_of_guess(m, guesses), abs=1e-12)
            assert pre_int == pytest.approx(est.g_pre_of_guess(m, guesses), abs=1e-12)
            assert f_int == pytest.approx(est.operation_fidelity(m), abs=1e-12)

    def test_oracle_agreement_catalog_and_random(self):
        # Catalog families plus 20 random devices, all three integrals.
        devices = [
            catalog.projective(2),
            catalog.projective(3),
            catalog.identity_device(2),
            catalog.identity_device(3),
            catalog.unsharp_qubit(0.6),
            catalog.tetrahedron_rank_one(),
        ]
        devices += [catalog.random_device(2 + i % 3, 2 + i % 4, seed=2600 + i) for i in range(20)]
        for i, m in enumerate(devices):
            report = est.check_bound(m)
            rp = haar.mc_g_post(m, optimal_post(m), samples=100_000, seed=2700 + i)
            rq = haar.mc_g_pre(m, optimal_pre(m), samples=100_000, seed=2700 + i)
            rf = haar.mc_operation_fidelity(m, samples=100_000, seed=2700 + i)
            assert abs(rp.mean - report.g_post) <= max(5 * rp.std_error, 1e-3)
            assert abs(rq.mean - report.g_pre) <= max(5 * rq.std_error, 1e-3)
            assert abs(rf.mean - report.f_op) <= max(5 * rf.std_error, 1e-3)


class TestBlockDriver:
    """One Haar ensemble per Monte Carlo call, drawn in MC_CHUNK blocks."""

    def test_mc_fidelities_matches_single_calls(self):
        m = catalog.random_device(4, 3, seed=40)
        post, pre = optimal_post(m), optimal_pre(m)
        together = haar.mc_fidelities(m, post, pre, samples=10_000, seed=41)
        apart = (
            haar.mc_g_post(m, post, samples=10_000, seed=41),
            haar.mc_g_pre(m, pre, samples=10_000, seed=41),
            haar.mc_operation_fidelity(m, samples=10_000, seed=41),
        )
        assert together == apart

    @pytest.mark.parametrize(
        "samples",
        [100, *(k * haar.MC_CHUNK + e for k in (1, 2) for e in (-1, 0, 1)), 5 * haar.MC_CHUNK // 2, 5 * haar.MC_CHUNK],
    )
    def test_blocks_match_one_block(self, samples):
        m = catalog.random_device(5, 4, seed=42)
        post, pre = optimal_post(m), optimal_pre(m)
        states = haar.haar_states(m.dim, samples, seed=43)
        expected = (
            haar._summarize(haar.g_post_integrand(m, post, states)),
            haar._summarize(haar.g_pre_integrand(m, pre, states)),
            haar._summarize(haar.operation_integrand(m, states)),
        )
        assert haar.mc_fidelities(m, post, pre, samples=samples, seed=43) == expected

    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_operation_integrand_matches_triple_einsum(self, d):
        m = catalog.random_device(d, 3, seed=44 + d)
        states = haar.haar_states(d, 500, seed=45)
        oracle = np.zeros(states.shape[0])
        for k in m.kraus:
            amp = np.einsum("ij,jk,ik->i", states.conj(), k, states)
            oracle += amp.real**2 + amp.imag**2
        values = haar.operation_integrand(m, states)
        assert np.max(np.abs(values - oracle)) <= 1e-14

    def test_mc_g_post_rejects_wrong_guess_count(self):
        m = catalog.random_device(3, 4, seed=1)
        with pytest.raises(DimensionMismatch):
            haar.mc_g_post(m, optimal_post(m)[:2], samples=1000, seed=46)

    def test_mc_g_pre_rejects_wrong_guess_count(self):
        m = catalog.random_device(3, 4, seed=1)
        with pytest.raises(DimensionMismatch):
            haar.mc_g_pre(m, optimal_pre(m)[:2], samples=1000, seed=46)

    def test_mc_fidelities_rejects_wrong_guess_count(self):
        m = catalog.random_device(3, 4, seed=1)
        post, pre = optimal_post(m), optimal_pre(m)
        with pytest.raises(DimensionMismatch):
            haar.mc_fidelities(m, post[:2], pre, samples=1000, seed=46)
        with pytest.raises(DimensionMismatch):
            haar.mc_fidelities(m, post, pre[:3], samples=1000, seed=46)

    def test_integrands_reject_wrong_guess_count(self):
        m = catalog.random_device(3, 4, seed=1)
        states = haar.haar_states(3, 10, seed=47)
        cases = [(haar.g_post_integrand, optimal_post(m)), (haar.g_pre_integrand, optimal_pre(m))]
        for integrand, guesses in cases:
            for wrong in (guesses[:3], guesses + guesses[:1]):
                with pytest.raises(DimensionMismatch):
                    integrand(m, wrong, states)

    def test_integrands_check_their_states(self):
        m = catalog.random_device(3, 4, seed=1)
        states = haar.haar_states(3, 10, seed=47)
        calls = [
            lambda x: haar.g_post_integrand(m, optimal_post(m), x),
            lambda x: haar.g_pre_integrand(m, optimal_pre(m), x),
            lambda x: haar.operation_integrand(m, x),
        ]
        shapes = ["ab", None, states[0], states[:, :2], [[1.0, 0.0, 0.0], [1.0, 0.0]]]
        for call in calls:
            assert np.array_equal(call(states.tolist()), call(states))
            for bad in shapes:
                with pytest.raises(DimensionMismatch):
                    call(bad)
            for bad in (2.0 * states, np.where(states == states[3, 1], np.nan, states), states[:, ::-1] * 1e200):
                with pytest.raises(OutOfDomain):
                    call(bad)

    @pytest.mark.parametrize(
        "blocks, extra, tile_rows",
        [(1, 1, None), (1, 2, None), (1, 3, None), (2, 1, None), (1, 1, 2), (2, 1, 2), (1, 3, 7)],
        ids=["1-1", "1-2", "1-3", "2-1", "1-1-two_row_tiles", "2-1-two_row_tiles", "1-3-seven_row_tiles"],
    )
    def test_per_sample_values_do_not_depend_on_block_size(self, monkeypatch, blocks, extra, tile_rows):
        # Both workers' tile budgets are set; odd blocks of 2-row tiles end in one 3-row tile.
        m = catalog.random_device(5, 4, seed=48)
        post, pre = np.array(optimal_post(m)), np.array(optimal_pre(m))
        samples = blocks * haar.MC_CHUNK + extra
        if tile_rows is not None:
            monkeypatch.setattr(haar, "_TILE_BYTES", 16 * 4 * 5 * tile_rows + 5)
            monkeypatch.setattr(haar, "_SPLIT_TILE_BYTES", 16 * 4 * 5 * tile_rows + 5)
        rows = []
        summarize = haar._summarize

        def recording_summarize(values):
            rows.append(values.copy())
            return summarize(values)

        monkeypatch.setattr(haar, "_summarize", recording_summarize)
        states = haar.haar_states(m.dim, samples, seed=49)
        whole = haar._block_values(m, states, post, pre, True, np.matmul, 16 * 4 * 5 * samples)
        for cpus in (1, 2):  # one worker with np.matmul, then two with _rows_matmul
            monkeypatch.setattr(haar, "_usable_cpus", lambda cpus=cpus: cpus)
            rows.clear()
            haar.mc_fidelities(m, post, pre, samples=samples, seed=49)
            assert len(rows) == 3
            for row, expected in zip(rows, whole):
                assert np.array_equal(row, expected)

    @pytest.mark.parametrize("total", [0, 1, 2, 3, 5, 100, 2047, 2048, 2049, 10_000])
    @pytest.mark.parametrize("most", [1, 2, 3, 7, 2048])
    def test_parts(self, total, most):
        parts = list(haar._parts(total, most))
        counts = [count for _, count in parts]
        assert [start for start, _ in parts] == [sum(counts[:i]) for i in range(len(parts))]
        assert sum(counts) == total and max(counts) - min(counts) <= 1
        assert min(counts) >= min(total, 2) and max(counts) <= max(most, 3)
        if total >= 100 and most == haar.MC_CHUNK:  # the blocks: ceil(total / MC_CHUNK) of them
            assert len(parts) == -(-total // most)


class TestBoundedMemory:
    def test_mc_fidelities_peak_is_bounded_in_bytes(self):
        # n d^2 > 1024, so one worker takes every block and the peak does not depend on the machine.
        # Whole-block collapse products made it 238 MB; 32 MiB tiles make it 43 MB.
        m = catalog.random_device(32, 256, seed=70)
        post, pre = haar.haar_states(32, 256, seed=71), haar.haar_states(32, 256, seed=72)
        tracemalloc.start()
        try:
            haar.mc_fidelities(m, post, pre, samples=5000, seed=73)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6


class TestThreadedDriver:
    """Two block workers, each making its products in calls under the BLAS threading cut."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # The schedule then depends on the shape alone, on any machine.
        monkeypatch.setattr(haar, "_usable_cpus", lambda: 2)

    @pytest.mark.parametrize("samples", [haar.MC_CHUNK - 1, haar.MC_CHUNK + 1, 2 * haar.MC_CHUNK + 1])
    @pytest.mark.parametrize("d", [2, 8, 16, 64])
    def test_matches_one_block_evaluation(self, monkeypatch, d, samples):
        m = catalog.random_device(d, 4, seed=60 + d)
        post, pre = optimal_post(m), optimal_pre(m)
        calls = []
        rows_matmul = haar._rows_matmul

        def counting_rows_matmul(a, b):
            calls.append(threading.current_thread())
            return rows_matmul(a, b)

        monkeypatch.setattr(haar, "_rows_matmul", counting_rows_matmul)
        got = haar.mc_fidelities(m, post, pre, samples=samples, seed=61)
        states = haar.haar_states(d, samples, seed=61)
        expected = (
            haar._summarize(haar.g_post_integrand(m, post, states)),
            haar._summarize(haar.g_pre_integrand(m, pre, states)),
            haar._summarize(haar.operation_integrand(m, states)),
        )
        assert got == expected
        # Two workers iff there are two blocks and the collapse product, n d^2 = 4 d^2, gets 32 rows per call.
        two_workers = samples > haar.MC_CHUNK and 4 * d * d <= 1024
        assert len(set(calls)) == (2 if two_workers else 0)

    @pytest.mark.parametrize("d, n, guesses", [(8, 4, False), (16, 4, False), (8, 4, True), (3, 5, False)])
    def test_rows_matmul_is_bit_equal_to_matmul(self, d, n, guesses):
        m = catalog.random_device(d, n, seed=62)
        b = haar.haar_states(d, n, seed=63).conj().T if guesses else m.kraus.reshape(n * d, d).T
        rows = haar._CALL_MACS // b.size
        a = haar.haar_states(d, 3 * rows + 1, seed=64)
        for count in range(2, 3 * rows + 2):
            assert np.array_equal(haar._rows_matmul(a[:count], b).view(np.uint64), (a[:count] @ b).view(np.uint64))

    @pytest.mark.parametrize("failing", [0, 1, 4])
    def test_a_failing_block_is_raised_and_no_thread_outlives_the_call(self, monkeypatch, failing):
        # Blocks are dealt in turn: blocks 0 and 4 go to the caller, block 1 to the second worker.
        m = catalog.random_device(4, 3, seed=65)
        post, pre = optimal_post(m), optimal_pre(m)
        samples = 5 * haar.MC_CHUNK
        start = list(haar._parts(samples, haar.MC_CHUNK))[failing][0]
        marker = haar.haar_states(4, 1, seed=66, start=start)[0]
        error = RuntimeError("block failed")
        raised_in = []
        block_values = haar._block_values

        def failing_block_values(m, states, *args):
            if np.array_equal(states[0], marker):
                raised_in.append(threading.current_thread())
                raise error
            return block_values(m, states, *args)

        monkeypatch.setattr(haar, "_block_values", failing_block_values)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            haar.mc_fidelities(m, post, pre, samples=samples, seed=66)
        assert info.value is error
        assert threading.active_count() == before
        assert len(raised_in) == 1 and (raised_in[0] is threading.current_thread()) == (failing % 2 == 0)

    def test_concurrent_calls_under_fast_switching(self, monkeypatch):
        # Three calls at once, six workers on a small machine, with the interpreter switching threads every
        # microsecond: a block lost or written twice would move a mean away from the serial result.
        monkeypatch.setattr(haar, "MC_CHUNK", 128)
        m = catalog.random_device(4, 3, seed=67)
        post, pre = optimal_post(m), optimal_pre(m)
        expected = [haar.mc_fidelities(m, post, pre, samples=3000, seed=seed) for seed in range(3)]
        got = [None] * 3

        def call(seed):
            got[seed] = haar.mc_fidelities(m, post, pre, samples=3000, seed=seed)

        threads = [threading.Thread(target=call, args=(seed,)) for seed in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected


def isometry_device(d, n, seed):
    """n Kraus blocks of a Haar isometry from dimension d into n*d."""
    return Measurement(haar.haar_isometry(n * d, d, haar.RngStream(seed)).reshape(n, d, d))


def einsum_integrands(m, post, pre, states):
    """The three integrands written out as triple einsums, one term per outcome."""
    k = m.kraus
    effects = k.conj().swapaxes(1, 2) @ k
    post_amp = np.einsum("sj,sjk,ik->is", post.conj(), k, states)
    p = np.einsum("ij,sjk,ik->is", states.conj(), effects, states).real
    pre_amp = np.einsum("sj,ij->is", pre.conj(), states)
    f_amp = np.einsum("ij,sjk,ik->is", states.conj(), k, states)
    return (
        np.sum(np.abs(post_amp) ** 2, axis=1),
        np.sum(p * np.abs(pre_amp) ** 2, axis=1),
        np.sum(np.abs(f_amp) ** 2, axis=1),
    )


class TestFusedKernel:
    """The stacked block kernel against written-out oracles, with no estimator code."""

    def check(self, m, seed):
        states = haar.haar_states(m.dim, 300, seed=seed)
        post = haar.haar_states(m.dim, m.n_outcomes, seed=seed + 1)
        pre = haar.haar_states(m.dim, m.n_outcomes, seed=seed + 2)
        values = (
            haar.g_post_integrand(m, post, states),
            haar.g_pre_integrand(m, pre, states),
            haar.operation_integrand(m, states),
        )
        for got, oracle in zip(values, einsum_integrands(m, post, pre, states)):
            assert got.shape == (300,)
            assert np.max(np.abs(got - oracle)) <= 1e-14

    @pytest.mark.parametrize("d", [1, 2, 8, 64])
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_isometry_devices(self, d, n):
        self.check(isometry_device(d, n, seed=50 + d + n), seed=51)

    def test_kicked_identity(self):
        kick = haar.haar_isometry(4, 4, haar.RngStream(52))
        self.check(catalog.with_kicks(catalog.identity_device(4), [kick]), seed=53)

    def test_zero_kraus_operator(self):
        kraus = np.concatenate([isometry_device(3, 2, seed=54).kraus, np.zeros((1, 3, 3))])
        self.check(Measurement(kraus), seed=55)


def mub_states(d):
    """A complete set of d + 1 mutually unbiased bases, d(d + 1) states: a 2-design.

    Pauli eigenstates for d = 2; for an odd prime d, the computational basis
    and the bases ``w^(k j^2 + l j) / sqrt(d)`` with ``w = exp(2 pi i / d)``
    (Wootters & Fields 1989).
    """
    if d == 2:
        s = np.sqrt(0.5)
        return np.array([[1, 0], [0, 1], [s, s], [s, -s], [s, 1j * s], [s, -1j * s]], dtype=np.complex128)
    j = np.arange(d)
    phases = [(k * j * j + l * j) % d for k in range(d) for l in range(d)]
    return np.vstack([np.eye(d), np.exp(2j * np.pi * np.array(phases) / d) / np.sqrt(d)])


class TestDesignOracle:
    """A complete MUB set averages every integrand of degree (2, 2) exactly (Klappenecker & Roetteler 2005).

    So the kernel's rows, averaged over it, must equal the closed forms to
    rounding, not only within Monte Carlo error.
    """

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_frame_potential(self, d):
        states = mub_states(d)
        n = d * (d + 1)
        assert states.shape == (n, d)
        assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) <= 1e-15
        overlaps = np.abs(states.conj() @ states.T) ** 4
        assert abs(overlaps.sum() / n**2 - 2.0 / (d * (d + 1))) <= 1e-15

    @staticmethod
    def residuals(m, block_values):
        """``|design mean - closed form|`` of the ``g_post``, ``g_pre`` and ``F`` rows, for Haar guesses."""
        post = haar.haar_states(m.dim, m.n_outcomes, seed=71)
        pre = haar.haar_states(m.dim, m.n_outcomes, seed=72)
        rows = block_values(m, mub_states(m.dim), post, pre, operation=True)
        exact = (est.g_post_of_guess(m, post), est.g_pre_of_guess(m, pre), est.operation_fidelity(m))
        return [abs(float(np.mean(row)) - value) for row, value in zip(rows, exact)]

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_block_values_average_to_closed_forms(self, d):
        assert max(self.residuals(catalog.random_device(d, 3, seed=70 + d), haar._block_values)) <= 1e-12

    def test_gate_catches_a_perturbed_g_pre_row(self):
        def mutant(*args, **kwargs):
            post, pre, f = haar._block_values(*args, **kwargs)
            return [post, pre * (1.0 + 1e-9), f]

        post, pre, f = self.residuals(catalog.random_device(5, 3, seed=75), mutant)
        assert pre > 1e-12 and max(post, f) <= 1e-12
