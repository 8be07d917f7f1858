import numpy as np
import pytest

from qmeter import catalog, estimator as est, haar
from qmeter.errors import DimensionMismatch, OutcomeOutOfRange, OutOfDomain, ZeroProbabilityOutcome
from qmeter.measurement import Measurement

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

    def test_bad_dimension(self):
        with pytest.raises(OutOfDomain):
            haar.haar_state(0, haar.RngStream(1))

    def test_negative_count(self):
        with pytest.raises(OutOfDomain):
            haar.haar_states(3, -1, seed=1)


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
        [100, haar.MC_CHUNK - 1, haar.MC_CHUNK, haar.MC_CHUNK + 1, 5 * haar.MC_CHUNK // 2],
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
                with pytest.raises(ValueError):
                    integrand(m, wrong, states)

    @pytest.mark.parametrize("blocks, extra", [(1, 1), (1, 2), (1, 3), (2, 1)])
    def test_per_sample_values_do_not_depend_on_block_size(self, monkeypatch, blocks, extra):
        m = catalog.random_device(5, 4, seed=48)
        post, pre = optimal_post(m), optimal_pre(m)
        samples = blocks * haar.MC_CHUNK + extra
        rows = []
        summarize = haar._summarize

        def recording_summarize(values):
            rows.append(values.copy())
            return summarize(values)

        monkeypatch.setattr(haar, "_summarize", recording_summarize)
        haar.mc_fidelities(m, post, pre, samples=samples, seed=49)
        states = haar.haar_states(m.dim, samples, seed=49)
        whole = [
            haar.g_post_integrand(m, post, states),
            haar.g_pre_integrand(m, pre, states),
            haar.operation_integrand(m, states),
        ]
        assert len(rows) == 3
        for row, expected in zip(rows, whole):
            assert np.array_equal(row, expected)


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
