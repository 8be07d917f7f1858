import math

import numpy as np
import pytest

from conftest import corpus_params, overlap2, rand_complex
from qmeter import catalog, estimator as est, haar
from qmeter.errors import DimensionMismatch, IncompleteDevice, OutOfDomain
from qmeter.matkernel import EIG_GAP_TOL, PHASE_TOL, frobenius_distance, hermitian_eig
from qmeter.measurement import validate

X = np.array([[0, 1], [1, 0]], dtype=complex)


def bit_flip_unsharp():
    """Unsharp qubit with a bit-flip kick on the first outcome."""
    return validate([X @ np.diag([np.sqrt(0.8), np.sqrt(0.2)]), np.diag([np.sqrt(0.2), np.sqrt(0.8)])])


class TestBestEstimates:
    def test_projective_estimates_are_basis_states(self):
        m = catalog.projective(3)
        for s in range(1, 4):
            basis = np.zeros(3)
            basis[s - 1] = 1.0
            assert overlap2(est.best_post_estimate(m, s), basis) == pytest.approx(1.0, abs=1e-12)
            assert overlap2(est.best_pre_estimate(m, s), basis) == pytest.approx(1.0, abs=1e-12)

    def test_unsharp_top_eigenvector(self):
        m = catalog.unsharp_qubit(0.6)
        pair = est.estimate_pair(m, 1)
        assert pair.a_max == pytest.approx(0.8, abs=1e-12)
        assert not pair.degenerate
        assert overlap2(pair.chi_post, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
        assert overlap2(pair.chi_pre, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_estimates_are_the_factors(self):
        rng = np.random.default_rng(61)
        posts = [v / np.linalg.norm(v) for v in rand_complex(rng, 4, 2)]
        m = catalog.tetrahedron_rank_one(posts)
        pres = [catalog.bloch_state(v) for v in catalog.TETRAHEDRON_DIRECTIONS]
        for s in range(1, 5):
            assert overlap2(est.best_post_estimate(m, s), posts[s - 1]) == pytest.approx(1.0, abs=1e-9)
            assert overlap2(est.best_pre_estimate(m, s), pres[s - 1]) == pytest.approx(1.0, abs=1e-9)

    def test_kick_splits_pre_and_post(self):
        m = bit_flip_unsharp()
        assert overlap2(est.best_pre_estimate(m, 1), [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
        assert overlap2(est.best_post_estimate(m, 1), [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_estimate_flagged_and_in_eigenspace(self):
        m = catalog.unsharp_qubit(0.0)
        pair = est.estimate_pair(m, 1)
        assert pair.degenerate
        # any unit vector is optimal here; the returned one must be in the eigenspace
        e = m.effect_matrix(1)
        residual = e @ pair.chi_pre - pair.a_max * pair.chi_pre
        assert np.linalg.norm(residual) <= 1e-9

    def test_link_relation_matches_eigh_oracle(self):
        checked = 0
        for i in range(48):
            m = catalog.random_device((2, 4, 16)[i % 3], 2 + i % 4, seed=7000 + i)
            for s in range(1, m.n_outcomes + 1):
                if m.effect(s).spectrum.top_gap() < EIG_GAP_TOL:
                    continue
                k = m.kraus_op(s)
                left = k @ k.conj().T
                oracle = np.linalg.eigh(left)[1][:, -1]
                post = est.best_post_estimate(m, s)
                assert overlap2(post, oracle) >= 1.0 - 1e-10
                lead = post[np.argmax(np.abs(post) > PHASE_TOL)]
                assert lead.real > 0.0 and lead.imag == pytest.approx(0.0, abs=1e-15)
                rayleigh = np.vdot(post, left @ post).real
                assert rayleigh == pytest.approx(m.effect(s).a_max, abs=1e-12)
                checked += 1
        assert checked > 100

    def test_degenerate_or_vanishing_top_uses_tie_break(self):
        kicked = catalog.with_kicks(catalog.identity_device(3), [haar.haar_isometry(3, 3, haar.RngStream(5, 0))])
        devices = [
            catalog.identity_device(3),
            kicked,
            catalog.unsharp_qubit(0.0),
            validate([np.eye(2), np.zeros((2, 2))]),
        ]
        for m in devices:
            for s in range(1, m.n_outcomes + 1):
                effect = m.effect(s)
                assert effect.a_max <= est.A_MAX_FLOOR or effect.spectrum.top_gap() < EIG_GAP_TOL
                k = m.kraus_op(s)
                expected = hermitian_eig(k @ k.conj().T).eigenvectors[:, 0]
                assert np.array_equal(est.best_post_estimate(m, s), expected)


class TestMeanFidelities:
    def test_projective_g_post_is_one(self):
        for d in (2, 3, 5):
            assert est.g_post(catalog.projective(d)) == pytest.approx(1.0, abs=1e-12)

    def test_identity_g_post_is_inverse_dim(self):
        for d in (2, 3, 4):
            assert est.g_post(catalog.identity_device(d)) == pytest.approx(1.0 / d, abs=1e-12)

    def test_unsharp_g_post(self):
        assert est.g_post(catalog.unsharp_qubit(0.6)) == pytest.approx(0.8, abs=1e-12)

    def test_g_pre_values(self):
        assert est.g_pre(catalog.projective(3)) == pytest.approx(0.5, abs=1e-12)
        assert est.g_pre(catalog.identity_device(2)) == pytest.approx(0.5, abs=1e-12)
        assert est.g_pre(catalog.unsharp_qubit(0.6)) == pytest.approx(0.6, abs=1e-12)

    def test_operation_fidelity_values(self):
        assert est.operation_fidelity(catalog.identity_device(2)) == pytest.approx(1.0, abs=1e-14)
        assert est.operation_fidelity(catalog.projective(3)) == pytest.approx(0.5, abs=1e-14)
        assert est.operation_fidelity(catalog.unsharp_qubit(0.6)) == pytest.approx(2.8 / 3, abs=1e-12)

    def test_g_post_bounds_sweep(self):
        for d, n, seed in corpus_params(60, seed_base=3000):
            m = catalog.random_device(d, n, seed)
            g = est.g_post(m)
            assert 1.0 / d - 1e-10 <= g <= 1.0 + 1e-10


class TestGuessFidelities:
    def test_optimal_guesses_attain_maximum(self):
        m = catalog.random_device(3, 4, seed=71)
        post = [est.best_post_estimate(m, s) for s in range(1, 5)]
        pre = [est.best_pre_estimate(m, s) for s in range(1, 5)]
        assert est.g_post_of_guess(m, post) == pytest.approx(est.g_post(m), abs=1e-12)
        assert est.g_pre_of_guess(m, pre) == pytest.approx(est.g_pre(m), abs=1e-12)

    def test_swapped_projective_guesses_score_zero(self):
        m = catalog.projective(2)
        swapped = [np.array([0.0, 1.0]), np.array([1.0, 0.0])]
        assert est.g_post_of_guess(m, swapped) == pytest.approx(0.0, abs=1e-14)

    def test_identity_device_guesses_irrelevant(self):
        m = catalog.identity_device(3)
        for seed in (1, 2):
            guess = [haar.haar_state(3, haar.RngStream(seed))]
            assert est.g_post_of_guess(m, guess) == pytest.approx(1.0 / 3, abs=1e-12)

    def test_identity_device_g_pre_of_guess(self):
        m = catalog.identity_device(2)
        guess = [np.array([1.0, 0.0])]
        assert est.g_pre_of_guess(m, guess) == pytest.approx(0.5, abs=1e-14)

    def test_projective_optimal_g_pre_matches_known_value(self):
        m = catalog.projective(2)
        pre = [est.best_pre_estimate(m, s) for s in (1, 2)]
        assert est.g_pre_of_guess(m, pre) == pytest.approx(2.0 / 3, abs=1e-12)

    def test_guess_validation(self):
        m = catalog.projective(2)
        with pytest.raises(DimensionMismatch):
            est.g_post_of_guess(m, [np.array([1.0, 0.0])])

    def test_no_guess_beats_the_optimum(self):
        # 100 random devices x 50 random alternative guess tuples, both sides.
        for i in range(100):
            m = catalog.random_device(2 + i % 3, 2 + i % 4, seed=4000 + i)
            gp = est.g_post(m)
            gpre = est.g_pre(m)
            alternatives = haar.haar_states(m.dim, 50 * m.n_outcomes, seed=5000 + i)
            for j in range(50):
                tup = alternatives[j * m.n_outcomes : (j + 1) * m.n_outcomes]
                assert est.g_post_of_guess(m, tup) <= gp + 1e-10
                assert est.g_pre_of_guess(m, tup) <= gpre + 1e-10


class TestRelationBetweenPreAndPost:
    def test_eq_20_direct_maximization_sweep(self):
        for d, n, seed in corpus_params(150, seed_base=6000):
            m = catalog.random_device(d, n, seed)
            pre = [est.best_pre_estimate(m, s) for s in range(1, n + 1)]
            direct = est.g_pre_of_guess(m, pre)
            assert abs(est.g_pre(m) - direct) <= 1e-10


class TestTradeoffBound:
    def test_endpoint_no_information(self):
        for d in (2, 3, 8):
            _, max_f = est.tradeoff_bound(d, 1.0 / d)
            assert max_f == pytest.approx(1.0, abs=1e-12)

    def test_endpoint_full_information(self):
        for d in (2, 4, 16):
            _, max_f = est.tradeoff_bound(d, 1.0)
            assert max_f == pytest.approx(2.0 / (d + 1), abs=1e-14)

    def test_qubit_midpoint(self):
        _, max_f = est.tradeoff_bound(2, 0.8)
        assert max_f == pytest.approx((1.0 + (np.sqrt(0.8) + np.sqrt(0.2)) ** 2) / 3, abs=1e-14)
        assert max_f == pytest.approx(2.8 / 3, abs=1e-12)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            est.tradeoff_bound(2, 0.3)
        with pytest.raises(OutOfDomain):
            est.tradeoff_bound(2, 1.1)
        with pytest.raises(OutOfDomain):
            est.tradeoff_bound(1, 0.9)


class TestCheckBound:
    def test_projective_qubit_equality(self):
        report = est.check_bound(catalog.projective(2))
        assert report.bound_lhs == pytest.approx(1.0, abs=1e-12)
        assert report.bound_rhs == pytest.approx(1.0, abs=1e-12)
        assert report.bound_satisfied

    def test_identity_qubit_equality(self):
        report = est.check_bound(catalog.identity_device(2))
        assert report.bound_lhs == pytest.approx(np.sqrt(2), abs=1e-12)
        assert report.bound_rhs == pytest.approx(np.sqrt(2), abs=1e-12)
        assert report.bound_satisfied

    def test_report_internal_consistency(self):
        m = catalog.random_device(3, 5, seed=81)
        report = est.check_bound(m)
        assert report.g_pre == pytest.approx((1 + report.g_post) / (m.dim + 1), abs=1e-14)
        assert report.per_outcome_a_max.shape == (5,)
        assert report.g_post == pytest.approx(report.per_outcome_a_max.sum() / m.dim, abs=1e-14)

    @pytest.mark.parametrize("n", [8, 12, 40])
    def test_closed_forms_agree_with_report_exactly(self, n):
        # One summation for g_post: a Python sum and numpy's pairwise sum differ in the last bit for n >= 8.
        for seed in range(25):
            m = catalog.random_device(2 + seed % 4, n, seed=3000 + seed)
            report = est.check_bound(m)
            assert est.g_post(m) == report.g_post == float(report.per_outcome_a_max.sum()) / m.dim
            assert est.g_pre(m) == report.g_pre

    def test_bound_holds_on_random_and_kicked_devices(self):
        for i in range(100):
            m = catalog.random_device(2 + i % 3, 2 + i % 4, seed=7000 + i)
            if i % 2:
                kicks = [
                    haar.haar_isometry(m.dim, m.dim, haar.RngStream(7500 + i, s))
                    for s in range(m.n_outcomes)
                ]
                m = catalog.with_kicks(m, kicks)
            assert est.check_bound(m).bound_satisfied

    def test_unsharp_family_saturates(self):
        for lam in np.linspace(0.0, 1.0, 11):
            report = est.check_bound(catalog.unsharp_qubit(lam))
            assert abs(report.bound_lhs - report.bound_rhs) <= 1e-9


class TestPureMeasurements:
    def test_projective_is_pure(self):
        assert est.is_pure_measurement(catalog.projective(3))

    def test_kicked_device_is_not_pure(self):
        assert not est.is_pure_measurement(bit_flip_unsharp())

    def test_one_stacked_eigensolve(self, monkeypatch):
        calls = []

        def counting(a):
            calls.append(np.shape(a))
            return hermitian_eig(a)

        monkeypatch.setattr(est, "hermitian_eig", counting)
        m = est.pure_part(catalog.random_device(3, 5, seed=92))
        assert est.is_pure_measurement(m)
        assert calls == [(5, 3, 3)]

    def test_hermitian_but_not_positive_is_not_pure(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        assert not est.is_pure_measurement(validate([z]))
        assert not est.is_pure_measurement(validate([np.eye(2) / np.sqrt(2), z / np.sqrt(2)]))

    def test_pure_part_strips_the_kick(self):
        m = bit_flip_unsharp()
        p = est.pure_part(m)
        assert est.is_pure_measurement(p)
        assert frobenius_distance(p.kraus_op(1), np.diag([np.sqrt(0.8), np.sqrt(0.2)])) < 1e-12

    def test_pure_part_idempotent_on_pure_device(self):
        m = catalog.unsharp_qubit(0.35)
        p = est.pure_part(m)
        for s in (1, 2):
            assert frobenius_distance(p.kraus_op(s), m.kraus_op(s)) < 1e-10

    def test_pure_part_preserves_statistics_and_fidelities(self):
        for i in range(20):
            m = catalog.random_device(2 + i % 3, 2 + i % 3, seed=8000 + i)
            p = est.pure_part(m)
            assert est.is_pure_measurement(p)
            assert abs(est.g_post(p) - est.g_post(m)) <= 1e-10
            assert abs(est.g_pre(p) - est.g_pre(m)) <= 1e-10
            psi = haar.haar_state(m.dim, haar.RngStream(8100 + i))
            assert np.allclose(m.outcome_distribution(psi), p.outcome_distribution(psi), atol=1e-12)

    def test_pure_part_generally_changes_operation_fidelity(self):
        m = bit_flip_unsharp()
        assert est.operation_fidelity(est.pure_part(m)) > est.operation_fidelity(m) + 0.1

    def test_pure_device_estimates_agree(self):
        devices = [catalog.unsharp_qubit(0.5), est.pure_part(catalog.random_device(3, 4, seed=91))]
        for m in devices:
            for s in range(1, m.n_outcomes + 1):
                if est.estimate_pair(m, s).degenerate:
                    continue
                pre = est.best_pre_estimate(m, s)
                post = est.best_post_estimate(m, s)
                assert overlap2(pre, post) >= 1.0 - 1e-9


class TestEstimateRelations:
    def test_bit_flip_kick_links(self):
        check = est.verify_estimate_relations(bit_flip_unsharp(), 1)
        assert not check.skipped
        assert check.unitary_link_ok and check.kraus_link_ok

    def test_pure_device_links(self):
        m = catalog.unsharp_qubit(0.7)
        for s in (1, 2):
            check = est.verify_estimate_relations(m, s)
            assert not check.skipped
            assert check.unitary_link_ok and check.kraus_link_ok

    def test_degenerate_is_skipped_not_guessed(self):
        check = est.verify_estimate_relations(catalog.unsharp_qubit(0.0), 1)
        assert check.skipped
        assert check.unitary_link_ok is None

    def test_random_sweep(self):
        for i in range(100):
            m = catalog.random_device(2 + i % 3, 2 + i % 4, seed=9000 + i)
            for s in range(1, m.n_outcomes + 1):
                check = est.verify_estimate_relations(m, s)
                if check.skipped:
                    continue
                assert check.unitary_link_ok and check.kraus_link_ok


class TestRankOneDevices:
    def test_basis_reduces_to_projective(self):
        basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        m = est.make_rank_one_device(basis, basis, weights=[1.0, 1.0])
        for s in (1, 2):
            assert frobenius_distance(m.kraus_op(s), catalog.projective(2).kraus_op(s)) < 1e-14

    def test_tetrahedron_with_arbitrary_posts(self):
        posts = list(haar.haar_states(2, 4, seed=13))
        m = catalog.tetrahedron_rank_one(posts)
        assert m.n_outcomes == 4 > m.dim
        assert est.g_post(m) == pytest.approx(1.0, abs=1e-10)
        assert est.g_pre(m) == pytest.approx(2.0 / 3, abs=1e-10)

    def test_underweighted_basis_rejected(self):
        basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        with pytest.raises(IncompleteDevice):
            est.make_rank_one_device(basis, basis, weights=[0.5, 0.5])

    def test_empty_device_rejected(self):
        with pytest.raises(DimensionMismatch):
            est.make_rank_one_device([], [], [])

    def test_pre_states_of_different_dimensions_rejected(self):
        pres = [[1.0, 0.0], [0.0, 1.0, 0.0]]
        with pytest.raises(DimensionMismatch, match="pre-state 2 has dimension 3, expected 2"):
            est.make_rank_one_device(pres, pres, weights=[1.0, 1.0])

    def test_nonpositive_weight_rejected(self):
        basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        with pytest.raises(OutOfDomain):
            est.make_rank_one_device(basis, basis, weights=[2.0, 0.0])

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, weight):
        basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        with pytest.raises(OutOfDomain):
            est.make_rank_one_device(basis, basis, weights=[weight, 1.0])


class TestDomainBoundary:
    def test_three_step_qubit_table(self):
        table = est.domain_boundary(2, 3)
        expected_middle = (1.0 + (np.sqrt(0.75) + np.sqrt(0.25)) ** 2) / 3
        assert np.allclose(table[:, 0], [0.5, 0.75, 1.0])
        assert table[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert table[1, 1] == pytest.approx(expected_middle, abs=1e-14)
        assert table[2, 1] == pytest.approx(2.0 / 3, abs=1e-14)

    def test_endpoints_any_dimension(self):
        for d in (2, 4, 8, 16):
            table = est.domain_boundary(d, 9)
            assert table[0, 0] == pytest.approx(1.0 / d, abs=1e-15)
            assert table[0, 1] == pytest.approx(1.0, abs=1e-12)
            assert table[-1, 0] == 1.0
            assert table[-1, 1] == pytest.approx(2.0 / (d + 1), abs=1e-12)

    def test_monotone_non_increasing(self):
        for d in (2, 3, 16):
            table = est.domain_boundary(d, 64)
            assert np.all(np.diff(table[:, 1]) <= 1e-14)

    def test_infinite_dimension_limit(self):
        table = est.domain_boundary(math.inf, 4)
        assert np.allclose(table[:, 0], [0.25, 0.5, 0.75, 1.0])
        assert np.allclose(table[:, 1], 1.0 - table[:, 0], atol=1e-15)

    def test_bad_steps(self):
        with pytest.raises(OutOfDomain):
            est.domain_boundary(2, 1)
