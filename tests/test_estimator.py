import math
import warnings

import numpy as np
import pytest

from conftest import corpus_params, overlap2, rand_complex
from qmeter import catalog, estimator as est, haar, measurement
from qmeter.errors import DimensionMismatch, IncompleteDevice, OutcomeOutOfRange, OutOfDomain
from qmeter.matkernel import (
    EIG_GAP_TOL,
    PHASE_TOL,
    canonicalize_phase,
    finite_scalar,
    hermitian_eig,
    _top_eigenvector,
)
from qmeter.measurement import Measurement

X = np.array([[0, 1], [1, 0]], dtype=complex)


def bit_flip_unsharp():
    """Unsharp qubit with a bit-flip kick on the first outcome."""
    return Measurement([X @ np.diag([np.sqrt(0.8), np.sqrt(0.2)]), np.diag([np.sqrt(0.2), np.sqrt(0.8)])])


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
        e = m.effects[0]
        residual = e @ pair.chi_pre - pair.a_max * pair.chi_pre
        assert np.linalg.norm(residual) <= 1e-9

    def test_dimension_one_is_never_degenerate(self):
        m = Measurement([[[0.6]], [[0.8]]])
        for s, a_max in ((1, 0.36), (2, 0.64)):
            pair = est.estimate_pair(m, s)
            assert not pair.degenerate
            assert pair.a_max == pytest.approx(a_max, abs=1e-15)
            assert not est.verify_estimate_relations(m, s).skipped

    def test_link_relation_matches_eigh_oracle(self):
        checked = 0
        for i in range(48):
            m = catalog.random_device((2, 4, 16)[i % 3], 2 + i % 4, seed=7000 + i)
            for s in range(1, m.n_outcomes + 1):
                values = m.spectrum.eigenvalues[s - 1]
                if values[0] - values[1] < EIG_GAP_TOL:
                    continue
                k = m.kraus_op(s)
                left = k @ k.conj().T
                oracle = np.linalg.eigh(left)[1][:, -1]
                post = est.best_post_estimate(m, s)
                assert overlap2(post, oracle) >= 1.0 - 1e-10
                lead = post[np.argmax(np.abs(post) > PHASE_TOL)]
                assert lead.real > 0.0 and lead.imag == pytest.approx(0.0, abs=1e-15)
                rayleigh = np.vdot(post, left @ post).real
                assert rayleigh == pytest.approx(values[0], abs=1e-12)
                checked += 1
        assert checked > 100

    @staticmethod
    def kicked(m, seed):
        kicks = [haar.haar_isometry(m.dim, m.dim, haar.RngStream(seed, s)) for s in range(m.n_outcomes)]
        return catalog.with_kicks(m, kicks)

    def test_degenerate_top_keeps_the_link_relation(self):
        p01, p23 = np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0])
        devices = [
            self.kicked(catalog.identity_device(3), 5),
            self.kicked(catalog.identity_device(16), 6),
            self.kicked(catalog.unsharp_qubit(0.0), 7),
            self.kicked(Measurement([np.sqrt(0.4) * p01, np.sqrt(0.6) * p01 + p23]), 8),
        ]
        for m in devices:
            pairs = [est.estimate_pair(m, s) for s in range(1, m.n_outcomes + 1)]
            for pair in pairs:
                assert pair.degenerate
                u = m.bi_orthogonal_factors(pair.outcome).unitary
                assert overlap2(pair.chi_post, u @ pair.chi_pre) >= 1.0 - 1e-12
            report = est.check_bound(m)
            assert est.g_post_of_guess(m, [p.chi_post for p in pairs]) == pytest.approx(report.g_post, abs=1e-12)
            assert est.g_pre_of_guess(m, [p.chi_pre for p in pairs]) == pytest.approx(report.g_pre, abs=1e-12)

    def test_degenerate_estimates_depend_only_on_the_eigenspace(self):
        # Outcome 1 has E_1 = 0.9 P for one rank-2 projector P (d = 4), rebuilt from 50 bases of its span.
        rng = np.random.default_rng(25)
        span = np.linalg.qr(rand_complex(rng, 4, 2))[0]
        picks = []
        for _ in range(50):
            b = span @ np.linalg.qr(rand_complex(rng, 2, 2))[0]
            p = b @ b.conj().T
            m = Measurement([np.sqrt(0.9) * p, np.eye(4) - p + np.sqrt(0.1) * p])
            picks.append((est.best_pre_estimate(m, 1), est.best_post_estimate(m, 1)))
        for pre, post in picks:
            assert overlap2(pre, picks[0][0]) >= 1.0 - 1e-12
            assert overlap2(post, picks[0][1]) >= 1.0 - 1e-12

    def test_tie_broken_estimate_in_the_kernel_falls_back_to_chi_pre(self):
        # The top of E_1 = diag(0, 5e-11) is degenerate (and its a_max of 5e-11 is not vanishing); the
        # tie-broken chi_pre = e_1 lies in the kernel of M_1, so M_1 chi_pre cannot be normalized.
        m = Measurement([np.diag([0.0, np.sqrt(5e-11)]), np.diag([1.0, np.sqrt(1.0 - 5e-11)])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = [est.estimate_pair(m, s) for s in (1, 2)]
        for pair in pairs:
            assert pair.degenerate
            assert np.allclose(pair.chi_pre, [1.0, 0.0], rtol=0.0, atol=1e-12)
            assert np.allclose(pair.chi_post, [1.0, 0.0], rtol=0.0, atol=1e-12)


def mixed_top_device():
    """d = 4, three outcomes: a kicked rank-2 top (``E_1 = 0.7 P``) next to two gapped ones."""
    rng = np.random.default_rng(31)
    span = np.linalg.qr(rand_complex(rng, 4, 2))[0]
    p = span @ span.conj().T
    rest = np.eye(4) - 0.7 * p
    values, vectors = np.linalg.eigh(rest)
    root = (vectors * np.sqrt(values)) @ vectors.conj().T
    split = haar.haar_isometry(8, 4, haar.RngStream(32)).reshape(2, 4, 4)
    kick = haar.haar_isometry(4, 4, haar.RngStream(33))
    return Measurement([kick @ (np.sqrt(0.7) * p), *(split @ root)])


def one_path_devices():
    """Random, kicked, degenerate, vanishing, d = 1 and mixed-top devices: every branch of ``estimate_pairs``."""
    kick = [haar.haar_isometry(3, 3, haar.RngStream(5, 0))]
    return [
        catalog.random_device(3, 4, seed=81),
        catalog.random_device(16, 2, seed=82),
        bit_flip_unsharp(),
        catalog.with_kicks(catalog.identity_device(3), kick),
        catalog.unsharp_qubit(0.0),
        Measurement([np.diag([0.0, np.sqrt(5e-11)]), np.diag([1.0, np.sqrt(1.0 - 5e-11)])]),
        Measurement([np.zeros((2, 2)), np.eye(2)]),
        Measurement([[[0.6]], [[0.8]]]),
        Measurement([X @ np.diag([1e-7, 0.0]), np.diag([np.sqrt(1.0 - 1e-14), 1.0])]),  # ||M_1 chi_pre||^2 = 1e-14
        mixed_top_device(),
    ]


class TestOnePath:
    """``estimate_pairs`` is the one computation; the single-estimate functions only copy its fields."""

    @pytest.mark.parametrize("m", one_path_devices())
    def test_wrappers_return_the_pair_fields_bit_for_bit(self, m, monkeypatch):
        pairs, original = [], est.estimate_pair

        def recording(m, s):
            pairs.append(original(m, s))
            return pairs[-1]

        monkeypatch.setattr(est, "estimate_pair", recording)
        for s in range(1, m.n_outcomes + 1):
            for wrapper, field in ((est.best_pre_estimate, "chi_pre"), (est.best_post_estimate, "chi_post")):
                guess = wrapper(m, s)
                frozen_field = getattr(pairs[-1], field)
                assert guess.tobytes() == frozen_field.tobytes()
                assert guess.tobytes() == getattr(original(m, s), field).tobytes()
                assert guess.flags.writeable and not frozen_field.flags.writeable
                assert not np.shares_memory(guess, frozen_field)

    def test_one_top_eigenvector_per_pair(self, monkeypatch):
        # A per-outcome entry point makes the stacked pass over its one row; estimate_pairs over all outcomes.
        calls = []

        def counting(values, vectors):
            calls.append(values.shape)
            return _top_eigenvector(values, vectors)

        monkeypatch.setattr(est, "_top_eigenvector", counting)
        entry_points = (est.estimate_pair, est.best_post_estimate, est.best_pre_estimate, est.verify_estimate_relations)
        for m in one_path_devices():
            for s in range(1, m.n_outcomes + 1):
                for call in entry_points:
                    calls.clear()
                    call(m, s)
                    assert calls == [(1, m.dim)]
            calls.clear()
            est.estimate_pairs(m)
            assert calls == [(m.n_outcomes, m.dim)]

    def test_vanishing_top_keeps_chi_pre(self):
        m = Measurement([np.zeros((2, 2)), np.eye(2)])
        pair = est.estimate_pair(m, 1)
        assert pair.a_max == 0.0 and pair.degenerate
        assert np.array_equal(pair.chi_post, pair.chi_pre)
        assert est.verify_estimate_relations(m, 1).reason == "a_max is numerically zero"


def per_outcome_pair(m, s):
    """The per-outcome rule the stacked pass replaced, kept as its reference: ``(a_max, chi_pre, chi_post, flag)``.

    Column 0 for a gapped top, else the largest column of the group-slice projector; ``M_s chi_pre`` normalized
    by its root sum of squared moduli; each vector phase-fixed on its own.
    """
    values, vectors = m.spectrum.eigenvalues[s - 1], m.spectrum.eigenvectors[s - 1]
    width = int(np.argmax(np.append(values[:-1] - values[1:] >= EIG_GAP_TOL, True))) + 1
    if width == 1:
        chi_pre = vectors[:, 0]
    else:
        projector = vectors[:, :width] @ vectors[:, :width].conj().T
        norms = np.sqrt(np.sum(projector.real**2 + projector.imag**2, axis=0))
        j = int(np.argmax(norms >= (1.0 - EIG_GAP_TOL) * norms.max()))
        chi_pre = canonicalize_phase(projector[:, j] / norms[j])
    v = m.kraus[s - 1] @ chi_pre
    norm = np.sqrt(np.sum(v.real**2 + v.imag**2))
    chi_post = chi_pre if norm * norm <= est.A_MAX_FLOOR else canonicalize_phase(v / norm)
    return max(float(values[0]), 0.0), chi_pre, chi_post, width > 1


class TestStackedPass:
    """``estimate_pairs`` against the per-outcome rule, bit for bit."""

    @pytest.mark.parametrize("m", one_path_devices())
    def test_matches_the_per_outcome_rule_bit_for_bit(self, m):
        pairs = est.estimate_pairs(m)
        assert [p.outcome for p in pairs] == list(range(1, m.n_outcomes + 1))
        for pair in pairs:
            a_max, chi_pre, chi_post, degenerate = per_outcome_pair(m, pair.outcome)
            assert np.float64(pair.a_max).tobytes() == np.float64(a_max).tobytes()
            assert pair.chi_pre.tobytes() == chi_pre.tobytes()
            assert pair.chi_post.tobytes() == chi_post.tobytes()
            assert pair.degenerate is degenerate
            again = est.estimate_pair(m, pair.outcome)
            assert (again.a_max, again.degenerate) == (pair.a_max, pair.degenerate)
            assert again.chi_pre.tobytes() == chi_pre.tobytes() and again.chi_post.tobytes() == chi_post.tobytes()

    def test_mixed_stack_has_gapped_and_degenerate_rows(self):
        m = mixed_top_device()
        assert [p.degenerate for p in est.estimate_pairs(m)] == [True, False, False]
        values = m.spectrum.eigenvalues[0]
        assert values[1] - values[2] > 0.5 and values[0] - values[1] < EIG_GAP_TOL  # the top group has width 2

    def test_vectors_are_read_only_rows_of_one_stack(self):
        pairs = est.estimate_pairs(catalog.random_device(3, 4, seed=84))
        for field in ("chi_pre", "chi_post"):
            rows = [getattr(p, field) for p in pairs]
            assert all(not row.flags.writeable and row.base is rows[0].base for row in rows)
            assert rows[0].base.shape == (4, 3)

    def test_outcome_is_gated_before_the_pass(self, monkeypatch):
        m = catalog.random_device(3, 2, seed=85)
        monkeypatch.setattr(est, "_estimate_rows", lambda m, rows: pytest.fail("computed before the gate"))
        for s in (0, 3, 1.5, True):
            with pytest.raises(OutcomeOutOfRange):
                est.estimate_pair(m, s)


class TestMeanFidelities:
    def test_projective_g_post_is_one(self):
        for d in (2, 3, 5):
            assert est.check_bound(catalog.projective(d)).g_post == pytest.approx(1.0, abs=1e-12)

    def test_identity_g_post_is_inverse_dim(self):
        for d in (2, 3, 4):
            assert est.check_bound(catalog.identity_device(d)).g_post == pytest.approx(1.0 / d, abs=1e-12)

    def test_unsharp_g_post(self):
        assert est.check_bound(catalog.unsharp_qubit(0.6)).g_post == pytest.approx(0.8, abs=1e-12)

    def test_g_pre_values(self):
        assert est.check_bound(catalog.projective(3)).g_pre == pytest.approx(0.5, abs=1e-12)
        assert est.check_bound(catalog.identity_device(2)).g_pre == pytest.approx(0.5, abs=1e-12)
        assert est.check_bound(catalog.unsharp_qubit(0.6)).g_pre == pytest.approx(0.6, abs=1e-12)

    def test_operation_fidelity_values(self):
        assert est.operation_fidelity(catalog.identity_device(2)) == pytest.approx(1.0, abs=1e-14)
        assert est.operation_fidelity(catalog.projective(3)) == pytest.approx(0.5, abs=1e-14)
        assert est.operation_fidelity(catalog.unsharp_qubit(0.6)) == pytest.approx(2.8 / 3, abs=1e-12)

    def test_g_post_bounds_sweep(self):
        for d, n, seed in corpus_params(60, seed_base=3000):
            m = catalog.random_device(d, n, seed)
            g = est.check_bound(m).g_post
            assert 1.0 / d - 1e-10 <= g <= 1.0 + 1e-10


class TestGuessFidelities:
    def test_optimal_guesses_attain_maximum(self):
        m = catalog.random_device(3, 4, seed=71)
        post = [est.best_post_estimate(m, s) for s in range(1, 5)]
        pre = [est.best_pre_estimate(m, s) for s in range(1, 5)]
        assert est.g_post_of_guess(m, post) == pytest.approx(est.check_bound(m).g_post, abs=1e-12)
        assert est.g_pre_of_guess(m, pre) == pytest.approx(est.check_bound(m).g_pre, abs=1e-12)

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
            gp = est.check_bound(m).g_post
            gpre = est.check_bound(m).g_pre
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
            assert abs(est.check_bound(m).g_pre - direct) <= 1e-10


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

    def test_saturating_value_is_check_bounds_right_side(self):
        for d, n, seed in corpus_params(40, seed_base=6100):
            report = est.check_bound(catalog.random_device(d, n, seed))
            assert 1.0 / d <= report.g_post <= 1.0
            assert est.tradeoff_bound(d, report.g_post)[0] == report.bound_rhs

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
        a_maxes = np.array([p.a_max for p in est.estimate_pairs(m)])
        assert a_maxes.shape == (5,)
        assert report.g_post == pytest.approx(a_maxes.sum() / m.dim, abs=1e-14)

    def test_f_op_is_the_scalar_formula_bit_for_bit(self):
        # Each |tr M_s| rounds as scalar abs does; array abs differs in the last bit on about 9 % of these devices.
        for i in range(1000):
            d = (2, 3, 4, 8, 16)[i % 5]
            m = catalog.random_device(d, 4, 7000 + i)
            traces = np.trace(m.kraus, axis1=1, axis2=2).tolist()
            assert est.check_bound(m).f_op == (d + sum(abs(t) ** 2 for t in traces)) / (d * (d + 1)), (d, i)

    @pytest.mark.parametrize("n", [8, 12, 40])
    def test_closed_forms_agree_with_report_exactly(self, n):
        # One summation for g_post: a Python sum and numpy's pairwise sum differ in the last bit for n >= 8.
        for seed in range(25):
            m = catalog.random_device(2 + seed % 4, n, seed=3000 + seed)
            report = est.check_bound(m)
            a_maxes = np.array([p.a_max for p in est.estimate_pairs(m)])
            assert est.check_bound(m).g_post == report.g_post == float(a_maxes.sum()) / m.dim
            assert est.check_bound(m).g_pre == report.g_pre

    def test_fidelities_exceed_one_by_at_most_the_defect(self):
        # A device accepted with defect t <= 1/2 has g_post <= 1 + t/sqrt(d) and F <= 1 + sqrt(d) t/(d + 1).
        rng = np.random.default_rng(83)
        checked = 0
        for i in range(200):
            d, n = 1 + i % 4, 1 + i % 3
            kraus = catalog.random_device(max(d, 2), n, seed=8300 + i).kraus[:, :d, :d] * rng.uniform(0.8, 1.4)
            kraus = kraus + 0.1 * rng.uniform() * rand_complex(rng, n * d, d).reshape(n, d, d)
            try:
                m = Measurement(kraus, tolerance=0.5)
            except IncompleteDevice:
                continue
            t, report = m.completeness_defect, est.check_bound(m)
            assert report.g_post <= 1.0 + t / math.sqrt(d) + 1e-12
            assert report.f_op <= 1.0 + math.sqrt(d) * t / (d + 1) + 1e-12
            checked += 1
        assert checked >= 50

    @pytest.mark.parametrize("d", [2, 4, 16])
    def test_scaled_devices_attain_the_defect_bounds(self, d):
        # c * (a projective device) attains the g_post bound, c * (the identity device) the F bound.
        t = 0.49
        c = math.sqrt(1.0 + t / math.sqrt(d))
        proj, ident = (
            Measurement(c * m.kraus, tolerance=0.5) for m in (catalog.projective(d), catalog.identity_device(d))
        )
        assert proj.completeness_defect == pytest.approx(t, abs=1e-12)
        assert ident.completeness_defect == pytest.approx(t, abs=1e-12)
        assert est.check_bound(proj).g_post == pytest.approx(1.0 + t / math.sqrt(d), abs=1e-12)
        assert est.operation_fidelity(ident) == pytest.approx(1.0 + math.sqrt(d) * t / (d + 1), abs=1e-12)

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


class TestBoundAtTheDefect:
    """``check_bound`` judges a device by what its exactly complete completion ``M_s S^{-1/2}`` can read."""

    # Saturating devices scaled off completeness, accepted, with sides that differ by more than BOUND_SLACK.
    REPROS = {
        "unsharp_0.999_default_tolerance": (0.999, math.sqrt(1.0 + 5e-11), None, 7.1e-11),
        "unsharp_0.6_tolerance_one_half": (0.6, 1.0 + 5e-7, 0.5, 1.41e-6),
    }

    @pytest.mark.parametrize("case", list(REPROS))
    def test_accepted_saturating_device_satisfies_the_bound(self, case):
        strength, scale, tolerance, defect = self.REPROS[case]
        m = Measurement(scale * catalog.unsharp_qubit(strength).kraus, tolerance=tolerance)
        assert m.completeness_defect == pytest.approx(defect, rel=1e-2)
        report = est.check_bound(m)
        assert report.bound_lhs - report.bound_rhs > est.BOUND_SLACK
        assert report.bound_satisfied

    @staticmethod
    def catalog_devices():
        yield from (catalog.projective(d) for d in (2, 3, 8))
        yield from (catalog.identity_device(d) for d in (1, 2, 5))
        yield from (catalog.unsharp_qubit(lam) for lam in np.linspace(0.0, 1.0, 21))
        yield from (catalog.random_device(d, 4, seed) for d in (2, 4, 16) for seed in range(50))
        yield catalog.tetrahedron_rank_one()
        yield catalog.with_kicks(
            catalog.unsharp_qubit(0.3), [haar.haar_isometry(2, 2, haar.RngStream(5, s)) for s in range(2)]
        )

    def test_verdict_is_lhs_against_rhs_on_catalog_devices(self):
        for m in self.catalog_devices():
            report = est.check_bound(m)
            assert report.bound_satisfied == (report.bound_lhs <= report.bound_rhs + est.BOUND_SLACK)

    def test_a_raised_operation_fidelity_is_still_rejected(self, monkeypatch):
        m = catalog.unsharp_qubit(0.5)
        assert est.check_bound(m).bound_satisfied
        fidelity_of_moduli = est._fidelity_of_moduli
        monkeypatch.setattr(est, "_fidelity_of_moduli", lambda d, moduli: fidelity_of_moduli(d, moduli) * (1.0 + 1e-9))
        assert not est.check_bound(m).bound_satisfied

    @staticmethod
    def completed(m):
        """``M_s S^{-1/2}`` from plain numpy ``eigh``: the oracle's one extra eigensolve."""
        k = m.kraus
        w, v = np.linalg.eigh(np.sum(k.conj().swapaxes(1, 2) @ k, axis=0))
        return k @ ((v / np.sqrt(w)) @ v.conj().T)

    def off_complete_devices(self):
        """Unsharp qubits and random devices scaled and perturbed off completeness, and exactly scaled devices.

        A shrunken identity ``c 1`` on d = 1 puts its completion's ``g_post`` on the range's upper end, and a
        stretched projective device has ``g_post > 1``.
        """
        rng = np.random.default_rng(2911)
        for i in range(150):
            if i % 5 == 4:
                k = (i // 5) % 4
                d = (1, 2, 2, 4)[k]
                c = math.sqrt(1.0 + (1 if k >= 2 else -1) * rng.uniform(0.0, 0.49) / math.sqrt(d))
                yield Measurement(c * (catalog.projective(d).kraus if k >= 2 else np.eye(d)[None]), tolerance=0.5)
                continue
            if i % 2:
                m = catalog.unsharp_qubit(rng.uniform())
            else:
                m = catalog.random_device((3, 8)[i % 4 // 2], 4, seed=2900 + i)
            n, d = m.n_outcomes, m.dim
            noise = rand_complex(rng, n * d, d).reshape(n, d, d)
            scale = 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -1)
            kraus = scale * m.kraus + 10.0 ** rng.uniform(-12, -1) * noise
            try:
                yield Measurement(kraus, tolerance=0.5)
            except IncompleteDevice:
                continue

    def test_completion_lies_in_the_range(self):
        checked = 0
        for m in self.off_complete_devices():
            report = est.check_bound(m)
            g_lo, g_hi, f_lo = est._completion_range(m, report.g_post, est._trace_moduli(m))
            k = self.completed(m)
            d = m.dim
            g = np.linalg.eigvalsh(k.conj().swapaxes(1, 2) @ k)[:, -1].sum() / d
            f = (d + np.sum(np.abs(np.trace(k, axis1=1, axis2=2)) ** 2)) / (d * (d + 1))
            # The completion obeys the bound, so the verdict may not reject the device.
            assert math.sqrt((d + 1) * f - 1.0) <= est._bound_rhs(d, g) + 1e-12
            assert report.bound_satisfied
            assert g_lo - 1e-14 <= g <= g_hi + 1e-14, (m.completeness_defect, g_lo, g, g_hi)
            assert f >= f_lo - 1e-14, (m.completeness_defect, f, f_lo)
            checked += 1
        assert checked >= 140


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

    def test_stacked_forms_match_per_outcome_loops(self):
        # The per-outcome loops these forms replaced, kept as the reference: results must be bit-equal.
        kicked = catalog.with_kicks(catalog.identity_device(3), [haar.haar_isometry(3, 3, haar.RngStream(5, 0))])
        devices = [catalog.random_device(d, n, seed=93) for d, n in [(2, 3), (4, 9), (16, 4)]]
        devices += [kicked, catalog.tetrahedron_rank_one(), Measurement([[[0.6]], [[0.8]]]), est.pure_part(kicked)]
        for m in devices:
            roots, a_maxes, pure = [], [], True
            for values, v, k in zip(m.spectrum.eigenvalues, m.spectrum.eigenvectors, m.kraus):
                root = (v * np.sqrt(measurement._floored_psd_eigenvalues(values))) @ v.conj().T
                roots.append(0.5 * (root + root.conj().T))
                a_maxes.append(max(float(values[0]), 0.0))
                if np.linalg.norm(k - k.conj().T) > est.PURITY_TOL * max(1.0, np.linalg.norm(k)):
                    pure = False
                elif hermitian_eig(0.5 * (k + k.conj().T)).eigenvalues[-1] < -est.PURITY_TOL:
                    pure = False
            assert np.array_equal(est.pure_part(m).kraus, np.array(roots))
            assert np.array_equal([p.a_max for p in est.estimate_pairs(m)], a_maxes)
            assert est.check_bound(m).g_post == float(np.sum(a_maxes)) / m.dim
            assert est.is_pure_measurement(m) == pure

    def test_hermitian_but_not_positive_is_not_pure(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        assert not est.is_pure_measurement(Measurement([z]))
        assert not est.is_pure_measurement(Measurement([np.eye(2) / np.sqrt(2), z / np.sqrt(2)]))

    def test_pure_part_strips_the_kick(self):
        m = bit_flip_unsharp()
        p = est.pure_part(m)
        assert est.is_pure_measurement(p)
        assert np.linalg.norm(p.kraus_op(1) - np.diag([np.sqrt(0.8), np.sqrt(0.2)])) < 1e-12

    def test_pure_part_idempotent_on_pure_device(self):
        m = catalog.unsharp_qubit(0.35)
        p = est.pure_part(m)
        for s in (1, 2):
            assert np.linalg.norm(p.kraus_op(s) - m.kraus_op(s)) < 1e-10

    def test_pure_part_preserves_statistics_and_fidelities(self):
        for i in range(20):
            m = catalog.random_device(2 + i % 3, 2 + i % 3, seed=8000 + i)
            p = est.pure_part(m)
            assert est.is_pure_measurement(p)
            assert abs(est.check_bound(p).g_post - est.check_bound(m).g_post) <= 1e-10
            assert abs(est.check_bound(p).g_pre - est.check_bound(m).g_pre) <= 1e-10
            psi = haar.haar_state(m.dim, haar.RngStream(8100 + i))
            assert np.allclose(m.outcome_distribution(psi), p.outcome_distribution(psi), atol=1e-12)

    def test_pure_part_of_a_near_degenerate_effect(self):
        # E_1 = diag(0, 9e-11): the two values form one group, and sqrt(E_1) must still pair each with its vector.
        m = Measurement([np.diag([0.0, np.sqrt(9e-11)]), np.diag([1.0, np.sqrt(1.0 - 9e-11)])])
        p = est.pure_part(m)
        for s in (1, 2):
            assert np.linalg.norm(p.kraus_op(s) - m.kraus_op(s)) <= 1e-15

    def test_pure_part_of_a_device_accepted_at_its_own_tolerance(self):
        # Rebuilding sqrt(E_s) moves the completeness defect by rounding; the pure part keeps m's tolerance and is
        # checked at m's slack.
        for seed in range(300):
            m = catalog.random_device(4, 3, seed)
            m = Measurement(m.kraus, tolerance=m.completeness_defect)
            p = est.pure_part(m)
            assert p.tolerance == m.tolerance
            assert np.allclose(p.effects, m.effects, rtol=0.0, atol=1e-12)

    def test_devices_accepted_at_the_tolerance_cap_can_be_rebuilt(self):
        # A defect just below the 0.5 cap can round above it in a rebuild; each rebuild is checked at the slack.
        accepted = 0
        for seed in range(300):
            d, n = 2 + seed % 3, 1 + seed % 2
            u = haar.haar_state(d, haar.RngStream(seed, 5))
            delta = np.nextafter(0.5, 0.0) if seed % 2 else 0.5 - 1e-15
            stretch = np.eye(d) + (np.sqrt(1.0 + delta) - 1.0) * np.outer(u, u.conj())
            try:
                m = Measurement(catalog.random_device(d, n, seed).kraus @ stretch, tolerance=0.5)
            except IncompleteDevice:
                continue
            accepted += 1
            kicks = [haar.haar_isometry(d, d, haar.RngStream(seed, 10 + s)) for s in range(n)]
            for derived in (est.pure_part(m), catalog.with_kicks(m, kicks), est.pure_part(est.pure_part(m))):
                assert derived.tolerance == 0.5
                est.check_bound(derived)
                est.estimate_pairs(derived)
        assert accepted == 280

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
            assert np.linalg.norm(m.kraus_op(s) - catalog.projective(2).kraus_op(s)) < 1e-14

    def test_tetrahedron_with_arbitrary_posts(self):
        posts = list(haar.haar_states(2, 4, seed=13))
        m = catalog.tetrahedron_rank_one(posts)
        assert m.n_outcomes == 4 > m.dim
        assert est.check_bound(m).g_post == pytest.approx(1.0, abs=1e-10)
        assert est.check_bound(m).g_pre == pytest.approx(2.0 / 3, abs=1e-10)

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

    def test_table_is_the_per_step_tradeoff_bound_bit_for_bit(self):
        for d in [*range(2, 65), 10**15, 10**300]:
            for steps in (2, 3, 101, 1000):
                table = est.domain_boundary(d, steps)
                per_step = [est.tradeoff_bound(d, float(g))[1] for g in table[:, 0]]
                assert table[:, 1].tobytes() == np.array(per_step).tobytes(), (d, steps)

    def test_grid_is_gated_once_not_per_step(self, monkeypatch):
        gated = []

        def counting(x, *args, **kwargs):
            gated.append(x)
            return finite_scalar(x, *args, **kwargs)

        def per_step(*args):
            raise AssertionError("domain_boundary must not call tradeoff_bound")

        monkeypatch.setattr(est, "finite_scalar", counting)
        monkeypatch.setattr(est, "tradeoff_bound", per_step)
        assert est.domain_boundary(4, 1000).shape == (1000, 2)
        assert gated == [1000, 4]
