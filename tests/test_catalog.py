import numpy as np
import pytest

from qmeter import catalog, estimator as est, haar
from qmeter.errors import NotUnitary, OutOfDomain
from qmeter.measurement import Measurement

X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestProjective:
    def test_qubit_operators(self):
        m = catalog.projective(2)
        assert np.linalg.norm(m.kraus_op(1) - np.diag([1.0, 0.0])) == 0.0
        assert np.linalg.norm(m.kraus_op(2) - np.diag([0.0, 1.0])) == 0.0

    def test_fidelities_d3(self):
        m = catalog.projective(3)
        assert est.check_bound(m).g_post == pytest.approx(1.0, abs=1e-12)
        assert est.operation_fidelity(m) == pytest.approx(0.5, abs=1e-14)

    def test_is_pure(self):
        assert est.is_pure_measurement(catalog.projective(4))

    def test_rejects_small_dimension(self):
        with pytest.raises(OutOfDomain):
            catalog.projective(1)


class TestIdentityDevice:
    def test_fidelities(self):
        m = catalog.identity_device(2)
        assert est.operation_fidelity(m) == pytest.approx(1.0, abs=1e-14)
        assert est.check_bound(m).g_post == pytest.approx(0.5, abs=1e-12)
        assert est.check_bound(m).g_pre == pytest.approx(0.5, abs=1e-12)

    def test_collapse_is_identity(self):
        m = catalog.identity_device(3)
        psi = haar.haar_state(3, haar.RngStream(1))
        assert np.allclose(m.collapse(psi, 1), psi, atol=1e-14)


class TestUnsharpQubit:
    def test_zero_strength_is_scaled_identity(self):
        m = catalog.unsharp_qubit(0.0)
        for s in (1, 2):
            assert np.linalg.norm(m.kraus_op(s) - np.eye(2) / np.sqrt(2)) < 1e-15
        assert est.check_bound(m).g_post == pytest.approx(0.5, abs=1e-12)

    def test_full_strength_is_projective(self):
        m = catalog.unsharp_qubit(1.0)
        assert np.linalg.norm(m.kraus_op(1) - np.diag([1.0, 0.0])) < 1e-15
        assert np.linalg.norm(m.kraus_op(2) - np.diag([0.0, 1.0])) < 1e-15

    def test_intermediate_values(self):
        m = catalog.unsharp_qubit(0.6)
        assert est.check_bound(m).g_post == pytest.approx(0.8, abs=1e-12)
        assert est.operation_fidelity(m) == pytest.approx(2.8 / 3, abs=1e-12)
        report = est.check_bound(m)
        assert abs(report.bound_lhs - report.bound_rhs) <= 1e-9

    def test_analytic_identities_on_grid(self):
        for lam in np.linspace(0.0, 1.0, 11):
            m = catalog.unsharp_qubit(lam)
            assert est.check_bound(m).g_post == pytest.approx((1 + lam) / 2, abs=1e-10)
            assert est.operation_fidelity(m) == pytest.approx((2 + np.sqrt(1 - lam * lam)) / 3, abs=1e-10)

    def test_domain(self):
        with pytest.raises(OutOfDomain):
            catalog.unsharp_qubit(-0.1)
        with pytest.raises(OutOfDomain):
            catalog.unsharp_qubit(1.1)


class TestRandomDevice:
    def test_validates(self):
        for seed in range(10):
            m = catalog.random_device(3, 4, seed)
            assert m.completeness_defect <= 1e-10

    def test_deterministic_per_seed(self):
        a = catalog.random_device(3, 5, seed=42)
        b = catalog.random_device(3, 5, seed=42)
        for ka, kb in zip(a.kraus, b.kraus):
            assert np.array_equal(ka, kb)

    def test_distinct_seeds_differ(self):
        a = catalog.random_device(2, 2, seed=1)
        b = catalog.random_device(2, 2, seed=2)
        assert np.linalg.norm(a.kraus_op(1) - b.kraus_op(1)) > 1e-3

    def test_g_post_in_bounds_for_1000_seeds(self):
        for seed in range(1000):
            m = catalog.random_device(2, 2, seed=seed)
            g = est.check_bound(m).g_post
            assert 0.5 - 1e-10 <= g <= 1.0 + 1e-10


class TestWithKicks:
    def test_identity_kicks_leave_device_unchanged(self):
        m = catalog.unsharp_qubit(0.6)
        kicked = catalog.with_kicks(m, [np.eye(2), np.eye(2)])
        for s in (1, 2):
            assert np.linalg.norm(kicked.kraus_op(s) - m.kraus_op(s)) == 0.0

    def test_bit_flip_kick_changes_f_not_g(self):
        m = catalog.unsharp_qubit(0.6)
        kicked = catalog.with_kicks(m, [X, np.eye(2)])
        assert est.check_bound(kicked).g_post == pytest.approx(0.8, abs=1e-12)
        assert est.operation_fidelity(kicked) < 2.8 / 3 - 0.1

    def test_effects_exactly_preserved(self):
        for i in range(20):
            m = catalog.random_device(2 + i % 3, 2 + i % 3, seed=100 + i)
            kicks = [
                haar.haar_isometry(m.dim, m.dim, haar.RngStream(200 + i, s))
                for s in range(m.n_outcomes)
            ]
            kicked = catalog.with_kicks(m, kicks)
            for s in range(1, m.n_outcomes + 1):
                assert np.linalg.norm(kicked.effects[s - 1] - m.effects[s - 1]) <= 1e-12

    def test_kicked_devices_respect_bound(self):
        for i in range(30):
            m = catalog.random_device(2 + i % 3, 2 + i % 4, seed=300 + i)
            kicks = [
                haar.haar_isometry(m.dim, m.dim, haar.RngStream(400 + i, s))
                for s in range(m.n_outcomes)
            ]
            assert est.check_bound(catalog.with_kicks(m, kicks)).bound_satisfied

    def test_device_accepted_at_its_own_tolerance_can_be_kicked(self):
        # Kicking moves the completeness defect by rounding; the kicked set keeps m's tolerance and is checked
        # at m's slack.
        devices = [Measurement(catalog.projective(3).kraus, tolerance=0.0)]
        for seed in range(300):
            m = catalog.random_device(4, 3, seed)
            devices.append(Measurement(m.kraus, tolerance=m.completeness_defect))
        for i, m in enumerate(devices):
            kicks = [haar.haar_isometry(m.dim, m.dim, haar.RngStream(600 + i, s)) for s in range(m.n_outcomes)]
            kicked = catalog.with_kicks(m, kicks)
            assert kicked.tolerance == m.tolerance
            assert np.allclose(kicked.effects, m.effects, rtol=0.0, atol=1e-12)

    def test_non_unitary_kick_rejected(self):
        m = catalog.unsharp_qubit(0.6)
        with pytest.raises(NotUnitary):
            catalog.with_kicks(m, [0.5 * np.eye(2), np.eye(2)])


class TestTetrahedron:
    def test_effects_resolve_identity(self):
        m = catalog.tetrahedron_rank_one()
        total = m.effects.sum(axis=0)
        assert np.linalg.norm(total - np.eye(2)) <= 1e-10

    def test_more_outcomes_than_dimensions(self):
        m = catalog.tetrahedron_rank_one()
        assert m.n_outcomes == 4
        assert m.dim == 2

    def test_g_pre_value(self):
        assert est.check_bound(catalog.tetrahedron_rank_one()).g_pre == pytest.approx(2.0 / 3, abs=1e-10)

    def test_g_post_is_one_for_any_posts(self):
        for seed in (1, 2, 3):
            posts = list(haar.haar_states(2, 4, seed=seed))
            m = catalog.tetrahedron_rank_one(posts)
            assert est.check_bound(m).g_post == pytest.approx(1.0, abs=1e-10)

    def test_default_posts_make_it_pure(self):
        assert est.is_pure_measurement(catalog.tetrahedron_rank_one())


class TestBlochState:
    def test_poles(self):
        assert np.allclose(catalog.bloch_state([0, 0, 1]), [1.0, 0.0], atol=1e-15)
        assert np.allclose(catalog.bloch_state([0, 0, -1]), [0.0, 1.0], atol=1e-12)

    def test_equator(self):
        plus = catalog.bloch_state([1, 0, 0])
        assert np.allclose(plus, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-15)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-300])
    def test_length_does_not_matter_beyond_the_float_range_of_its_squares(self, scale):
        for direction in ([0.0, 1.0, 0.0], [0.0, 0.0, -1.0], [0.3, -0.4, 0.5]):
            expected = catalog.bloch_state(direction)
            assert np.allclose(catalog.bloch_state(np.array(direction) * scale), expected, atol=1e-15)

    def test_every_catalog_device_validates(self):
        devices = [
            catalog.projective(5),
            catalog.identity_device(4),
            catalog.unsharp_qubit(0.3),
            catalog.random_device(4, 3, seed=9),
            catalog.tetrahedron_rank_one(),
        ]
        for m in devices:
            assert m.completeness_defect <= 1e-10
