import math
import random
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import overlap2, rand_complex
from qmeter import catalog, estimator as est, haar, measurement
from qmeter.errors import (
    DimensionMismatch,
    IncompleteDevice,
    InternalConsistencyError,
    NotUnitary,
    OutcomeOutOfRange,
    OutOfDomain,
    QmeterError,
    ShapeMismatch,
    ZeroProbabilityOutcome,
)
from qmeter.matkernel import EigenSystem, hermitian_eig
from qmeter.measurement import Measurement

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
BASIS = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]


class TestValidate:
    def test_single_unitary_kraus(self):
        m = Measurement([np.eye(2)])
        assert m.n_outcomes == 1 and m.dim == 2

    def test_projective_pair(self):
        m = Measurement([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert m.n_outcomes == 2 and m.dim == 2
        assert m.completeness_defect < 1e-15

    def test_incomplete_device_defect(self):
        with pytest.raises(IncompleteDevice) as err:
            Measurement([0.9 * np.eye(2)])
        assert err.value.defect == pytest.approx(0.19 * np.sqrt(2), abs=1e-12)

    def test_incomplete_device_names_tolerance(self):
        ops = [np.sqrt(0.999) * np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        with pytest.raises(IncompleteDevice) as err:
            Measurement(ops, tolerance=0)
        assert err.value.tolerance == 0.0
        assert err.value.defect == pytest.approx(0.001, abs=1e-12)
        assert str(err.value) == "effects do not sum to identity (defect 0.001 exceeds tolerance 0)"

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatch):
            Measurement([np.zeros((2, 3))])
        with pytest.raises(ShapeMismatch):
            Measurement([np.eye(2), np.eye(3)])
        with pytest.raises(ShapeMismatch):
            Measurement([])
        for stack in (np.eye(2), np.zeros((1, 1, 2, 2)), np.zeros((0, 2, 2))):
            with pytest.raises(ShapeMismatch):
                Measurement(stack)

    def test_labels(self):
        m = Measurement([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=["up", "down"])
        assert m.labels == ("up", "down")
        with pytest.raises(ShapeMismatch):
            Measurement([np.eye(2)], labels=["a", "b"])

    @pytest.mark.parametrize("labels", ["up", b"up"], ids=["str", "bytes"])
    def test_string_labels_are_not_split_into_characters(self, labels):
        message = f"^labels must be an iterable of 2 names, got {type(labels).__name__}$"
        with pytest.raises(ShapeMismatch, match=message):
            Measurement([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=labels)

    def test_tolerance_loosening(self):
        ops = [np.sqrt(0.999) * np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        with pytest.raises(IncompleteDevice):
            Measurement(ops)
        m = Measurement(ops, tolerance=1e-2)
        assert m.completeness_defect == pytest.approx(0.001, abs=1e-12)

    def test_tolerance_must_be_finite_and_nonnegative(self):
        for tol in (float("nan"), float("inf"), -1e-12):
            with pytest.raises(OutOfDomain):
                Measurement([np.eye(2)], tolerance=tol)
        assert Measurement([np.eye(2)], tolerance=0.0).tolerance == 0.0

    def test_tolerance_is_capped_at_one_half(self):
        assert Measurement([np.eye(2)], tolerance=0.5).tolerance == 0.5
        for tol in (np.nextafter(0.5, 1.0), 1.0, 10):
            with pytest.raises(OutOfDomain, match=r"^completeness tolerance must be a finite real number in \[0, 0.5\]"):
                Measurement([np.eye(2)], tolerance=tol)

    MALFORMED = {
        "not_iterable": (lambda: Measurement(5), ShapeMismatch),
        "none": (lambda: Measurement(None), ShapeMismatch),
        "dict_entry": (lambda: Measurement([[[{}]]]), ShapeMismatch),
        "huge_int_entry": (lambda: Measurement([[[10**400]]]), OutOfDomain),
        "labels_not_iterable": (lambda: Measurement([np.eye(2)], labels=5), ShapeMismatch),
        "tolerance_string": (lambda: Measurement([np.eye(2)], tolerance="x"), OutOfDomain),
        "tolerance_list": (lambda: Measurement([np.eye(2)], tolerance=[1]), OutOfDomain),
        "tolerance_huge_int": (lambda: Measurement([np.eye(2)], tolerance=10**400), OutOfDomain),
        "rank_one_weights": (lambda: est.make_rank_one_device(BASIS, BASIS, "ab"), OutOfDomain),
        "rank_one_states": (lambda: est.make_rank_one_device(5, 5, [1, 1]), DimensionMismatch),
        "kicks_string": (lambda: catalog.with_kicks(catalog.projective(2), "ab"), ShapeMismatch),
        "kicks_huge": (lambda: catalog.with_kicks(catalog.projective(2), np.full((2, 2, 2), 1e200)), NotUnitary),
        "bloch_zero": (lambda: catalog.bloch_state([0, 0, 0]), OutOfDomain),
        "bloch_string": (lambda: catalog.bloch_state("ab"), ShapeMismatch),
        "bloch_two_numbers": (lambda: catalog.bloch_state([1.0, 0.0]), ShapeMismatch),
        "bloch_complex": (lambda: catalog.bloch_state(np.array([1j, 0.0, 0.0])), ShapeMismatch),
    }

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_arguments_raise_typed_errors(self, case):
        call, error = self.MALFORMED[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                call()

    # 1e200 overflows M^dag M, 1.2e154 its Hermitian part and 1e100 the squares in the defect.
    @pytest.mark.parametrize("entry", [1e200, 1.2e154, 1e100])
    def test_huge_finite_entries_raise_a_typed_error_without_warning(self, entry):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomain, match="overflow"):
                Measurement([np.diag([entry, 0.0]), np.diag([0.0, 1.0])])

    def test_accepted_device_passes_later_checks_at_its_tolerance(self):
        m = Measurement([np.diag([1.0 + 1e-7, 0.0]), np.diag([0.0, 1.0])], tolerance=1e-5)
        assert m.spectrum.eigenvalues[0, 0] > 1.0 + 1e-10
        assert est.check_bound(m).g_post == pytest.approx(1.0, abs=1e-6)
        assert m.outcome_distribution([1.0, 0.0]) == pytest.approx([1.0, 0.0], abs=1e-6)


class TestAcceptedAtItsOwnDefect:
    """A device validated at exactly its own defect passes every later check: the slack adds a rounding allowance."""

    @staticmethod
    def stretched(d, n, seed, delta):
        """``random_device`` with each ``M_s`` times ``1 + (sqrt(1 + delta) - 1)|u><u|``, validated at its own defect.

        The effects then sum to ``1 + delta |u><u|``: the top effect eigenvalue and the Born total for ``psi = u``
        sit at the edge of the tolerance, where rounding decides.
        """
        u = haar.haar_state(d, haar.RngStream(seed, 1))
        stretch = np.eye(d) + (np.sqrt(1.0 + delta) - 1.0) * np.outer(u, u.conj())
        kraus = catalog.random_device(d, n, seed).kraus @ stretch
        return Measurement(kraus, tolerance=Measurement(kraus, tolerance=0.5).completeness_defect), u

    @pytest.mark.parametrize("delta", [1e-9, 1e-6, 1e-3, 0.1])
    def test_seeded_sweep_raises_nothing(self, delta):
        refused = {}
        for i in range(100):
            d, n, seed = 2 + i % 4, 1 + (i // 4) % 3, 5000 + i
            m, u = self.stretched(d, n, seed, delta)
            near = u + 1e-3 * haar.haar_state(d, haar.RngStream(seed, 2))
            near /= np.linalg.norm(near)
            kicks = [haar.haar_isometry(d, d, haar.RngStream(seed, 3 + s)) for s in range(n)]
            steps = {
                "spectrum": lambda: m.spectrum,
                "check_bound": lambda: est.check_bound(m),
                "estimate_pairs": lambda: est.estimate_pairs(m),
                "outcome_distribution": lambda: [m.outcome_distribution(psi) for psi in (u, near)],
                "sample_outcomes": lambda: [m.sample_outcomes(psi, haar.RngStream(seed, 4).generator(), 10)
                                            for psi in (u, near)],
                "pure_part": lambda: est.pure_part(m),
                "with_kicks": lambda: catalog.with_kicks(m, kicks),
            }
            for name, step in steps.items():
                try:
                    step()
                except QmeterError:
                    refused[name] = refused.get(name, 0) + 1
        assert refused == {}


class TestStackedStorage:
    def test_list_and_stacked_array_agree(self):
        ops = [np.array(k) for k in catalog.random_device(3, 9, seed=60).kraus]
        a = Measurement(ops)
        for b in (Measurement(np.stack(ops)), Measurement(iter(ops))):
            assert np.array_equal(a.kraus, b.kraus)
            assert np.array_equal(a.effects, b.effects)
            assert a.completeness_defect == b.completeness_defect

    def test_effects_defect_and_probabilities_match_per_operator_loop(self):
        for d, n in [(2, 3), (5, 12), (16, 4)]:
            m = catalog.random_device(d, n, seed=61)
            psi = haar.haar_state(d, haar.RngStream(62))
            total = np.zeros((d, d), dtype=np.complex128)
            probabilities, effects_form = [], []
            for k, e in zip(m.kraus, m.effects):
                ref = k.conj().T @ k
                ref = 0.5 * (ref + ref.conj().T)
                assert np.array_equal(e, ref)
                total += ref
                amp = k @ psi
                probabilities.append(np.sum(amp.real**2 + amp.imag**2))
                effects_form.append(np.vdot(psi, ref @ psi).real)
            defect = total - np.eye(d)
            assert m.completeness_defect == np.sqrt(np.sum(defect.real**2 + defect.imag**2))
            p = m.outcome_distribution(psi)
            assert p.tobytes() == np.array(probabilities).tobytes()
            assert np.allclose(p, effects_form, rtol=0.0, atol=1e-15)

    def test_arrays_are_read_only_and_not_aliased(self):
        ops = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        m = Measurement(ops)
        ops[0] = 0.0
        assert m.kraus.shape == m.effects.shape == (2, 2, 2)
        assert m.kraus[0, 0, 0] == 1.0
        factors = vars(m.bi_orthogonal_factors(2)).values()
        for a in (m.kraus, m.effects, m.kraus_op(2), m.spectrum.eigenvalues, m.spectrum.eigenvectors, *factors):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0


class TestEffects:
    def test_projective_effect_is_projector(self):
        m = catalog.projective(3)
        for s in range(1, 4):
            expected = np.zeros((3, 3))
            expected[s - 1, s - 1] = 1.0
            assert np.linalg.norm(m.effects[s - 1] - expected) < 1e-14
            assert m.spectrum.eigenvalues[s - 1, 0] == pytest.approx(1.0)

    def test_unsharp_effect(self):
        m = catalog.unsharp_qubit(0.6)
        assert np.linalg.norm(m.effects[0] - np.diag([0.8, 0.2])) < 1e-14

    def test_unitary_kraus_effect_is_identity(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        m = Measurement([x])
        assert np.linalg.norm(m.effects[0] - np.eye(2)) < 1e-14

    def test_outcome_out_of_range(self):
        m = catalog.projective(2)
        calls = [
            m.kraus_op,
            m.bi_orthogonal_factors,
            lambda s: est.estimate_pair(m, s),
            lambda s: est.best_pre_estimate(m, s),
            lambda s: est.verify_estimate_relations(m, s),
        ]
        for s in (0, 3, -1):
            for call in calls:
                with pytest.raises(OutcomeOutOfRange):
                    call(s)

    def test_effect_spectrum_cached(self):
        m = catalog.unsharp_qubit(0.3)
        assert m.spectrum is m.spectrum
        assert m.spectrum.eigenvalues.shape == (2, 2)
        assert m.spectrum.eigenvectors.shape == (2, 2, 2)


def rank_one_split(rng, d, p):
    """``[P, 1 - P]`` for a random rank-one projector ``P = |u><u|``, and a state with ``<psi|P|psi> = p``."""
    u, w = np.linalg.qr(rand_complex(rng, d, d))[0].T[:2]
    proj = np.outer(u, u.conj())
    return Measurement([proj, np.eye(d) - proj]), np.sqrt(p) * u + np.sqrt(1.0 - p) * w


def exact_born(kraus, psi):
    """``||M_s psi||^2`` of every outcome, evaluated exactly on the float entries as Fractions."""
    out = []
    for k in kraus:
        total = Fraction(0)
        for row in k:
            pairs = [(Fraction(a.real), Fraction(a.imag), Fraction(b.real), Fraction(b.imag)) for a, b in zip(row, psi)]
            re = sum(ar * br - ai * bi for ar, ai, br, bi in pairs)
            im = sum(ar * bi + ai * br for ar, ai, br, bi in pairs)
            total += re * re + im * im
        out.append(total)
    return out


class TestOutcomeDistribution:
    @pytest.mark.parametrize("target", [1e-12, 1e-14])
    def test_small_probabilities_are_accurate(self, target):
        # The effects form <psi|E_s|psi> loses ~1e-16 absolutely, a relative 1e-2 at p = 1e-14.
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            m, psi = rank_one_split(rng, 3, target)
            p = m.outcome_distribution(psi)
            for got, exact in zip(p.tolist(), exact_born(m.kraus, psi)):
                worst = max(worst, float(abs(Fraction(got) - exact) / exact))
        assert worst <= 1e-8

    def test_projective_eigenstate(self):
        m = catalog.projective(2)
        p = m.outcome_distribution([1.0, 0.0])
        assert np.allclose(p, [1.0, 0.0], atol=1e-14)

    def test_projective_superposition(self):
        m = catalog.projective(2)
        assert np.allclose(m.outcome_distribution(PLUS), [0.5, 0.5])

    def test_unsharp_balanced_state(self):
        m = catalog.unsharp_qubit(0.6)
        assert np.allclose(m.outcome_distribution(PLUS), [0.5, 0.5])

    def test_dimension_mismatch(self):
        m = catalog.projective(2)
        with pytest.raises(DimensionMismatch):
            m.outcome_distribution([1.0, 0.0, 0.0])

    def test_unnormalized_rejected(self):
        m = catalog.projective(2)
        with pytest.raises(OutOfDomain, match="state norm is 1.41421356237, not 1"):
            m.outcome_distribution([1.0, 1.0])

    def test_probability_conservation_haar_sweep(self):
        devices = [
            catalog.projective(3),
            catalog.unsharp_qubit(0.4),
            catalog.random_device(4, 5, seed=17),
        ]
        for m in devices:
            states = haar.haar_states(m.dim, 1000, seed=5)
            for psi in states:
                p = m.outcome_distribution(psi)
                assert abs(p.sum() - 1.0) <= 1e-10
                assert np.all(p >= 0.0)


class TestBornTotal:
    """``sum_s p_s`` is held to the state's own squared norm, within the device's slack."""

    def test_state_at_its_norm_tolerance_runs_everywhere(self):
        # ||psi|| sits 1e-10 off 1, inside STATE_NORM_TOL, so sum_s p_s sits 2e-10 off 1 on a complete device.
        m, psi = Measurement([np.eye(2)], tolerance=0), [1.000000000099, 0.0]
        assert m.outcome_distribution(psi).tolist() == [1.000000000099**2]
        assert m.collapse(psi, 1).tolist() == [1.0, 0.0]
        outcomes, posts = m.sample_outcomes(psi, np.random.default_rng(1), 5)
        assert outcomes.tolist() == [1] * 5 and posts[1].tolist() == [1.0, 0.0]

    def test_total_off_by_the_defect_raises(self):
        # A tolerance-0 device accepted past its tolerance: the effects sum to 1 + 0.3 |u><u|.
        u = haar.haar_state(3, haar.RngStream(9, 1))
        stretch = np.eye(3) + (np.sqrt(1.3) - 1.0) * np.outer(u, u.conj())
        m = Measurement.__new__(Measurement)
        m._accept(catalog.random_device(3, 2, seed=9).kraus @ stretch, None, 0.0, limit=0.5)
        top = np.linalg.eigh(m.effects.sum(axis=0) - np.eye(3))[1][:, -1]
        with pytest.raises(InternalConsistencyError, match="probabilities sum to 1.3"):
            m.outcome_distribution(top)


class TestCollapse:
    def test_projective_projection(self):
        m = catalog.projective(2)
        post = m.collapse(PLUS, 1)
        assert overlap2(post, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_always_lands_on_left_state(self):
        rng = np.random.default_rng(7)
        left = rand_complex(rng, 2, 1)[:, 0]
        left /= np.linalg.norm(left)
        m = catalog.tetrahedron_rank_one([left] * 4)
        for psi in haar.haar_states(2, 50, seed=8):
            s, post = m.sample_outcome(psi, haar.RngStream(9).generator())
            assert overlap2(post, left) == pytest.approx(1.0, abs=1e-10)

    def test_unsharp_by_hand(self):
        m = catalog.unsharp_qubit(0.6)
        post = m.collapse(PLUS, 1)
        assert np.allclose(post, [0.894427190999916, 0.447213595499958], atol=1e-12)

    def test_zero_probability_refused(self):
        m = catalog.projective(2)
        with pytest.raises(ZeroProbabilityOutcome):
            m.collapse([1.0, 0.0], 2)

    def test_collapse_normalization(self):
        m = catalog.random_device(3, 4, seed=23)
        for psi in haar.haar_states(3, 200, seed=24):
            p = m.outcome_distribution(psi)
            for s in range(1, 5):
                if p[s - 1] > 1e-12:
                    post = m.collapse(psi, s)
                    assert abs(np.linalg.norm(post) - 1.0) <= 1e-10


class TestSampleOutcome:
    def test_deterministic_outcome(self):
        m = catalog.projective(2)
        for seed in (0, 1, 12345):
            s, post = m.sample_outcome([1.0, 0.0], haar.RngStream(seed).generator())
            assert s == 1
            assert overlap2(post, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-14)

    def test_identity_device_returns_input(self):
        m = catalog.identity_device(3)
        psi = haar.haar_state(3, haar.RngStream(2))
        s, post = m.sample_outcome(psi, haar.RngStream(3).generator())
        assert s == 1
        assert np.allclose(post, psi, atol=1e-14)

    def test_fair_coin_frequency(self):
        # 100k single shots, drawn as one batch (equal to sequential draws,
        # see TestSampleOutcomes.test_equals_sequential_draws).
        m = catalog.projective(2)
        outcomes, _ = m.sample_outcomes(PLUS, haar.RngStream(101, 1).generator(), 100_000)
        hits = int(np.count_nonzero(outcomes == 1))
        assert abs(hits / 100_000 - 0.5) < 0.01

    def test_bit_reproducible(self):
        m = catalog.random_device(3, 4, seed=31)
        psi = haar.haar_state(3, haar.RngStream(32))
        runs = []
        for _ in range(2):
            gen = haar.RngStream(33, 7).generator()
            runs.append([m.sample_outcome(psi, gen) for _ in range(50)])
        assert [s for s, _ in runs[0]] == [s for s, _ in runs[1]]
        for (_, a), (_, b) in zip(runs[0], runs[1]):
            assert np.array_equal(a, b)

    def test_validates_the_state_once(self, monkeypatch):
        calls = []
        as_state = measurement.as_state

        def counting_as_state(*args, **kwargs):
            calls.append(1)
            return as_state(*args, **kwargs)

        m = catalog.random_device(3, 4, seed=34)
        psi = haar.haar_state(3, haar.RngStream(35))
        monkeypatch.setattr(measurement, "as_state", counting_as_state)
        m.sample_outcome(psi, haar.RngStream(36).generator())
        assert len(calls) == 1

    def test_matches_public_distribution_and_collapse(self):
        m = catalog.random_device(3, 4, seed=37)
        gen = haar.RngStream(38, 1).generator()
        replay = haar.RngStream(38, 1).generator()
        for psi in haar.haar_states(3, 50, seed=39):
            s, post = m.sample_outcome(psi, gen)
            p = m.outcome_distribution(psi)
            u = replay.random()
            assert s == min(int(np.searchsorted(np.cumsum(p), u, side="right")), 3) + 1
            assert np.array_equal(post, m.collapse(psi, s))

    def test_rejects_invalid_state(self):
        m = catalog.projective(2)
        with pytest.raises(OutOfDomain, match="state norm"):
            m.sample_outcome([1.0, 1.0], haar.RngStream(4).generator())
        with pytest.raises(DimensionMismatch):
            m.sample_outcome([1.0, 0.0, 0.0], haar.RngStream(4).generator())


def scalar_rule(p, u, floor=measurement.PROBABILITY_FLOOR):
    """1-based outcome of one uniform ``u``: inverse CDF, then the floor skip."""
    i = min(int(np.searchsorted(np.cumsum(p), u, side="right")), len(p) - 1)
    if p[i] <= floor:
        viable = [j for j in range(len(p)) if p[j] > floor]
        following = [j for j in viable if j >= i]
        i = following[0] if following else viable[-1]
    return i + 1


class StubGenerator:
    """Hands out chosen uniforms, one ``random(size)`` call at a time."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float)

    def random(self, size=None):
        assert size == self.uniforms.size
        return self.uniforms.copy()


class TestSampleOutcomes:
    def test_batch_uniforms_match_single_draws(self):
        for seed in (0, 5, 2**40):
            batch = haar.RngStream(seed, 1).generator()
            single = haar.RngStream(seed, 1).generator()
            assert batch.random(1)[0] == single.random()
            assert np.array_equal(batch.random(1001), [single.random() for _ in range(1001)])
            assert batch.random() == single.random()

    @pytest.mark.parametrize("shots", [1, 2, 1000])
    @pytest.mark.parametrize("d", [2, 4, 16])
    def test_equals_sequential_draws(self, d, shots):
        m = catalog.random_device(d, 5, seed=40 + d)
        psi = haar.haar_state(d, haar.RngStream(41 + d))
        outcomes, posts = m.sample_outcomes(psi, haar.RngStream(42, 1).generator(), shots)
        assert outcomes.shape == (shots,)
        assert set(posts) == set(outcomes.tolist())
        sequential = haar.RngStream(42, 1).generator()
        replay = haar.RngStream(42, 1).generator()
        p = m.outcome_distribution(psi)
        for s, (seq_s, seq_post) in zip(outcomes, (m.sample_outcome(psi, sequential) for _ in range(shots))):
            assert s == seq_s == scalar_rule(p, replay.random())
            assert np.array_equal(posts[s], seq_post)
            assert np.array_equal(posts[s], m.collapse(psi, int(s)))

    def test_validates_the_state_once(self, monkeypatch):
        calls = []
        as_state = measurement.as_state

        def counting_as_state(*args, **kwargs):
            calls.append(1)
            return as_state(*args, **kwargs)

        m = catalog.random_device(3, 4, seed=43)
        psi = haar.haar_state(3, haar.RngStream(44))
        monkeypatch.setattr(measurement, "as_state", counting_as_state)
        m.sample_outcomes(psi, haar.RngStream(45).generator(), 1000)
        assert len(calls) == 1

    def test_rejects_nonpositive_shots(self):
        m = catalog.projective(2)
        for shots in (0, -3):
            with pytest.raises(OutOfDomain):
                m.sample_outcomes(PLUS, haar.RngStream(4).generator(), shots)

    @pytest.mark.parametrize(
        "rng", [haar.RngStream(1), None, 7, random.Random(1)], ids=["RngStream", "None", "int", "random.Random"]
    )
    def test_rejects_an_rng_that_is_not_a_generator(self, rng):
        m = catalog.random_device(2, 2, 1)
        with pytest.raises(OutOfDomain, match=f"rng must be a numpy.random.Generator, got {type(rng).__name__}"):
            m.sample_outcomes([1, 0], rng, 1)
        with pytest.raises(OutOfDomain):
            m.sample_outcome([1, 0], rng)

    @pytest.mark.parametrize(
        "draw",
        [[0.5], 7.0, math.nan, "ab", np.full(3, math.nan), np.full(3, np.nextafter(1.0, 2.0)), np.full(3, -0.25)],
        ids=["one-for-three", "7.0", "nan", "string", "nan-array", "above-one", "negative"],
    )
    def test_rejects_a_draw_that_is_not_uniforms(self, draw):
        m = catalog.random_device(2, 2, 1)
        with pytest.raises(OutOfDomain, match=r"rng\.random\("):
            m.sample_outcomes([1, 0], SimpleNamespace(random=lambda size: draw), 3)

    def test_floor_skip_first_middle_last(self):
        # Outcomes 1, 3 and 5 have 0 < p <= floor; 2 and 4 share the rest.
        tiny = 4e-15
        amps = np.sqrt([tiny, 0.4, tiny, 0.6 - 3 * tiny, tiny])
        m = catalog.projective(5)
        p = m.outcome_distribution(amps)
        assert np.all((p[[0, 2, 4]] > 0) & (p[[0, 2, 4]] <= measurement.PROBABILITY_FLOOR))
        c = np.cumsum(p)
        uniforms = [
            0.0,  # on outcome 1 -> next viable is 2
            0.5 * c[0],
            0.5 * (c[1] + c[2]),  # on outcome 3 -> next viable is 4
            c[1],  # a draw on a boundary belongs to the outcome above it: 3 -> 4
            0.5 * (c[3] + c[4]),  # on outcome 5 -> none follows, last viable is 4
            c[-1],  # at the total mass: clamped to outcome 5 -> 4
            np.nextafter(1.0, 0.0),
            0.2,
            0.9,
        ]
        outcomes, posts = m.sample_outcomes(amps, StubGenerator(uniforms), len(uniforms))
        assert outcomes.tolist() == [scalar_rule(p, u) for u in uniforms]
        assert outcomes.tolist() == [2, 2, 4, 4, 4, 4, 4, 2, 4]
        assert set(posts) == {2, 4}

    def test_floor_skip_single_viable_outcome(self):
        tiny = 4e-15
        amps = np.sqrt([tiny, 1.0 - 2 * tiny, tiny])
        m = catalog.projective(3)
        p = m.outcome_distribution(amps)
        c = np.cumsum(p)
        uniforms = [0.0, 0.5 * c[0], 0.5, 0.5 * (c[1] + c[2]), c[-1], np.nextafter(1.0, 0.0)]
        outcomes, posts = m.sample_outcomes(amps, StubGenerator(uniforms), len(uniforms))
        assert outcomes.tolist() == [scalar_rule(p, u) for u in uniforms] == [2] * len(uniforms)
        assert list(posts) == [2]
        assert overlap2(posts[2], [0.0, 1.0, 0.0]) == pytest.approx(1.0, abs=1e-14)

    def test_viability_and_collapse_share_one_probability(self):
        # A state with <psi|E_1|psi> above the floor but ||M_1 psi||^2 at or below it: a draw on outcome 1
        # must move on to outcome 2, not reach a collapse that refuses outcome 1.
        rng = np.random.default_rng(0)
        floor = measurement.PROBABILITY_FLOOR
        for _ in range(1000):
            m, psi = rank_one_split(rng, 3, floor)
            amp = m.kraus[0] @ psi
            if np.vdot(psi, m.effects[0] @ psi).real > floor >= np.sum(amp.real**2 + amp.imag**2):
                break
        else:
            pytest.fail("no draw separates the two forms at the floor")
        outcomes, posts = m.sample_outcomes(psi, StubGenerator([0.0]), 1)
        assert outcomes.tolist() == [2] and set(posts) == {2}
        with pytest.raises(ZeroProbabilityOutcome):
            m.collapse(psi, 1)

    def test_no_viable_outcome_is_typed(self, monkeypatch):
        # A tolerance <= 1/2 keeps sum(p) >= 1/2, so only a floor above every p = 1/2 reaches the guard.
        monkeypatch.setattr(measurement, "PROBABILITY_FLOOR", 0.6)
        m = catalog.projective(2)
        for shots in (1, 5):
            with pytest.raises(ZeroProbabilityOutcome):
                m.sample_outcomes(PLUS, haar.RngStream(4).generator(), shots)


class TestBiOrthogonalFactors:
    def test_positive_kraus_gives_identity_unitary(self):
        m = catalog.unsharp_qubit(0.6)
        fac = m.bi_orthogonal_factors(1)
        assert np.linalg.norm(fac.unitary - np.eye(2)) < 1e-12
        assert np.linalg.norm(fac.left_basis - fac.right_basis) < 1e-12

    def test_bit_flip_kick_by_hand(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        m = Measurement([x @ np.diag([np.sqrt(0.8), np.sqrt(0.2)]), np.diag([np.sqrt(0.2), np.sqrt(0.8)])])
        fac = m.bi_orthogonal_factors(1)
        assert np.linalg.norm(fac.unitary - x) < 1e-12
        assert np.allclose(fac.eigenvalues, [0.8, 0.2])
        assert overlap2(fac.right_basis[:, 0], [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
        assert overlap2(fac.left_basis[:, 0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_reconstructions_random_sweep(self):
        # The three defining identities across 100 random devices.
        for i in range(100):
            m = catalog.random_device(2 + i % 3, 2 + i % 4, seed=500 + i)
            for s in range(1, m.n_outcomes + 1):
                fac = m.bi_orthogonal_factors(s)
                k = m.kraus_op(s)
                d = m.dim
                assert np.linalg.norm(fac.left_basis - fac.unitary @ fac.right_basis) <= 1e-10
                rec_m = sum(
                    np.sqrt(a) * np.outer(fac.left_basis[:, j], fac.right_basis[:, j].conj())
                    for j, a in enumerate(fac.eigenvalues)
                )
                assert np.linalg.norm(rec_m - k) <= 1e-10
                rec_left = sum(
                    a * np.outer(fac.left_basis[:, j], fac.left_basis[:, j].conj())
                    for j, a in enumerate(fac.eigenvalues)
                )
                assert np.linalg.norm(rec_left - k @ k.conj().T) <= 1e-10

    def test_kicked_rank_one_outcomes(self):
        # Rank-deficient effects: noise eigenvalues must not pollute the sqrt.
        posts = list(haar.haar_states(2, 4, seed=3))
        m = catalog.with_kicks(
            catalog.tetrahedron_rank_one(posts),
            [haar.haar_isometry(2, 2, haar.RngStream(99, s)) for s in range(4)],
        )
        for s in range(1, 5):
            fac = m.bi_orthogonal_factors(s)
            assert fac.eigenvalues[1] == 0.0
            rec = sum(
                np.sqrt(a) * np.outer(fac.left_basis[:, j], fac.right_basis[:, j].conj())
                for j, a in enumerate(fac.eigenvalues)
            )
            assert np.linalg.norm(rec - m.kraus_op(s)) <= 1e-10
            assert np.linalg.norm(fac.unitary.conj().T @ fac.unitary - np.eye(2)) <= 1e-10

    def test_near_degenerate_group_reconstructs(self):
        # E_1 = diag(0, 9e-11) has one group of two values; M_1 = sum sqrt(a_j) |left_j><right_j| still holds.
        m = catalog.with_kicks(
            Measurement([np.diag([0.0, np.sqrt(9e-11)]), np.diag([1.0, np.sqrt(1.0 - 9e-11)])]),
            [haar.haar_isometry(2, 2, haar.RngStream(7, s)) for s in range(2)],
        )
        for s in (1, 2):
            fac = m.bi_orthogonal_factors(s)
            rec = (fac.left_basis * np.sqrt(fac.eigenvalues)) @ fac.right_basis.conj().T
            assert np.linalg.norm(rec - m.kraus_op(s)) <= 1e-14

    def test_same_spectrum_left_and_right(self):
        # M M^dag and E share their eigenvalue list.
        for i in range(50):
            m = catalog.random_device(2 + i % 3, 2 + i % 3, seed=900 + i)
            for s in range(1, m.n_outcomes + 1):
                k = m.kraus_op(s)
                left = hermitian_eig(k @ k.conj().T).eigenvalues
                right = m.spectrum.eigenvalues[s - 1]
                assert np.max(np.abs(left - right)) <= 1e-10


class TestOneEigensolvePerDevice:
    DEVICES = {
        "random_d16": lambda: catalog.random_device(16, 4, seed=1000),
        "random_n12": lambda: catalog.random_device(5, 12, seed=1),
        "kicked_identity": lambda: catalog.with_kicks(
            catalog.identity_device(3), [haar.haar_isometry(3, 3, haar.RngStream(2, 0))]
        ),
        "tetrahedron": lambda: catalog.tetrahedron_rank_one(),
        "degenerate_unsharp": lambda: catalog.unsharp_qubit(0.0),
        "dimension_one": lambda: Measurement([[[0.6]], [[0.8]]]),
    }

    @staticmethod
    def counted(monkeypatch):
        calls = []
        original = measurement.hermitian_eig

        def counting(a):
            calls.append(np.shape(a))
            return original(a)

        monkeypatch.setattr(measurement, "hermitian_eig", counting)
        return calls

    @pytest.mark.parametrize("name", list(DEVICES))
    def test_once_per_device(self, monkeypatch, name):
        m = self.DEVICES[name]()
        calls = self.counted(monkeypatch)
        est.check_bound(m)
        for s in range(1, m.n_outcomes + 1):
            est.estimate_pair(m, s)
            est.verify_estimate_relations(m, s)
            m.bi_orthogonal_factors(s)
        est.pure_part(m)
        assert calls == [m.effects.shape]

    @pytest.mark.parametrize("name", list(DEVICES))
    def test_spectra_match_per_outcome_solves(self, name):
        m = self.DEVICES[name]()
        spectrum = m.spectrum
        assert spectrum.eigenvalues.shape == (m.n_outcomes, m.dim)
        assert spectrum.eigenvectors.shape == m.effects.shape
        assert not spectrum.eigenvalues.flags.writeable
        assert not spectrum.eigenvectors.flags.writeable
        for s in range(1, m.n_outcomes + 1):
            single = hermitian_eig(m.effects[s - 1])
            assert np.array_equal(spectrum.eigenvalues[s - 1], single.eigenvalues)
            assert np.array_equal(spectrum.eigenvectors[s - 1], single.eigenvectors)

    def test_not_needed_for_validation_or_sampling(self, monkeypatch):
        calls = self.counted(monkeypatch)
        m = Measurement(catalog.random_device(4, 4, seed=3).kraus)
        psi = haar.haar_state(4, haar.RngStream(5))
        m.outcome_distribution(psi)
        m.sample_outcomes(psi, np.random.default_rng(6), 100)
        m.sample_outcome(psi, np.random.default_rng(7))
        m.collapse(psi, 1)
        assert calls == []

    def test_spectrum_range_checked_over_the_stack(self, monkeypatch):
        def shifted(a):
            es = hermitian_eig(a)
            values = es.eigenvalues.copy()
            values[2] += 1.0
            return EigenSystem(values, es.eigenvectors)

        monkeypatch.setattr(measurement, "hermitian_eig", shifted)
        m = catalog.projective(3)
        with pytest.raises(InternalConsistencyError, match="effect 3 spectrum"):
            m.spectrum
        # Outcome 1's own spectrum is in range; the check still covers the whole stack.
        for s in (1, 3):
            with pytest.raises(InternalConsistencyError, match="effect 3 spectrum"):
                est.estimate_pair(m, s)


class TestConcurrentSharing:
    def test_device_shared_across_threads(self):
        # Lazy spectrum caching must stay benign under concurrent first access.
        from concurrent.futures import ThreadPoolExecutor

        from qmeter import estimator as est

        m = catalog.random_device(4, 6, seed=55)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: est.check_bound(m).g_post, range(32)))
        assert len(set(results)) == 1
        assert not m.kraus_op(1).flags.writeable
        assert not m.spectrum.eigenvalues.flags.writeable

    def test_concurrent_first_use_of_the_spectra(self):
        # Without the cached_property lock (Python >= 3.12) racing threads may each
        # solve; every one of them must still see the sequential spectra.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        seeds = range(60, 80)
        reference = {}
        for seed in seeds:
            m = catalog.random_device(4, 6, seed=seed)
            reference[seed] = m.spectrum
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for seed in seeds:
                    m = catalog.random_device(4, 6, seed=seed)
                    futures = [pool.submit(getattr, m, "spectrum") for _ in range(24)]
                    want = reference[seed]
                    for future in futures:
                        got = future.result(timeout=30)
                        assert np.array_equal(got.eigenvalues, want.eigenvalues)
                        assert np.array_equal(got.eigenvectors, want.eigenvectors)
                    assert m.spectrum is m.spectrum
        finally:
            sys.setswitchinterval(interval)


class TestTraceIdentity:
    def test_effect_traces_sum_to_dimension(self):
        devices = [
            catalog.projective(4),
            catalog.identity_device(3),
            catalog.unsharp_qubit(0.25),
            catalog.tetrahedron_rank_one(),
            catalog.random_device(4, 6, seed=77),
        ]
        for m in devices:
            total = np.trace(m.effects, axis1=1, axis2=2).real.sum()
            assert total == pytest.approx(m.dim, abs=1e-9)
