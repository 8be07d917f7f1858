"""Metamorphic relations from the paper's symmetries, on 300 seeded random devices.

The mean fidelities are averages over the unitarily invariant measure, and
``g_post`` depends only on the effects, so each transformation below must leave
the numbers as stated. No formula is implemented a second time: every value on
both sides comes from qmeter itself.

* conjugation ``M_s -> V M_s V^dag``: ``g_post``, ``g_pre`` and ``F`` unchanged,
  and a gapped ``chi_pre`` becomes ``V chi_pre`` up to phase;
* left kicks ``M_s -> U_s M_s``: ``g_post`` and ``g_pre`` unchanged;
* outcome permutation: every fidelity unchanged, and the estimate pairs permuted;
* refinement ``M_s -> (sqrt(p) M_s, sqrt(1 - p) M_s)``: ``g_post`` and ``F`` unchanged;
* coarse-graining outcomes s and t into ``sqrt(E_s + E_t)``: ``g_post`` never rises,
  because the top eigenvalue is subadditive.
"""

import numpy as np
import pytest

from qmeter import catalog, estimator as est, haar
from qmeter.measurement import Measurement

DIMS = (2, 3, 4, 8, 16)
SEEDS = range(60)
N_OUTCOMES = 4
# Equalities hold to this absolute tolerance; the largest residual seen is about 3e-15.
TOL = 1e-14


def fidelities(m):
    report = est.check_bound(m)
    return np.array([report.g_post, report.g_pre, report.f_op])


@pytest.fixture(scope="module")
def devices():
    """``(seed, device, its fidelities, its estimate pairs)``: each base device is read once for every relation."""
    bases = [(seed, catalog.random_device(d, N_OUTCOMES, seed)) for d in DIMS for seed in SEEDS]
    return [(seed, m, fidelities(m), est.estimate_pairs(m)) for seed, m in bases]


def unitary(d, seed, index):
    """A Haar unitary from stream ``index`` of ``seed``; stream 0 drew the device itself."""
    return haar.haar_isometry(d, d, haar.RngStream(seed, index))


def test_conjugation(devices):
    for seed, m, base, pairs in devices:
        v = unitary(m.dim, seed, 1)
        conjugated = Measurement(v @ m.kraus @ v.conj().T)
        assert np.abs(fidelities(conjugated) - base).max() <= TOL, (m.dim, seed)
        for pair, image in zip(pairs, est.estimate_pairs(conjugated)):
            if not pair.degenerate:
                assert 1.0 - abs(np.vdot(v @ pair.chi_pre, image.chi_pre)) ** 2 <= TOL, (m.dim, seed, pair.outcome)


def test_left_kicks(devices):
    for seed, m, base, _ in devices:
        kicked = catalog.with_kicks(m, [unitary(m.dim, seed, 2 + s) for s in range(m.n_outcomes)])
        assert np.abs(fidelities(kicked)[:2] - base[:2]).max() <= TOL, (m.dim, seed)


def test_outcome_permutation(devices):
    for seed, m, base, pairs in devices:
        order = np.random.default_rng(seed).permutation(m.n_outcomes)
        permuted = Measurement(m.kraus[order])
        assert np.abs(fidelities(permuted) - base).max() <= TOL, (m.dim, seed)
        for image, s in zip(est.estimate_pairs(permuted), order):
            pair = pairs[s]
            assert image.degenerate == pair.degenerate and abs(image.a_max - pair.a_max) <= TOL
            assert np.abs(image.chi_pre - pair.chi_pre).max() <= TOL, (m.dim, seed, pair.outcome)
            assert np.abs(image.chi_post - pair.chi_post).max() <= TOL, (m.dim, seed, pair.outcome)


def test_refinement(devices):
    for seed, m, base, _ in devices:
        p = np.random.default_rng(seed).uniform(0.05, 0.95)
        first, rest = m.kraus[:1], m.kraus[1:]
        refined = Measurement(np.concatenate([np.sqrt(p) * first, np.sqrt(1.0 - p) * first, rest]))
        after = fidelities(refined)
        assert abs(after[0] - base[0]) <= TOL and abs(after[2] - base[2]) <= TOL, (m.dim, seed)


def test_coarse_graining(devices):
    for seed, m, base, _ in devices:
        w, u = np.linalg.eigh(m.effects[0] + m.effects[1])
        merged = (u * np.sqrt(np.maximum(w, 0.0))) @ u.conj().T
        coarse = Measurement(np.concatenate([merged[None], m.kraus[2:]]))
        assert est.check_bound(coarse).g_post <= base[0] + TOL, (m.dim, seed)
