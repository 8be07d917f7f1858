"""Optimal state estimates and mean fidelities for a generalized measurement.

Given the device and an observed outcome ``s``, the best guess for the state
*after* the measurement is the top eigenvector of ``M_s M_s^dag`` and the best
guess for the state *before* it is the top eigenvector of ``E_s = M_s^dag M_s``;
both eigenvalue problems share the spectrum, and the common top eigenvalue
``a_max`` drives the mean fidelities:

* ``g_post = (1/d) sum_s a_max(s)``, the mean fidelity of the post-measurement
  estimate over Haar-random inputs,
* ``g_pre = (1 + g_post) / (d + 1)``, the pre-measurement counterpart,
* ``operation_fidelity = (d + sum_s |tr M_s|^2) / (d (d + 1))``, the mean
  overlap between input and output states (inverse disturbance).

``check_bound`` verifies the information-disturbance constraint
``sqrt((d+1) F - 1) <= sqrt(g_post) + sqrt((d-1)(1-g_post))`` and
``domain_boundary`` tabulates its saturation curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IncompleteDevice, OutOfDomain
from .matkernel import (
    EIG_GAP_TOL,
    canonicalize_phase,
    fro_norm,
    frobenius_distance,
    frozen,
    hermitian_eig,
)
from .measurement import DEFAULT_COMPLETENESS_TOL, Measurement, as_state

# Phase-insensitive overlap criteria count as satisfied above 1 - OVERLAP_TOL.
OVERLAP_TOL = 1e-9
# Slack allowed when checking the information-disturbance inequality.
BOUND_SLACK = 1e-9
# a_max below this is treated as an outcome that (numerically) never fires.
A_MAX_FLOOR = 1e-12
# Tolerance for a Kraus operator to count as Hermitian positive semidefinite.
PURITY_TOL = 1e-10


@dataclass(frozen=True)
class EstimatePair:
    """Optimal pre/post estimates for one outcome, plus degeneracy flag.

    ``degenerate`` marks a top-eigenvalue gap below 1e-10: the estimates are
    then one deterministic choice out of a whole eigenspace of equally good ones.
    """

    outcome: int
    a_max: float
    chi_pre: np.ndarray
    chi_post: np.ndarray
    degenerate: bool


@dataclass(frozen=True)
class FidelityReport:
    """Mean fidelities of a device and its information-disturbance bound check."""

    g_post: float
    g_pre: float
    f_op: float
    per_outcome_a_max: np.ndarray
    bound_lhs: float
    bound_rhs: float
    bound_satisfied: bool


@dataclass(frozen=True)
class RelationCheck:
    """Result of the consistency checks linking chi_pre and chi_post.

    ``skipped`` is set (with ``reason``) when the top eigenvalue is degenerate
    or vanishes, in which case the checks are not meaningful.
    """

    skipped: bool
    reason: str | None = None
    unitary_link_ok: bool | None = None
    kraus_link_ok: bool | None = None


def best_post_estimate(m: Measurement, s: int) -> np.ndarray:
    """Top eigenvector of ``M_s M_s^dag``: the optimal post-measurement guess.

    For a non-degenerate, non-vanishing top eigenvalue it follows from the
    cached effect spectrum by the link relation
    ``M_s chi_pre = sqrt(a_max) chi_post``. Otherwise ``M_s M_s^dag`` is
    diagonalized so that the deterministic tie-break picks the vector.
    """
    effect = m.effect(s)
    k = m.kraus_op(s)
    if effect.a_max > A_MAX_FLOOR and effect.spectrum.top_gap() >= EIG_GAP_TOL:
        v = k @ effect.spectrum.eigenvectors[:, 0]
        return canonicalize_phase(v / fro_norm(v))
    left = k @ k.conj().T
    return hermitian_eig(0.5 * (left + left.conj().T)).eigenvectors[:, 0].copy()


def best_pre_estimate(m: Measurement, s: int) -> np.ndarray:
    """Top eigenvector of ``E_s``: the optimal pre-measurement guess."""
    return m.effect(s).spectrum.eigenvectors[:, 0].copy()


def estimate_pair(m: Measurement, s: int) -> EstimatePair:
    """Both optimal estimates for outcome ``s`` with shared spectral data."""
    spectrum = m.effect(s).spectrum
    return EstimatePair(
        outcome=s,
        a_max=m.effect(s).a_max,
        chi_pre=frozen(spectrum.eigenvectors[:, 0]),
        chi_post=frozen(best_post_estimate(m, s)),
        degenerate=spectrum.top_gap() < EIG_GAP_TOL,
    )


def _check_guesses(m: Measurement, guesses) -> np.ndarray:
    states = [as_state(g, m.dim) for g in guesses]
    if len(states) != m.n_outcomes:
        raise DimensionMismatch(f"{len(states)} guesses for {m.n_outcomes} outcomes")
    return np.array(states)


def _sum_squared_norms(ops: np.ndarray, states: np.ndarray) -> float:
    """``sum_s ||ops[s] states[s]||^2``, summed over outcomes in order."""
    amp = (ops @ states[:, :, None])[:, :, 0]
    return sum(np.sum(amp.real**2 + amp.imag**2, axis=1).tolist())


def g_post_of_guess(m: Measurement, guesses) -> float:
    """Mean post-measurement estimation fidelity of arbitrary per-outcome guesses."""
    return _sum_squared_norms(m.kraus.conj().swapaxes(1, 2), _check_guesses(m, guesses)) / m.dim


def g_post(m: Measurement) -> float:
    """Maximal mean post-measurement estimation fidelity, ``(1/d) sum_s a_max``."""
    return check_bound(m).g_post


def g_pre_of_guess(m: Measurement, guesses) -> float:
    """Mean pre-measurement estimation fidelity of arbitrary per-outcome guesses."""
    d = m.dim
    return (d + _sum_squared_norms(m.kraus, _check_guesses(m, guesses))) / (d * (d + 1))


def g_pre(m: Measurement) -> float:
    """Maximal mean pre-measurement estimation fidelity, ``(1 + g_post)/(d + 1)``."""
    return (1.0 + g_post(m)) / (m.dim + 1)


def operation_fidelity(m: Measurement) -> float:
    """Mean overlap of input and output states: ``(d + sum_s |tr M_s|^2)/(d(d+1))``."""
    d = m.dim
    traces = sum(abs(t) ** 2 for t in np.trace(m.kraus, axis1=1, axis2=2))
    return (d + float(traces)) / (d * (d + 1))


def tradeoff_bound(d: int, g_post_value: float) -> tuple[float, float]:
    """Largest operation fidelity compatible with a given ``g_post`` in dimension d.

    Returns ``(saturating_value, max_f)`` where ``saturating_value`` is the
    common value both sides of the inequality take at saturation and
    ``max_f = (1 + saturating_value**2) / (d + 1)``.
    """
    if d < 2:
        raise OutOfDomain(f"dimension must be at least 2, got {d}")
    if not 1.0 / d - 1e-12 <= g_post_value <= 1.0 + 1e-12:
        raise OutOfDomain(f"g_post={g_post_value} outside [1/{d}, 1]")
    g = min(max(g_post_value, 1.0 / d), 1.0)
    saturating = math.sqrt(g) + math.sqrt((d - 1) * max(1.0 - g, 0.0))
    return saturating, (1.0 + saturating * saturating) / (d + 1)


def check_bound(m: Measurement) -> FidelityReport:
    """Assemble all mean fidelities and check the information-disturbance bound."""
    d = m.dim
    a_maxes = np.array([m.effect(s).a_max for s in range(1, m.n_outcomes + 1)])
    gp = float(a_maxes.sum()) / d
    f = operation_fidelity(m)
    lhs = math.sqrt(max((d + 1) * f - 1.0, 0.0))
    rhs = math.sqrt(max(gp, 0.0)) + math.sqrt((d - 1) * max(1.0 - gp, 0.0))
    return FidelityReport(
        g_post=gp,
        g_pre=(1.0 + gp) / (d + 1),
        f_op=f,
        per_outcome_a_max=frozen(a_maxes),
        bound_lhs=lhs,
        bound_rhs=rhs,
        bound_satisfied=lhs <= rhs + BOUND_SLACK,
    )


def pure_part(m: Measurement) -> Measurement:
    """The device with each ``M_s`` replaced by ``sqrt(E_s)``.

    Effects, outcome statistics and both estimation fidelities are unchanged;
    only the unitary kicks (and with them the operation fidelity) are stripped.
    """
    roots = [m.effect(s).sqrt_matrix() for s in range(1, m.n_outcomes + 1)]
    return Measurement(roots, labels=m.labels, tolerance=m.tolerance)


def is_pure_measurement(m: Measurement) -> bool:
    """True iff every Kraus operator is Hermitian positive semidefinite."""
    k = m.kraus
    if any(frobenius_distance(op, op.conj().T) > PURITY_TOL * max(1.0, fro_norm(op)) for op in k):
        return False
    lowest = hermitian_eig(0.5 * (k + k.conj().swapaxes(1, 2))).eigenvalues[:, -1]
    return bool(np.all(lowest >= -PURITY_TOL))


def verify_estimate_relations(m: Measurement, s: int) -> RelationCheck:
    """Check that ``U_s chi_pre = chi_post`` and ``M_s chi_pre = sqrt(a_max) chi_post``.

    Both relations are evaluated as phase-insensitive squared overlaps, since
    states are physical rays. Degenerate or vanishing top eigenvalues make the
    estimates non-unique, so those outcomes are reported as skipped.
    """
    spectrum = m.effect(s).spectrum
    a_max = m.effect(s).a_max
    if a_max <= A_MAX_FLOOR:
        return RelationCheck(skipped=True, reason="a_max is numerically zero")
    if spectrum.top_gap() < EIG_GAP_TOL:
        return RelationCheck(skipped=True, reason="top eigenvalue is degenerate")
    chi_pre = spectrum.eigenvectors[:, 0]
    chi_post = best_post_estimate(m, s)
    u = m.bi_orthogonal_factors(s).unitary
    unitary_overlap = abs(np.vdot(chi_post, u @ chi_pre)) ** 2
    kraus_overlap = abs(np.vdot(chi_post, m.kraus_op(s) @ chi_pre)) ** 2 / a_max
    return RelationCheck(
        skipped=False,
        unitary_link_ok=bool(unitary_overlap >= 1.0 - OVERLAP_TOL),
        kraus_link_ok=bool(kraus_overlap >= 1.0 - OVERLAP_TOL),
    )


def make_rank_one_device(pre_states, post_states, weights, tolerance=None) -> Measurement:
    """Build ``M_s = sqrt(w_s) |post_s><pre_s|`` from rank-one data.

    The weighted pre-state projectors must resolve the identity (the pre-states
    form an overcomplete basis); the post-states are unconstrained, and the
    resulting device always attains ``g_post = 1``.
    """
    states = [as_state(x) for x in pre_states]
    if not states:
        raise DimensionMismatch("a rank-one device needs at least one pre-state")
    d = len(states[0])
    for i, x in enumerate(states, 1):
        if len(x) != d:
            raise DimensionMismatch(f"pre-state {i} has dimension {len(x)}, expected {d}")
    pres = np.array(states)
    posts = np.array([as_state(x, d) for x in post_states])
    w = np.asarray(weights, dtype=np.float64)
    if len(pres) != len(posts) or w.shape != (len(pres),):
        raise DimensionMismatch("pre_states, post_states and weights must have equal length")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise OutOfDomain("rank-one weights must be positive and finite")
    bras = pres.conj()[:, None, :]
    total = (w[:, None, None] * (pres[:, :, None] * bras)).sum(axis=0)
    if tolerance is None:
        tolerance = DEFAULT_COMPLETENESS_TOL
    defect = frobenius_distance(total, np.eye(d))
    if defect > tolerance:
        raise IncompleteDevice(defect, f"pre-state projectors sum off identity by {defect:.6g}")
    kraus = np.sqrt(w)[:, None, None] * (posts[:, :, None] * bras)
    return Measurement(kraus, tolerance=tolerance)


def domain_boundary(d, steps: int) -> np.ndarray:
    """Sample the saturation curve ``(g_post, max_f)`` on a uniform grid.

    ``d`` is an integer dimension >= 2, or ``math.inf`` for the limiting curve
    ``max_f = 1 - g_post`` sampled on (0, 1]. Returns an array of shape
    ``(steps, 2)``, monotone non-increasing in its second column.
    """
    if steps < 2:
        raise OutOfDomain(f"need at least 2 steps, got {steps}")
    if isinstance(d, float) and math.isinf(d):
        g = np.arange(1, steps + 1, dtype=np.float64) / steps
        return np.column_stack([g, 1.0 - g])
    d = int(d)
    if d < 2:
        raise OutOfDomain(f"dimension must be at least 2 (or inf), got {d}")
    g = np.linspace(1.0 / d, 1.0, steps)
    f = np.array([tradeoff_bound(d, gi)[1] for gi in g])
    return np.column_stack([g, f])
