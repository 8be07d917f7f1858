"""Optimal state estimates and mean fidelities for a generalized measurement.

Given the device and an observed outcome ``s``, the best guess for the state
*after* the measurement is the top eigenvector of ``M_s M_s^dag`` and the best
guess for the state *before* it is the top eigenvector of ``E_s = M_s^dag M_s``;
both eigenvalue problems share the spectrum, so ``estimate_pairs`` reads both,
for every outcome in one stacked pass, from the device's one spectrum stack,
and the common top eigenvalue ``a_max`` drives the mean fidelities:

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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutOfDomain
from .matkernel import (
    _fro_norms,
    _max_count,
    _top_eigenvector,
    canonicalize_phase,
    finite_array,
    finite_scalar,
    hermitian_eig,
)
from .measurement import Measurement, _check_guesses, _floored_psd_eigenvalues, as_state

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

    ``degenerate`` is the flag of :func:`matkernel._top_eigenvector`: the estimates
    are then one deterministic choice out of a whole eigenspace of equally good ones.
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


def _estimate_rows(m: Measurement, rows: slice) -> list[EstimatePair]:
    """Both optimal estimates for the outcomes in row range ``rows``, from one stacked pass: the one place for them.

    ``chi_pre`` is the ``_top_eigenvector`` of ``E_s`` and ``a_max`` its eigenvalue, clipped at zero. ``chi_post``,
    the top eigenvector of ``M_s M_s^dag``, follows from the link ``M_s chi_pre = sqrt(a_max) chi_post``: it is
    the phase-canonical ``M_s chi_pre`` normalized, or ``chi_pre`` itself when ``||M_s chi_pre||^2 <= A_MAX_FLOOR``
    (a vanishing top, or a tie-broken ``chi_pre`` in the kernel of ``M_s``). The vectors are read-only rows.
    """
    chi_pre, degenerate = _top_eigenvector(m.spectrum.eigenvalues[rows], m.spectrum.eigenvectors[rows])
    v = (m.kraus[rows] @ chi_pre[:, :, None])[:, :, 0]
    norms = np.sqrt(np.sum(v.real**2 + v.imag**2, axis=1))
    vanishing = (norms * norms <= A_MAX_FLOOR)[:, None]
    chi_post = np.where(vanishing, chi_pre, canonicalize_phase(v / np.where(vanishing, 1.0, norms[:, None])))
    chi_pre.setflags(write=False)
    chi_post.setflags(write=False)
    fields = zip(_a_maxes(m)[rows].tolist(), chi_pre, chi_post, degenerate.tolist())
    return [EstimatePair(s, *row) for s, row in zip(range(1, m.n_outcomes + 1)[rows], fields)]


def estimate_pairs(m: Measurement) -> list[EstimatePair]:
    """Both optimal estimates for every outcome, in order, from one stacked pass over all outcomes."""
    return _estimate_rows(m, slice(None))


def estimate_pair(m: Measurement, s: int) -> EstimatePair:
    """Both optimal estimates for outcome ``s``: the same pass as :func:`estimate_pairs`, over its one row."""
    i = m._index(s)
    return _estimate_rows(m, slice(i, i + 1))[0]


def best_post_estimate(m: Measurement, s: int) -> np.ndarray:
    """Top eigenvector of ``M_s M_s^dag``: the optimal post-measurement guess, as a writable copy."""
    return estimate_pair(m, s).chi_post.copy()


def best_pre_estimate(m: Measurement, s: int) -> np.ndarray:
    """Top eigenvector of ``E_s``: the optimal pre-measurement guess, as a writable copy."""
    return estimate_pair(m, s).chi_pre.copy()


def _sum_squared_norms(ops: np.ndarray, states: np.ndarray) -> float:
    """``sum_s ||ops[s] states[s]||^2``, summed over outcomes in order."""
    amp = (ops @ states[:, :, None])[:, :, 0]
    return sum(np.sum(amp.real**2 + amp.imag**2, axis=1).tolist())


def g_post_of_guess(m: Measurement, guesses) -> float:
    """Mean post-measurement estimation fidelity of arbitrary per-outcome guesses."""
    return _sum_squared_norms(m.kraus.conj().swapaxes(1, 2), _check_guesses(m, guesses)) / m.dim


def g_pre_of_guess(m: Measurement, guesses) -> float:
    """Mean pre-measurement estimation fidelity of arbitrary per-outcome guesses."""
    d = m.dim
    return (d + _sum_squared_norms(m.kraus, _check_guesses(m, guesses))) / (d * (d + 1))


def _trace_moduli(m: Measurement) -> np.ndarray:
    """Every outcome's ``|tr M_s|`` by ``hypot``, which rounds as scalar ``abs`` does (array ``abs`` does not)."""
    traces = np.trace(m.kraus, axis1=1, axis2=2)
    return np.hypot(traces.real, traces.imag)


def _fidelity_of_moduli(d: int, moduli: np.ndarray) -> float:
    """``(d + sum_s |tr M_s|^2)/(d(d+1))`` from the trace moduli, squared by ``pow`` and summed in order."""
    return (d + sum(x**2 for x in moduli.tolist())) / (d * (d + 1))


def operation_fidelity(m: Measurement) -> float:
    """Mean overlap of input and output states: ``(d + sum_s |tr M_s|^2)/(d(d+1))``."""
    return _fidelity_of_moduli(m.dim, _trace_moduli(m))


def _bound_rhs(d: int, g):
    """The bound's right side ``sqrt(g) + sqrt((d-1)(1-g))``, roots of values floored at 0; ``g`` may be an array."""
    return np.sqrt(np.maximum(g, 0.0)) + np.sqrt(float(d - 1) * np.maximum(1.0 - g, 0.0))


def tradeoff_bound(d: int, g_post_value: float) -> tuple[float, float]:
    """Largest operation fidelity compatible with a given ``g_post`` in dimension d.

    Returns ``(saturating_value, max_f)`` where ``saturating_value`` is the
    common value both sides of the inequality take at saturation and
    ``max_f = (1 + saturating_value**2) / (d + 1)``.
    """
    d = finite_scalar(d, int, "dimension", 2, sys.float_info.max)
    g_post_value = finite_scalar(g_post_value, float, f"g_post in dimension {d}", 1.0 / d - 1e-12, 1.0 + 1e-12)
    saturating = float(_bound_rhs(d, np.clip(g_post_value, 1.0 / d, 1.0)))
    return saturating, (1.0 + saturating * saturating) / float(d + 1)


def _a_maxes(m: Measurement) -> np.ndarray:
    """Every outcome's top effect eigenvalue ``a_max``, clipped at zero."""
    return np.maximum(m.spectrum.eigenvalues[:, 0], 0.0)


def _bound_lhs(d: int, f: float) -> float:
    """The bound's left side ``sqrt((d+1) F - 1)``, the root of a value floored at 0."""
    return math.sqrt(max((d + 1) * f - 1.0, 0.0))


def _completion_range(m: Measurement, gp: float, moduli: np.ndarray) -> tuple[float, float, float]:
    """``(g_lo, g_hi, f_lo)``: what the completed device ``M_s S^{-1/2}`` (``S = sum_s E_s``) can read.

    It is exactly complete, so it obeys the bound. From the defect ``t >= ||S - 1||`` alone, its ``g_post`` lies
    in ``[gp/(1+t), min(gp/(1-t), 1)]`` and each ``|tr M_s|`` (``moduli``) moves by at most
    ``||M_s||_F t / (2 (1-t)^{3/2})``, so its ``F`` is at least the one read with every ``|tr M_s|`` lowered by
    that much (floored at 0). At ``t = 0`` the range is ``(gp, min(gp, 1), F)``.
    """
    d, t = m.dim, m.completeness_defect
    lowered = np.maximum(moduli - _fro_norms(m.kraus) * (t / (2.0 * (1.0 - t) ** 1.5)), 0.0)
    return gp / (1.0 + t), min(gp / (1.0 - t), 1.0), _fidelity_of_moduli(d, lowered)


def check_bound(m: Measurement) -> FidelityReport:
    """Assemble all mean fidelities and check the information-disturbance bound at the device's own defect.

    ``bound_lhs`` and ``bound_rhs`` are the two sides at the reported ``F`` and ``g_post``. The verdict holds a
    device to what its completion can read (:func:`_completion_range`): the left side at the lowest ``F`` against
    the largest right side over the ``g_post`` range, which is at an end or at ``1/d``, where the concave right
    side peaks. It never rejects a device whose completion obeys the bound, and at defect 0 it is ``lhs <= rhs``.
    """
    d = m.dim
    gp = float(_a_maxes(m).sum()) / d
    moduli = _trace_moduli(m)
    f = _fidelity_of_moduli(d, moduli)
    lhs = _bound_lhs(d, f)
    rhs = float(_bound_rhs(d, gp))
    g_lo, g_hi, f_lo = _completion_range(m, gp, moduli)
    ends = [g_lo, g_hi, 1.0 / d] if g_lo <= 1.0 / d <= g_hi else [g_lo, g_hi]
    satisfied = _bound_lhs(d, f_lo) <= float(np.max(_bound_rhs(d, np.array(ends)))) + BOUND_SLACK
    return FidelityReport(
        g_post=gp,
        g_pre=(1.0 + gp) / (d + 1),
        f_op=f,
        bound_lhs=lhs,
        bound_rhs=rhs,
        bound_satisfied=satisfied,
    )


def pure_part(m: Measurement) -> Measurement:
    """The device with each ``M_s`` replaced by ``sqrt(E_s)``.

    Effects, outcome statistics and both estimation fidelities are unchanged; only the unitary kicks (and with
    them the operation fidelity) are stripped. The result keeps ``m``'s labels and tolerance
    (:meth:`Measurement.with_kraus`).
    """
    v = m.spectrum.eigenvectors
    roots = np.sqrt(_floored_psd_eigenvalues(m.spectrum.eigenvalues))
    sqrt_e = (v * roots[:, None, :]) @ v.conj().swapaxes(1, 2)
    return m.with_kraus(0.5 * (sqrt_e + sqrt_e.conj().swapaxes(1, 2)))


def is_pure_measurement(m: Measurement) -> bool:
    """True iff every Kraus operator is Hermitian positive semidefinite."""
    k = m.kraus
    if np.any(_fro_norms(k - k.conj().swapaxes(1, 2)) > PURITY_TOL * np.maximum(1.0, _fro_norms(k))):
        return False
    lowest = hermitian_eig(0.5 * (k + k.conj().swapaxes(1, 2))).eigenvalues[:, -1]
    return bool(np.all(lowest >= -PURITY_TOL))


def verify_estimate_relations(m: Measurement, s: int) -> RelationCheck:
    """Check that ``U_s chi_pre = chi_post`` and ``M_s chi_pre = sqrt(a_max) chi_post``.

    Both relations are evaluated as phase-insensitive squared overlaps, since
    states are physical rays. Degenerate or vanishing top eigenvalues make the
    estimates non-unique, so those outcomes are reported as skipped.
    """
    pair = estimate_pair(m, s)
    if pair.a_max <= A_MAX_FLOOR:
        return RelationCheck(skipped=True, reason="a_max is numerically zero")
    if pair.degenerate:
        return RelationCheck(skipped=True, reason="top eigenvalue is degenerate")
    u = m.bi_orthogonal_factors(s).unitary
    unitary_overlap = abs(np.vdot(pair.chi_post, u @ pair.chi_pre)) ** 2
    kraus_overlap = abs(np.vdot(pair.chi_post, m.kraus_op(s) @ pair.chi_pre)) ** 2 / pair.a_max
    return RelationCheck(
        skipped=False,
        unitary_link_ok=bool(unitary_overlap >= 1.0 - OVERLAP_TOL),
        kraus_link_ok=bool(kraus_overlap >= 1.0 - OVERLAP_TOL),
    )


def make_rank_one_device(pre_states, post_states, weights) -> Measurement:
    """Build ``M_s = sqrt(w_s) |post_s><pre_s|`` from rank-one data.

    The weighted projectors onto the pre-states must resolve the identity (they
    form an overcomplete basis), which :class:`Measurement` checks as the
    completeness of the effects ``w_s |pre_s><pre_s|``; the post-states are
    unconstrained, and the resulting device always attains ``g_post = 1``.
    """
    if not (np.iterable(pre_states) and np.iterable(post_states)):
        raise DimensionMismatch("pre- and post-states must be iterables of state vectors")
    states = [as_state(x) for x in pre_states]
    if not states:
        raise DimensionMismatch("a rank-one device needs at least one pre-state")
    d = len(states[0])
    for i, x in enumerate(states, 1):
        if len(x) != d:
            raise DimensionMismatch(f"pre-state {i} has dimension {len(x)}, expected {d}")
    pres = np.array(states)
    posts = np.array([as_state(x, d) for x in post_states])
    w = finite_array(weights, np.float64, OutOfDomain, "rank-one weights must be positive and finite", ndim=1)
    if len(pres) != len(posts) or w.shape != (len(pres),):
        raise DimensionMismatch("pre_states, post_states and weights must have equal length")
    if np.any(w <= 0.0):
        raise OutOfDomain("rank-one weights must be positive and finite")
    kraus = np.sqrt(w)[:, None, None] * (posts[:, :, None] * pres.conj()[:, None, :])
    return Measurement(kraus)


def domain_boundary(d, steps: int) -> np.ndarray:
    """Sample the saturation curve ``(g_post, max_f)`` on a uniform grid.

    ``d`` is an integer dimension >= 2, or ``math.inf`` for the limiting curve
    ``max_f = 1 - g_post`` sampled on (0, 1]. Returns an array of shape
    ``(steps, 2)``, monotone non-increasing in its second column.
    """
    steps = finite_scalar(steps, int, "steps", 2, _max_count(16))  # the (steps, 2) float table
    if isinstance(d, float) and d == math.inf:
        g = np.arange(1, steps + 1, dtype=np.float64) / steps
        return np.column_stack([g, 1.0 - g])
    d = finite_scalar(d, int, "dimension (or math.inf)", 2, sys.float_info.max)
    g = np.linspace(1.0 / d, 1.0, steps)
    saturating = _bound_rhs(d, np.clip(g, 1.0 / d, 1.0))
    return np.column_stack([g, (1.0 + saturating * saturating) / float(d + 1)])
