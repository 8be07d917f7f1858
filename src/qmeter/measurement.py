"""Generalized (POVM) measurements on a single d-level system.

A :class:`Measurement` is an ordered set of Kraus operators ``M_1..M_n`` acting
on dimension ``d``, held as one ``(n, d, d)`` array and validated against the
completeness relation ``sum_s M_s^dag M_s = 1``. Reading outcome ``s``
collapses a pure state to ``M_s |psi> / sqrt(p_s)``; one stacked product ``M_s psi``
gives that state and the Born probability ``p_s = ||M_s psi||^2``. The effects
``E_s = M_s^dag M_s`` (POVM elements) feed only ``spectrum`` and the defect.

Outcome indices are 1-based throughout. Devices are immutable after validation;
the spectra of all effects are one stacked eigensystem, ``Measurement.spectrum``,
solved on first use. Sampling takes a caller-owned RNG stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    IncompleteDevice,
    InternalConsistencyError,
    OutcomeOutOfRange,
    OutOfDomain,
    ShapeMismatch,
    ZeroProbabilityOutcome,
)
from .matkernel import (
    EigenSystem,
    _fro_norms,
    _max_count,
    finite_array,
    finite_scalar,
    hermitian_eig,
    polar_decompose,
)

DEFAULT_COMPLETENESS_TOL = 1e-10
# Below this, an outcome probability counts as "impossible for this state"
# and conditioning on it is refused rather than amplified from noise.
PROBABILITY_FLOOR = 1e-14
# Round-off can push an effect eigenvalue slightly negative; anything worse is corrupt input.
NEGATIVITY_TOL = 1e-12
# Effect eigenvalues this far below the top one (relatively) are rounding noise
# and are zeroed before square roots enter any reconstruction.
EIGENVALUE_FLOOR_FACTOR = 1e-14
# A state's norm may differ from 1 by this much before it is rejected.
STATE_NORM_TOL = 1e-10


def as_state(vec, dim: int | None = None) -> np.ndarray:
    """Coerce ``vec`` to a normalized complex amplitude vector; a norm off 1 raises OutOfDomain."""
    v = finite_array(vec, np.complex128, DimensionMismatch, "state must be a 1-D amplitude vector", ndim=1)
    return _normalized(v, dim).copy()


def as_states(rows, dim: int) -> np.ndarray:
    """Coerce ``rows`` to an ``(N, dim)`` array of normalized amplitude vectors, as :func:`as_state` does one."""
    what = f"states must be an (N, {dim}) array of amplitude vectors"
    return _normalized(finite_array(rows, np.complex128, DimensionMismatch, what, ndim=2), dim)


def _check_guesses(m: Measurement, guesses) -> np.ndarray:
    """One normalized state of dimension ``m.dim`` per outcome, stacked; anything else raises a QmeterError."""
    states = as_states(list(guesses) if np.iterable(guesses) else guesses, m.dim)
    if len(states) != m.n_outcomes:
        raise DimensionMismatch(f"{len(states)} guesses for {m.n_outcomes} outcomes")
    return states


def _normalized(a: np.ndarray, dim: int | None) -> np.ndarray:
    """``a`` if its last axis has length ``dim`` (when given) and every vector along it norm 1."""
    if dim is not None and a.shape[-1] != dim:
        raise DimensionMismatch(f"state has dimension {a.shape[-1]}, expected {dim}")
    with np.errstate(over="ignore"):  # huge finite amplitudes give norm inf, rejected below
        norms = np.sqrt(np.sum(a.real**2 + a.imag**2, axis=-1))
    bad = np.flatnonzero(np.abs(norms - 1.0) > STATE_NORM_TOL)
    if bad.size:
        raise OutOfDomain(f"state norm is {norms.flat[bad[0]]:.12g}, not 1 within {STATE_NORM_TOL:.1e}")
    return a


def _floored_psd_eigenvalues(values: np.ndarray) -> np.ndarray:
    """Clip descending positive-semidefinite spectra along the last axis: negatives and relative noise -> 0."""
    a = np.clip(np.asarray(values, dtype=np.float64), 0.0, None)
    a[a < EIGENVALUE_FLOOR_FACTOR * a[..., :1]] = 0.0
    return a


@dataclass(frozen=True)
class BiOrthogonalFactors:
    """Bi-orthogonal data of one Kraus operator ``M_s = U_s sqrt(E_s)``.

    ``eigenvalues[i]`` pairs the right eigenvector ``right_basis[:, i]`` (an
    eigenvector of ``E_s``) with the left eigenvector
    ``left_basis[:, i] = unitary @ right_basis[:, i]`` so that
    ``M_s = sum_i sqrt(eigenvalues[i]) |left_i><right_i|``.
    """

    eigenvalues: np.ndarray
    right_basis: np.ndarray
    left_basis: np.ndarray
    unitary: np.ndarray


class Measurement:
    """A validated generalized measurement (ordered Kraus set) on dimension d.

    ``kraus_ops`` is an iterable of ``d x d`` matrices or one ``(n, d, d)`` array;
    ``tolerance`` (in [0, 0.5]) bounds the Frobenius completeness defect. The
    operators, their effects and the effects' ``spectrum`` are read-only stacks
    (row ``s - 1`` is outcome ``s``), so instances are safe to share across threads.
    """

    def __init__(self, kraus_ops, labels=None, tolerance: float | None = None):
        # At most 1/2: every state keeps a total probability >= 1/2, and fidelities exceed 1 by at most the defect.
        tolerance = DEFAULT_COMPLETENESS_TOL if tolerance is None else tolerance
        tolerance = finite_scalar(tolerance, float, "completeness tolerance", 0.0, 0.5)
        self._accept(kraus_ops, labels, tolerance, tolerance)

    def _accept(self, kraus_ops, labels, tolerance: float, limit: float):
        """Validate and store a device of the given tolerance whose completeness defect is at most ``limit``."""
        ops = list(kraus_ops) if np.iterable(kraus_ops) else kraus_ops
        what = "Kraus operators must form one non-empty (n, d, d) array of numbers"
        kraus = finite_array(ops, np.complex128, ShapeMismatch, what, ndim=3)
        if 0 in kraus.shape or kraus.shape[1] != kraus.shape[2]:
            raise ShapeMismatch(f"{what}, got {kraus.shape}")
        n, d, _ = kraus.shape
        # Finite but huge entries overflow M^dag M, or the squares in its defect.
        with np.errstate(over="ignore", invalid="ignore"):
            effects = kraus.conj().swapaxes(1, 2) @ kraus
            effects = 0.5 * (effects + effects.conj().swapaxes(1, 2))
            total = effects.sum(axis=0)
            defect = float(_fro_norms((total - np.eye(d))[None])[0]) if np.isfinite(total).all() else math.inf
        if math.isinf(defect):
            raise OutOfDomain(
                "effects M_s^dag M_s or their defect overflow float64: the Kraus entries are too large"
            )
        if defect > limit:
            raise IncompleteDevice(defect, tolerance=limit)

        if labels is not None:
            if isinstance(labels, (str, bytes)) or not np.iterable(labels):
                raise ShapeMismatch(f"labels must be an iterable of {n} names, got {type(labels).__name__}")
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ShapeMismatch(f"{len(labels)} labels for {n} outcomes")

        kraus.setflags(write=False)
        effects.setflags(write=False)
        self._kraus = kraus
        self._effects = effects
        self._labels = labels
        self._tolerance = tolerance
        # Effects and probabilities of an accepted device may exceed 1 by up to its
        # tolerance, and by rounding on top of it: one allowance of the default size.
        self._slack = tolerance + DEFAULT_COMPLETENESS_TOL
        self._defect = defect

    def with_kraus(self, kraus_ops) -> Measurement:
        """A device with this one's labels and tolerance on new Kraus operators with the same effects.

        Rebuilding the operators moves the completeness defect by rounding, so it is
        checked against this device's slack, the allowance its effects already get.
        """
        rebuilt = Measurement.__new__(Measurement)
        rebuilt._accept(kraus_ops, self._labels, self._tolerance, self._slack)
        return rebuilt

    def __repr__(self):
        return f"Measurement(dim={self.dim}, n_outcomes={self.n_outcomes})"

    @property
    def dim(self) -> int:
        return self._kraus.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self._kraus.shape[0]

    @property
    def kraus(self) -> np.ndarray:
        """The read-only ``(n, d, d)`` array of Kraus operators."""
        return self._kraus

    @property
    def effects(self) -> np.ndarray:
        """The read-only ``(n, d, d)`` array of effects ``E_s = M_s^dag M_s``."""
        return self._effects

    @property
    def labels(self):
        return self._labels

    @property
    def tolerance(self) -> float:
        return self._tolerance

    @property
    def completeness_defect(self) -> float:
        return self._defect

    def _index(self, s: int) -> int:
        return finite_scalar(s, int, "outcome", 1, self.n_outcomes, OutcomeOutOfRange) - 1

    def kraus_op(self, s: int) -> np.ndarray:
        """Kraus operator of outcome ``s`` (1-based), a read-only view."""
        return self._kraus[self._index(s)]

    @cached_property
    def spectrum(self) -> EigenSystem:
        """All effect spectra from one stacked eigensolve on first use, range-checked against [0, 1].

        Read-only ``(n, d)`` eigenvalues and ``(n, d, d)`` eigenvectors; row ``s - 1`` is outcome ``s``.
        """
        spectrum = hermitian_eig(self._effects)
        lo, hi = spectrum.eigenvalues[:, -1], spectrum.eigenvalues[:, 0]
        bad = np.flatnonzero((lo < -NEGATIVITY_TOL) | (hi > 1.0 + self._slack))
        if bad.size:
            i = bad[0]
            raise InternalConsistencyError(f"effect {i + 1} spectrum [{lo[i]:.3e}, {hi[i]:.3e}] outside [0, 1]")
        return spectrum

    def _born(self, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The Born rule, the one place it is computed: every ``M_s psi`` and ``p_s = ||M_s psi||^2``, row ``s - 1``.

        The total is held to the state's own squared norm, which :func:`as_state` lets sit
        ``STATE_NORM_TOL`` off 1: ``sum_s p_s / ||psi||^2`` is the device's completeness at ``psi``.
        """
        amps = self._kraus @ psi
        p = np.sum(amps.real**2 + amps.imag**2, axis=1)
        total, norm2 = p.sum(), np.vdot(psi, psi).real
        if abs(total - norm2) > self._slack * norm2:
            raise InternalConsistencyError(f"probabilities sum to {total:.12f}, not ||psi||^2 = {norm2:.12f}")
        return amps, p

    def outcome_distribution(self, psi) -> np.ndarray:
        """Outcome probabilities ``p_s = ||M_s psi||^2`` for a normalized state."""
        return self._born(as_state(psi, self.dim))[1]

    def collapse(self, psi, s: int) -> np.ndarray:
        """Conditional post-measurement state ``M_s|psi> / sqrt(p_s)``."""
        i = self._index(s)
        amps, p = self._born(as_state(psi, self.dim))
        if p[i] <= PROBABILITY_FLOOR:
            raise ZeroProbabilityOutcome(f"outcome {i + 1} has probability {p[i]:.3e} <= {PROBABILITY_FLOOR:.0e}")
        return amps[i] / np.sqrt(p[i])

    def sample_outcome(self, psi, rng):
        """Draw one outcome: the ``shots=1`` case of :meth:`sample_outcomes`.

        Returns ``(s, collapsed_state)``.
        """
        outcomes, posts = self.sample_outcomes(psi, rng, 1)
        s = int(outcomes[0])
        return s, posts[s]

    def sample_outcomes(self, psi, rng, shots: int):
        """Draw ``shots`` outcomes by inverse CDF, one uniform variate per shot.

        ``rng`` is any object whose ``random(size)`` returns the uniforms, such as
        ``RngStream(seed).generator()``; a failing draw, or one that is not
        ``shots`` finite floats in ``[0, 1]``, raises ``OutOfDomain``. The
        caller owns its state, so fixed streams reproduce bit-identically.
        All uniforms come from one ``random(shots)`` call, which consumes the
        stream exactly as ``shots`` single draws do. A draw that lands on an
        outcome with ``p <= PROBABILITY_FLOOR`` moves to the next outcome above
        the floor, or to the last one when none follows.

        Returns ``(outcomes, posts)``: the 1-based outcome of every shot as an
        int array, and a dict from each outcome that occurs to its collapsed
        state (computed once per distinct outcome).
        """
        shots = finite_scalar(shots, int, "shots", 1, _max_count(8))  # one float64 uniform per shot
        amps, p = self._born(as_state(psi, self.dim))
        try:
            raw = rng.random(shots)
        except (AttributeError, TypeError) as e:  # no callable random(size)
            raise OutOfDomain(f"rng must be a numpy.random.Generator, got {type(rng).__name__}") from e
        uniforms = finite_array(raw, np.float64, OutOfDomain, "rng.random(shots)", 1)
        if uniforms.shape != (shots,) or not (uniforms.min() >= 0.0 and uniforms.max() <= 1.0):
            raise OutOfDomain(f"rng.random({shots}) must give {shots} uniforms in [0, 1], got {raw!r:.80}")
        n = self.n_outcomes
        # Rounding can leave the total mass below a uniform: clamp to outcome n.
        drawn = np.minimum(np.searchsorted(np.cumsum(p), uniforms, side="right"), n - 1)
        viable = np.flatnonzero(p > PROBABILITY_FLOOR)
        if not viable.size:  # a guard only: a tolerance <= 1/2 leaves sum(p) >= 1/2
            raise ZeroProbabilityOutcome(f"every outcome has probability <= {PROBABILITY_FLOOR:.0e}")
        # nearest[i]: the first viable index >= i, else the last viable one.
        nearest = viable[np.minimum(np.searchsorted(viable, np.arange(n)), viable.size - 1)]
        outcomes = nearest[drawn] + 1
        posts = {s: amps[s - 1] / np.sqrt(p[s - 1]) for s in np.unique(outcomes).tolist()}
        return outcomes, posts

    def bi_orthogonal_factors(self, s: int) -> BiOrthogonalFactors:
        """Polar-split outcome ``s``: right/left eigenbases joined by ``U_s``."""
        i = self._index(s)
        unitary, _ = polar_decompose(self._kraus[i])
        right = self.spectrum.eigenvectors[i]
        eigenvalues, left = _floored_psd_eigenvalues(self.spectrum.eigenvalues[i]), unitary @ right
        for a in (eigenvalues, left, unitary):
            a.setflags(write=False)
        return BiOrthogonalFactors(eigenvalues=eigenvalues, right_basis=right, left_basis=left, unitary=unitary)
