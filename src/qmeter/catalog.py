"""Constructors for the measurement families used in tests and demos.

The unsharp qubit family is the workhorse: it interpolates from the identity
device (lambda = 0, no information, no disturbance) to a projective
measurement (lambda = 1) and saturates the information-disturbance bound at
every intermediate strength, with closed forms ``g_post = (1 + lambda)/2`` and
``F = (2 + sqrt(1 - lambda^2))/3``.
"""

from __future__ import annotations

import numpy as np

from .errors import NotUnitary, OutOfDomain, ShapeMismatch
from .estimator import make_rank_one_device
from .haar import RngStream, haar_isometry
from .matkernel import _fro_norms, _max_count, finite_array, finite_scalar
from .measurement import Measurement

# Bloch vectors of a regular tetrahedron (pairwise overlap -1/3, summing to 0).
TETRAHEDRON_DIRECTIONS = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=np.float64
) / np.sqrt(3.0)


def projective(d: int) -> Measurement:
    """The d-outcome projective measurement onto the computational basis."""
    d = finite_scalar(d, int, "projective dimension", 2, _max_count(16, 3))  # the (d, d, d) complex Kraus stack
    eye = np.eye(d, dtype=np.complex128)
    return Measurement(eye[:, :, None] * eye[:, None, :], labels=[str(s + 1) for s in range(d)])


def identity_device(d: int) -> Measurement:
    """The trivial single-outcome device that leaves every state untouched."""
    d = finite_scalar(d, int, "dimension", 1, _max_count(16, 2))
    return Measurement([np.eye(d, dtype=np.complex128)], labels=["1"])


def unsharp_qubit(lam: float) -> Measurement:
    """Two-outcome unsharp qubit measurement of strength ``lam`` in [0, 1]."""
    lam = finite_scalar(lam, float, "unsharp strength", 0.0, 1.0)
    hi = np.sqrt((1.0 + lam) / 2.0)
    lo = np.sqrt((1.0 - lam) / 2.0)
    plus = np.diag([hi, lo]).astype(np.complex128)
    minus = np.diag([lo, hi]).astype(np.complex128)
    return Measurement([plus, minus], labels=["+", "-"])


def random_device(d: int, n: int, seed: int) -> Measurement:
    """A Haar-random n-outcome device on dimension d, deterministic per seed.

    The Kraus operators are the n row-blocks of a random isometry from
    dimension d into n*d, so completeness holds structurally rather than by
    post-hoc correction.
    """
    d, n = finite_scalar(d, int, "dimension", 2), finite_scalar(n, int, "outcome count", 1)
    return Measurement(haar_isometry(n * d, d, RngStream(seed)).reshape(n, d, d))


def with_kicks(m: Measurement, unitaries) -> Measurement:
    """Left-multiply each Kraus operator by a unitary kick ``V_s``.

    Effects (hence outcome statistics and both estimation fidelities) are
    unchanged; the operation fidelity generally is not. The kicked device keeps
    ``m``'s labels and tolerance (:meth:`Measurement.with_kraus`).
    """
    kicks = finite_array(unitaries, np.complex128, ShapeMismatch, "kicks must be an (n, d, d) unitary array", ndim=3)
    if kicks.shape != m.kraus.shape:
        raise ShapeMismatch(f"kicks of shape {kicks.shape} for Kraus operators of shape {m.kraus.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # huge kicks give a defect of inf or nan
        gram = kicks.conj().swapaxes(1, 2) @ kicks
        defect = float(_fro_norms(gram - np.eye(m.dim)).max())
    if not defect <= 1e-10:
        raise NotUnitary(f"kick unitarity defect {defect:.3e} exceeds 1e-10")
    return m.with_kraus(kicks @ m.kraus)


def bloch_state(direction) -> np.ndarray:
    """Qubit state with the given non-zero Bloch vector (normalized internally)."""
    v = finite_array(direction, np.float64, ShapeMismatch, "a Bloch vector must be 3 real numbers", ndim=1)
    if v.shape != (3,):
        raise ShapeMismatch(f"a Bloch vector must be 3 real numbers, got {v.shape[0]}")
    scale = np.abs(v).max()
    if scale == 0.0:
        raise OutOfDomain("the zero vector has no Bloch direction")
    v = v / scale  # keeps the squares in the norm within the float range
    nx, ny, nz = v / np.linalg.norm(v)
    theta = np.arccos(np.clip(nz, -1.0, 1.0))
    phi = np.arctan2(ny, nx)
    return np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])


def tetrahedron_rank_one(post_states=None) -> Measurement:
    """Four-outcome rank-one qubit device with tetrahedral pre-states.

    Weights 1/2 on the four tetrahedral directions resolve the identity, so the
    device is informationally complete with more outcomes than dimensions. The
    post-states default to the pre-states and may be replaced freely without
    affecting the effects.
    """
    pres = [bloch_state(v) for v in TETRAHEDRON_DIRECTIONS]
    posts = pres if post_states is None else list(post_states)
    return make_rank_one_device(pres, posts, weights=[0.5] * 4)
