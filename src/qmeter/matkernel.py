"""Dense complex matrix primitives with deterministic, reproducible output.

Everything downstream (effects, spectral data, polar factors) is built on the
routines here. Every array from outside qmeter enters through one gate,
``finite_array``, and every scalar through its twin, ``finite_scalar``. The
numerics are thin layers over LAPACK:

* ``hermitian_eig`` makes one ``numpy.linalg.eigh`` call on a matrix or a stack,
* ``polar_decompose`` assembles both factors from ``numpy.linalg.svd``.

What this module adds is a fixed output convention: eigenvalues descending,
eigenvector phases canonicalized, and one vector for a degenerate top group
that depends only on its eigenspace (``_top_eigenvector``, on a whole stack of
spectra at once). Results are bit-reproducible within one numpy/BLAS build and
agree to rounding across builds.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian, OutOfDomain, ShapeMismatch

# Degenerate eigenvalues are grouped when consecutive gaps fall below this.
EIG_GAP_TOL = 1e-10
# First vector component with modulus above this is rotated to be real positive.
PHASE_TOL = 1e-12
# Relative Hermitian-symmetry tolerance for hermitian_eig inputs.
HERMITICITY_TOL = 1e-10


def finite_array(x, dtype, error, what: str, ndim: int | tuple[int, ...]) -> np.ndarray:
    """The one gate from outside numbers to arrays: ``x`` as a finite ``dtype`` array with ``ndim`` axes.

    Ragged, string, non-numeric or (for a real ``dtype``) complex input and an axis count not in ``ndim`` raise
    ``error``, an int beyond float64 or a non-finite entry :class:`OutOfDomain`; ``what`` starts each message.
    """
    try:
        a = np.asarray(x)
        if a.dtype.kind in "US" or a.dtype.kind == "O" and any(isinstance(v, (str, bytes)) for v in a.flat):
            raise TypeError("strings where numbers are expected")
        if a.dtype.kind == "c" and np.dtype(dtype).kind != "c":
            raise TypeError("complex numbers where real ones are expected")
        a = a.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError) as e:
        raise (OutOfDomain if isinstance(e, OverflowError) else error)(f"{what}: {e}") from e
    if a.ndim not in (ndim if isinstance(ndim, tuple) else (ndim,)):
        raise error(f"{what}, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise OutOfDomain(f"{what}, got a non-finite entry")
    return a


def finite_scalar(x, kind, what: str, lo, hi=math.inf, error=OutOfDomain):
    """The one gate from outside numbers to scalars: ``x`` as a finite ``kind`` (``int`` or ``float``) in ``[lo, hi]``.

    A bool, a non-number, a float where an int is asked for and a non-finite or out-of-range value raise
    ``error``; ``what`` starts the message. An int too large for a float stays a valid int.
    """
    if not isinstance(x, bool) and isinstance(x, numbers.Integral if kind is int else numbers.Real):
        with contextlib.suppress(OverflowError):  # float() of an int beyond float64
            value = kind(x)
            if lo <= value <= hi and abs(value) != math.inf:
                return value
    noun = "an integer" if kind is int else "a finite real number"
    lo, hi = (f"{b:g}" if isinstance(b, float) else str(b) for b in (lo, hi))  # an int prints exactly
    span = f">= {lo}" if hi == "inf" else f"in [{lo}, {hi}]"
    try:
        got = repr(x)
    except ValueError:  # an int with more decimal digits than sys.get_int_max_str_digits() allows
        got = f"an integer of {x.bit_length()} bits"
    raise error(f"{what} must be {noun} {span}, got {got}")


def _max_count(item_bytes: int, power: int = 1) -> int:
    """The largest ``n`` with ``item_bytes * n**power <= sys.maxsize``: the size bound of an array numpy can index."""
    limit = sys.maxsize // item_bytes
    n = limit if power == 1 else round(limit ** (1.0 / power))  # a float guess, corrected in integers
    while n**power > limit:
        n -= 1
    while (n + 1) ** power <= limit:
        n += 1
    return n


def _fro_norms(stack: np.ndarray) -> np.ndarray:
    """The Frobenius norm ``sqrt(sum |m_ij|^2)`` of each slice of an ``(n, d, d)`` stack: inf where squares overflow."""
    squares = stack.real**2 + stack.imag**2
    n, rows, cols = squares.shape
    return np.sqrt(np.sum(squares.reshape(n, rows * cols), axis=1))


def canonicalize_phase(v) -> np.ndarray:
    """Rotate each vector along the last of ``v``'s 1 to 3 axes so its first |v_i| > PHASE_TOL is real positive.

    The modulus is ``hypot``, which rounds as ``abs`` of one complex number does. Idempotent; keeps a tiny vector.
    """
    v = finite_array(v, np.complex128, ShapeMismatch, "canonicalize_phase requires a vector or a stack", (1, 2, 3))
    if v.shape[-1] == 0:
        return v.copy()
    mod = np.hypot(v.real, v.imag)
    first = np.argmax(mod > PHASE_TOL, axis=-1, keepdims=True)
    lead, lead_mod = np.take_along_axis(v, first, -1), np.take_along_axis(mod, first, -1)
    return np.where(lead_mod > PHASE_TOL, v * (np.conj(lead) / np.maximum(lead_mod, PHASE_TOL)), v)


@dataclass(frozen=True)
class EigenSystem:
    """Spectral data of a Hermitian matrix, or of a stack of them.

    ``eigenvalues`` are real and sorted descending; column ``eigenvectors[:, i]``
    belongs to ``eigenvalues[i]`` (a stack adds a leading matrix axis to both).
    Vectors are orthonormal and phase-canonicalized; inside a degenerate group
    they are LAPACK's basis, and ``_top_eigenvector`` picks the top group's one.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _top_eigenvector(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top-eigenspace vectors ``(n, d)`` and ``degenerate`` flags ``(n,)`` of a descending ``(values, vectors)`` stack.

    A row's top group is the values linked by gaps below ``EIG_GAP_TOL``; it is degenerate when it has more than
    one (never for d = 1). A gapped top gives its own column. A group gives the largest column of its projector
    ``B B^dag`` (the lowest index on a relative tie of ``EIG_GAP_TOL``), normalized and phase-canonicalized: a
    vector that depends only on the group's span. Only the degenerate rows form a projector.
    """
    gaps = np.concatenate([values[:, :-1] - values[:, 1:], np.full((len(values), 1), np.inf)], axis=1)
    width = np.argmax(gaps >= EIG_GAP_TOL, axis=1) + 1
    degenerate = width > 1
    top = vectors[:, :, 0].copy()
    if degenerate.any():
        # Columns past a row's group are zeroed; they add exact zeros to B B^dag.
        b = vectors[degenerate] * (np.arange(values.shape[1]) < width[degenerate, None])[:, None, :]
        projector = b @ b.conj().swapaxes(1, 2)
        norms = np.sqrt(np.sum(projector.real**2 + projector.imag**2, axis=1))
        j = np.argmax(norms >= (1.0 - EIG_GAP_TOL) * norms.max(axis=1, keepdims=True), axis=1)
        rows = np.arange(j.size)
        top[degenerate] = canonicalize_phase(projector[rows, :, j] / norms[rows, j, None])
    return top, degenerate


def hermitian_eig(m) -> EigenSystem:
    """Diagonalize a Hermitian matrix, or an ``(n, d, d)`` stack, with LAPACK ``eigh``.

    A stack is solved by one ``eigh`` call; slice ``i`` of the result is
    bit-identical to ``hermitian_eig(m[i])``. Raises :class:`OutOfDomain` for
    non-finite entries or squares beyond float64, :class:`NotHermitian` when a
    matrix has ``||m - m^dag||_F > HERMITICITY_TOL * ||m||_F`` and
    :class:`NoConvergence` when LAPACK reports failure.
    """
    what = "hermitian_eig requires a (d, d) or (n, d, d) array"
    a = finite_array(m, np.complex128, ShapeMismatch, what, ndim=(2, 3))
    if a.shape[-1] != a.shape[-2]:
        raise ShapeMismatch(f"{what}, got {a.shape}")
    stack = a if a.ndim == 3 else a[None]
    with np.errstate(over="ignore"):
        if np.isinf(_fro_norms(stack)).any():
            raise OutOfDomain(f"{what}, got entries whose squares overflow float64")
    # Compared at a largest modulus of 1, so tiny entries cannot hide a defect by squaring to 0.
    peaks = np.abs(stack).max(axis=(1, 2), initial=0.0)
    scales = np.where(peaks > 0.0, peaks, 1.0)
    unit = stack / scales[:, None, None]
    defects, norms = _fro_norms(unit - unit.conj().swapaxes(1, 2)), _fro_norms(unit)
    bad = np.flatnonzero(defects > HERMITICITY_TOL * norms)
    if bad.size:
        defect = defects[bad[0]] * scales[bad[0]]
        raise NotHermitian(f"symmetry defect {defect:.3e} exceeds {HERMITICITY_TOL:.1e} * ||m||_F")

    try:
        values, vecs = np.linalg.eigh(0.5 * (stack + stack.conj().swapaxes(1, 2)))
    except np.linalg.LinAlgError as e:
        raise NoConvergence(f"LAPACK eigh failed: {e}") from e
    # Descending, each value with its own vector; equal values keep LAPACK's order.
    order = np.argsort(-values, axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    vecs = canonicalize_phase(np.take_along_axis(vecs, order[:, None, :], axis=2).swapaxes(1, 2)).swapaxes(1, 2)
    values.setflags(write=False)
    vecs.setflags(write=False)
    return EigenSystem(values.reshape(a.shape[:-1]), vecs.reshape(a.shape))


def polar_decompose(m) -> tuple[np.ndarray, np.ndarray]:
    """Split a square matrix as ``m = unitary @ positive_root``.

    From the LAPACK SVD ``m = W diag(sigma) V^dag``: ``unitary = W V^dag`` and
    ``positive_root = V diag(sigma) V^dag``, the principal square root of
    ``m^dag m``. On the kernel of a rank-deficient input the unitary factor is
    LAPACK's completion of the singular bases, fixed for a given build.
    """
    a = finite_array(m, np.complex128, ShapeMismatch, "polar_decompose requires a square matrix", ndim=2)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"polar_decompose requires a square matrix, got {a.shape}")
    try:
        w, sigma, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as e:
        raise NoConvergence(f"LAPACK svd failed: {e}") from e
    unitary = w @ vh
    root = (vh.conj().T * sigma) @ vh
    root = 0.5 * (root + root.conj().T)
    return unitary, root
