"""Dense complex matrix primitives with deterministic, reproducible output.

Everything downstream (effects, spectral data, polar factors) is built on the
routines here. They are thin layers over LAPACK:

* ``hermitian_eig`` makes one ``numpy.linalg.eigh`` call on a matrix or a stack,
* ``polar_decompose`` assembles both factors from ``numpy.linalg.svd``.

What this module adds is a fixed output convention: eigenvalues descending,
eigenvector phases canonicalized, and a lexicographic tie-break inside
degenerate eigenvalue groups. Results are bit-reproducible within one
numpy/BLAS build and agree to rounding across builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian, ShapeMismatch

# Degenerate eigenvalues are grouped when consecutive gaps fall below this.
EIG_GAP_TOL = 1e-10
# First vector component with modulus above this is rotated to be real positive.
PHASE_TOL = 1e-12
# Relative Hermitian-symmetry tolerance for hermitian_eig inputs.
HERMITICITY_TOL = 1e-10


def as_cmatrix(m, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce ``m`` to a finite complex128 2-D array, checking shape if given."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got ndim={a.ndim}")
    if rows is not None and a.shape[0] != rows:
        raise ShapeMismatch(f"expected {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise ShapeMismatch(f"expected {cols} columns, got {a.shape[1]}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix entries must be finite")
    return a


def frozen(a: np.ndarray) -> np.ndarray:
    """Return a read-only copy of ``a`` (shared safely across threads)."""
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


def frobenius_distance(a, b) -> float:
    """sqrt(sum |a_ij - b_ij|^2); zero iff the matrices are equal."""
    a = as_cmatrix(a)
    b = as_cmatrix(b, rows=a.shape[0], cols=a.shape[1])
    return fro_norm(a - b)


def fro_norm(m) -> float:
    m = np.asarray(m)
    return float(np.sqrt(np.sum(m.real**2 + m.imag**2)))


def _fro_norms(stack: np.ndarray) -> np.ndarray:
    """``fro_norm`` of each slice of an ``(n, d, d)`` stack, bit-equal to the per-slice call."""
    squares = stack.real**2 + stack.imag**2
    n, rows, cols = squares.shape
    return np.sqrt(np.sum(squares.reshape(n, rows * cols), axis=1))


def canonicalize_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first component with |v_i| > PHASE_TOL is real positive.

    Idempotent, and a no-op on the (physically empty) all-below-tolerance vector.
    """
    v = np.asarray(v, dtype=np.complex128)
    for x in v:
        mod = abs(x)
        if mod > PHASE_TOL:
            return v * (x.conjugate() / mod)
    return v.copy()


@dataclass(frozen=True)
class EigenSystem:
    """Spectral data of a Hermitian matrix, or of a stack of them.

    ``eigenvalues`` are real and sorted descending; column ``eigenvectors[:, i]``
    belongs to ``eigenvalues[i]`` (a stack adds a leading matrix axis to both).
    Vectors are orthonormal, phase-canonicalized, and degenerate groups are
    ordered by a deterministic lexicographic rule.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _lex_key(v: np.ndarray) -> tuple:
    key = np.empty(2 * v.shape[0], dtype=np.float64)
    key[0::2] = v.real
    key[1::2] = v.imag
    return tuple(key)


def _order_basis(values: np.ndarray, vectors: np.ndarray):
    """Sort a (values, column-vectors) pair descending with deterministic ties.

    Columns are phase-canonicalized first; groups of values closer than
    ``EIG_GAP_TOL`` are then ordered by descending lexicographic key over the
    interleaved (real, imag) components of their canonicalized vectors.
    """
    d = values.shape[0]
    order = np.argsort(-values, kind="stable")
    canon = np.empty_like(vectors)
    for i in range(d):
        canon[:, i] = canonicalize_phase(vectors[:, order[i]])

    # Walk clusters of near-equal values and break ties inside each one.
    final = list(range(d))
    start = 0
    while start < d:
        stop = start + 1
        while stop < d and values[order[stop - 1]] - values[order[stop]] < EIG_GAP_TOL:
            stop += 1
        if stop - start > 1:
            cluster = sorted(range(start, stop), key=lambda i: _lex_key(canon[:, i]), reverse=True)
            final[start:stop] = cluster
        start = stop

    return values[order[final]], canon[:, final]


def hermitian_eig(m) -> EigenSystem:
    """Diagonalize a Hermitian matrix, or an ``(n, d, d)`` stack, with LAPACK ``eigh``.

    A stack is solved by one ``eigh`` call; slice ``i`` of the result is
    bit-identical to ``hermitian_eig(m[i])``. Raises :class:`NotHermitian` when
    a matrix has ``||m - m^dag||_F > HERMITICITY_TOL * ||m||_F`` and
    :class:`NoConvergence` when LAPACK reports failure.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ShapeMismatch(f"hermitian_eig requires a (d, d) or (n, d, d) array, got {a.shape}")
    stack = a if a.ndim == 3 else a[None]
    # Slices are checked in order: the first non-finite slice ends the check,
    # after the symmetry of the slices before it.
    finite = np.isfinite(stack).all(axis=(1, 2))
    checked = stack if finite.all() else stack[: np.argmin(finite)]
    defects = _fro_norms(checked - checked.conj().swapaxes(1, 2))
    bad = np.flatnonzero(defects > HERMITICITY_TOL * _fro_norms(checked))
    if bad.size:
        defect = defects[bad[0]]
        raise NotHermitian(f"symmetry defect {defect:.3e} exceeds {HERMITICITY_TOL:.1e} * ||m||_F")
    if checked is not stack:
        raise ValueError("matrix entries must be finite")

    try:
        values, vecs = np.linalg.eigh(0.5 * (stack + stack.conj().swapaxes(1, 2)))
    except np.linalg.LinAlgError as e:
        raise NoConvergence(f"LAPACK eigh failed: {e}") from e
    for i in range(stack.shape[0]):
        values[i], vecs[i] = _order_basis(values[i], vecs[i])
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
    a = as_cmatrix(m)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch("polar_decompose requires a square matrix")
    try:
        w, sigma, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as e:
        raise NoConvergence(f"LAPACK svd failed: {e}") from e
    unitary = w @ vh
    root = (vh.conj().T * sigma) @ vh
    root = 0.5 * (root + root.conj().T)
    return unitary, root
