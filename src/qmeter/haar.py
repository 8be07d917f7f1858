"""Haar-random pure states and Monte Carlo estimates of the mean fidelities.

This module is the independent numerical check on every closed form in
:mod:`qmeter.estimator`: it draws pure states uniformly (normalized complex
Gaussian vectors, the constructive realization of the unitary-invariant
measure) and averages the relevant integrands empirically.

Reproducibility scheme
----------------------
All randomness flows through counter-based Philox streams. A
:class:`RngStream` is the pair ``(seed, stream_index)``; its generator starts
at counter block ``stream_index * 2**128`` (four words per block), so distinct
streams never overlap. Within stream 0 of a seed, sample ``i`` of a
d-dimensional ensemble owns the uniform words ``[2*d*i, 2*d*(i+1))`` of the
stream (one word per double, two words per complex amplitude via Box-Muller),
so every sample is a pure function of ``(seed, i)``. :func:`haar_states`
reaches sample ``start`` by advancing stream 0 ``d*start // 2`` blocks, then
two words if ``d*start`` is odd. Any contiguous block of samples can therefore
be regenerated bit-exactly in isolation: partitioning work across workers
cannot change the result, and reductions use numpy's deterministic pairwise
summation.

Monte Carlo evaluation
----------------------
One private kernel, ``_block_values``, evaluates the integrands on a block of
states: one product per guess set for ``g_post``, one stacked collapse product
``states @ K.reshape(n*d, d).T`` shared by ``g_pre`` and ``F`` (made only when
one of them is asked for), and row-wise ``einsum`` reductions. The public
integrands and every ``mc_*`` function call it, after checking that their
guesses (and the integrands' states) are normalized states of dimension d. A
Monte Carlo call draws its Haar ensemble once, in ``ceil(samples / MC_CHUNK)``
near-equal blocks (``MC_CHUNK`` = 2048; no block has a single row), so
:func:`mc_fidelities` checks all three on one set of states. Per-sample values
depend only on their own row, not on the block size.

The blocks run on two workers, the caller and one thread, dealt in turn, when
there are at least two blocks and two usable CPUs and ``n * d**2 <= 1024``.
Each worker then makes its three products by ``_rows_matmul``: stacked calls of
``32768 // (inner * columns)`` rows, each small enough that OpenBLAS runs it on
the calling thread, never of one row, and bit-equal to the whole-block product.
(A whole-block product above OpenBLAS's threading cut wakes its second thread,
which then spins between calls and takes the second CPU.) Otherwise one worker
takes every block with whole-block products. Either way, the output is the
same. Memory is O(samples) floats plus O(2 * ``MC_CHUNK`` * n * d) complex
amplitudes, the same bound as one block of 4096.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain
from .matkernel import _max_count, finite_scalar
from .measurement import Measurement, _check_guesses, as_state, as_states

DEFAULT_SAMPLES = 100_000
# Most Haar samples drawn and integrated at a time by one Monte Carlo worker.
# A block's stacked collapse product is MC_CHUNK * n * d complex numbers.
MC_CHUNK = 2048
# Most multiply-adds (rows * inner * columns) in one matrix product of a
# two-worker Monte Carlo call: OpenBLAS runs a product this small on the
# calling thread, so each worker keeps to one core.
_CALL_MACS = 32768
# Fewest rows per call that the collapse product may be split into before a
# second worker stops paying: at d = 64 on 2 vCPUs, 2-row calls made an op 1.8x slower.
_MIN_CALL_ROWS = 32


@dataclass(frozen=True)
class RngStream:
    """A reproducible uniform stream keyed by ``(seed, stream_index)``.

    ``seed`` is any integer (its low 64 bits key Philox); ``stream_index`` is in ``[0, 2**64 - 1]``.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", finite_scalar(self.seed, int, "seed", -math.inf))
        object.__setattr__(self, "stream_index", finite_scalar(self.stream_index, int, "stream index", 0, 2**64 - 1))

    def generator(self) -> np.random.Generator:
        """Generator at the start of the stream: Philox counter block ``stream_index * 2**128``."""
        # One int, not a list of words: numpy casts a list through float64 above 2**63.
        bg = np.random.Philox(key=self.seed & (2**64 - 1), counter=self.stream_index << 128)
        return np.random.Generator(bg)


@dataclass(frozen=True)
class MonteCarloResult:
    """Empirical mean with its standard error over ``samples`` draws."""

    mean: float
    std_error: float
    samples: int


def _gaussian_amplitudes(uniforms: np.ndarray) -> np.ndarray:
    """Box-Muller a (..., d, 2) uniform block into (..., d) complex normals.

    Exactly two uniform words per amplitude, so consumption is
    position-predictable (unlike ziggurat-based normal sampling).
    """
    radius = np.sqrt(-2.0 * np.log1p(-uniforms[..., 0]))
    angle = (2.0 * np.pi) * uniforms[..., 1]
    return radius * np.cos(angle) + 1j * (radius * np.sin(angle))


def _stream_generator(stream) -> np.random.Generator:
    if not isinstance(stream, RngStream):
        raise OutOfDomain(f"stream must be a haar.RngStream, got {type(stream).__name__}")
    return stream.generator()


def haar_state(d: int, stream: RngStream) -> np.ndarray:
    """One Haar-random pure state of dimension ``d`` from the stream's origin."""
    d = finite_scalar(d, int, "dimension", 1, _max_count(16))
    amps = _gaussian_amplitudes(_stream_generator(stream).random((d, 2)))
    return amps / np.sqrt(np.sum(amps.real**2 + amps.imag**2))


def haar_states(d: int, count: int, seed: int, start: int = 0) -> np.ndarray:
    """Samples ``start .. start+count-1`` of the Haar ensemble for ``seed``.

    Row ``i`` equals sample ``start + i`` no matter how the range is chunked;
    ``haar_states(d, n, seed)`` is bit-identical to concatenating any partition.
    """
    # 16 bytes per amplitude (two uniform doubles, then one complex), in a block numpy can index;
    # the first Philox block, d * start // 2, must fit one 64-bit counter word.
    d = finite_scalar(d, int, "dimension", 1, _max_count(16))
    count = finite_scalar(count, int, "sample count", 0, _max_count(16 * d))
    start = finite_scalar(start, int, "first sample index", 0, (2**66 - 1) // (2 * d))
    gen = RngStream(seed, 0).generator()
    gen.bit_generator.advance(d * start // 2)  # four words per block
    if d * start % 2:
        gen.random(2)
    amps = _gaussian_amplitudes(gen.random((count, d, 2)))
    norms = np.sqrt(np.sum(amps.real**2 + amps.imag**2, axis=1))
    return amps / norms[:, None]


def haar_isometry(rows: int, cols: int, stream: RngStream) -> np.ndarray:
    """Haar-distributed isometry (orthonormal columns) of shape (rows, cols)."""
    rows = finite_scalar(rows, int, "isometry rows", 1, _max_count(16))
    cols = finite_scalar(cols, int, "isometry columns", 1, min(rows, _max_count(16 * rows)))
    gauss = _gaussian_amplitudes(_stream_generator(stream).random((rows, cols, 2)))
    q, r = np.linalg.qr(gauss)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def mc_estimation_fidelity(m: Measurement, s: int, guess, psi) -> float:
    """Fidelity ``|<guess|M_s|psi>|^2 / p_s`` of one guess for one collapse, by :meth:`Measurement.collapse`."""
    return float(abs(np.vdot(as_state(guess, m.dim), m.collapse(psi, s))) ** 2)


def _summarize(values: np.ndarray) -> MonteCarloResult:
    n = values.shape[0]
    return MonteCarloResult(
        mean=float(np.mean(values)),
        std_error=float(np.std(values, ddof=1) / np.sqrt(n)),
        samples=n,
    )


def _blocks(samples: int):
    """``(start, count)`` of ``ceil(samples / MC_CHUNK)`` near-equal blocks.

    With at least 100 samples, equal splitting never leaves a one-row block:
    numpy routes a one-row matmul through a matrix-vector product that rounds
    differently, so that row's values would depend on the block size.
    """
    n_blocks = -(-samples // MC_CHUNK)
    size, extra = divmod(samples, n_blocks)
    start = 0
    for i in range(n_blocks):
        count = size + (i < extra)
        yield start, count
        start += count


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _rows_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` as stacked products of ``_CALL_MACS // b.size`` rows of ``a`` each, bit-equal to ``a @ b``.

    Each product is under OpenBLAS's threading cut, so it runs on the calling
    thread. A row's value depends only on that row, except in a one-row
    product, which numpy routes through a matrix-vector kernel that rounds
    differently; so the last product takes the 2 to ``rows + 1`` rows left.
    """
    rows = _CALL_MACS // b.size
    (m, k), n = a.shape, b.shape[1]
    head = max(m - 2, 0) // rows * rows
    out = np.empty((m, n), np.result_type(a, b))
    np.matmul(a[:head].reshape(-1, rows, k), b, out=out[:head].reshape(-1, rows, n))
    np.matmul(a[head:], b, out=out[head:])
    return out


def _row_norms_squared(amp: np.ndarray) -> np.ndarray:
    """``sum_s |amp[i, s]|^2`` for each row of a C-contiguous complex (N, n) array."""
    flat = amp.view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def _block_values(
    m: Measurement, states: np.ndarray, post=None, pre=None, operation=False, matmul=np.matmul
) -> list[np.ndarray]:
    """Per-state integrand values on one block of states, one row per integrand asked for.

    The rows come in the order ``g_post`` (if ``post`` guesses are given),
    ``g_pre`` (if ``pre`` guesses are given), ``F`` (if ``operation``). The
    guesses are used as given; the public callers validate them. The stacked
    collapse product ``M_s psi`` is made once, and only for ``g_pre`` or ``F``.
    The ``g_post`` row's product form ``|<chi_s|M_s|psi>|^2`` is the same
    integral as the fidelity-times-probability sum but never divides by a
    near-zero outcome probability. ``matmul`` makes the three state products:
    ``np.matmul`` or the bit-equal :func:`_rows_matmul`.
    """
    rows = []
    if post is not None:
        # Column s is M_s^T conj(chi_s), so column s of the product is <chi_s|M_s|psi>.
        weights = (m.kraus.transpose(0, 2, 1) @ post.conj()[:, :, None])[:, :, 0].T
        rows.append(_row_norms_squared(matmul(states, weights)))
    if pre is not None or operation:
        n, d = m.n_outcomes, m.dim
        collapsed = matmul(states, m.kraus.reshape(n * d, d).T).reshape(states.shape[0], n, d)
    if pre is not None:
        flat = collapsed.view(np.float64)
        p = np.einsum("isk,isk->is", flat, flat)
        amp = matmul(states, pre.conj().T)
        rows.append(np.einsum("is,is->i", p, amp.real**2 + amp.imag**2))
    if operation:
        rows.append(_row_norms_squared(np.einsum("ik,isk->is", states.conj(), collapsed)))
    return rows


def g_post_integrand(m: Measurement, guesses, states) -> np.ndarray:
    """Per-state values of ``sum_s |<chi_s|M_s|psi>|^2`` on ``(N, d)`` states, one guess per outcome (all checked)."""
    return _block_values(m, as_states(states, m.dim), post=_check_guesses(m, guesses))[0]


def g_pre_integrand(m: Measurement, guesses, states) -> np.ndarray:
    """Per-state values of ``sum_s p_s(psi) |<chi_s|psi>|^2``; arguments as in :func:`g_post_integrand`."""
    return _block_values(m, as_states(states, m.dim), pre=_check_guesses(m, guesses))[0]


def operation_integrand(m: Measurement, states) -> np.ndarray:
    """Per-state values of ``sum_s |<psi|M_s|psi>|^2``; ``states`` as in :func:`g_post_integrand`."""
    return _block_values(m, as_states(states, m.dim), operation=True)[0]


def _monte_carlo(
    m: Measurement, samples: int, seed: int, post=None, pre=None, operation=False
) -> list[MonteCarloResult]:
    """Average the :func:`_block_values` rows over one Haar ensemble drawn in blocks.

    Each block fills its own columns of ``values``, so the two-worker schedule
    (see the module docstring) cannot change the result. An exception from
    either worker is raised here once both have stopped.
    """
    samples = finite_scalar(samples, int, "Monte Carlo samples", 100, _max_count(24))  # up to 3 float rows
    values = np.empty(((post is not None) + (pre is not None) + operation, samples))
    blocks = list(_blocks(samples))
    n, d = m.n_outcomes, m.dim
    split = len(blocks) >= 2 and _CALL_MACS // (n * d * d) >= _MIN_CALL_ROWS and _usable_cpus() >= 2
    shares = [blocks[0::2], blocks[1::2]] if split else [blocks]
    matmul = _rows_matmul if split else np.matmul
    failures = []

    def run(share):
        try:
            for start, count in share:
                if failures:  # the other worker failed: its exception is raised
                    return
                states = haar_states(d, count, seed, start)
                values[:, start : start + count] = _block_values(m, states, post, pre, operation, matmul)
                del states  # holding it while the next block is drawn would raise peak memory
        except BaseException as exc:  # re-raised by the caller once both workers stopped
            failures.append(exc)

    threads = [threading.Thread(target=run, args=(share,), name="qmeter-mc") for share in shares[1:]]
    for thread in threads:
        thread.start()
    try:
        run(shares[0])
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
    return [_summarize(row) for row in values]


def mc_fidelities(
    m: Measurement, post_guesses, pre_guesses, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> tuple[MonteCarloResult, MonteCarloResult, MonteCarloResult]:
    """Monte Carlo ``(g_post, g_pre, F)`` estimates from one Haar ensemble.

    Bit-identical to :func:`mc_g_post`, :func:`mc_g_pre` and
    :func:`mc_operation_fidelity` at the same ``samples`` and ``seed``.
    """
    post, pre = _check_guesses(m, post_guesses), _check_guesses(m, pre_guesses)
    return tuple(_monte_carlo(m, samples, seed, post, pre, operation=True))


def mc_g_post(m: Measurement, guesses, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> MonteCarloResult:
    """Monte Carlo estimate of the mean post-measurement estimation fidelity."""
    return _monte_carlo(m, samples, seed, post=_check_guesses(m, guesses))[0]


def mc_g_pre(m: Measurement, guesses, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> MonteCarloResult:
    """Monte Carlo estimate of the mean pre-measurement estimation fidelity."""
    return _monte_carlo(m, samples, seed, pre=_check_guesses(m, guesses))[0]


def mc_operation_fidelity(m: Measurement, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> MonteCarloResult:
    """Monte Carlo estimate of the mean operation fidelity."""
    return _monte_carlo(m, samples, seed, operation=True)[0]
