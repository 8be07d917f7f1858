"""Haar-random pure states and Monte Carlo estimates of the mean fidelities.

This module is the independent numerical check on every closed form in
:mod:`qmeter.estimator`: it draws pure states uniformly (normalized complex
Gaussian vectors, the constructive realization of the unitary-invariant
measure) and averages the relevant integrands empirically.

Reproducibility scheme
----------------------
All randomness flows through counter-based Philox streams. A
:class:`RngStream` is the pair ``(seed, stream_index)``; distinct stream
indices are separated by 2**128 counter blocks and can never overlap. Within
stream 0 of a seed, sample ``i`` of a d-dimensional ensemble owns the uniform
words ``[2*d*i, 2*d*(i+1))`` of the stream (one word per double, two words per
complex amplitude via Box-Muller), so every sample is a pure function of
``(seed, i)``. Any contiguous block of samples can therefore be regenerated
bit-exactly in isolation: partitioning work across workers cannot change the
result, and reductions use numpy's deterministic pairwise summation.

Monte Carlo evaluation
----------------------
One Monte Carlo call draws its Haar ensemble once and evaluates every
integrand it was asked for on each block of states before drawing the next,
so :func:`mc_fidelities` checks ``g_post``, ``g_pre`` and ``F`` on one set of
states. The ``samples`` are split into ``ceil(samples / MC_CHUNK)`` blocks of
near-equal size (``MC_CHUNK`` = 4096), so no block has a single row. The
integrands are whole-block array passes: one stacked collapse product
``states @ K.reshape(n*d, d).T`` per block, shared by ``g_pre`` and ``F``, one
product per guess set, and row-wise ``einsum`` reductions. Each sample's
value depends only on its own row, so per-sample values, not only the
summaries, do not depend on the block size. Memory is O(samples) floats plus
O(``MC_CHUNK`` * n * d) complex amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain, ZeroProbabilityOutcome
from .estimator import _check_guesses
from .measurement import PROBABILITY_FLOOR, Measurement, as_state

DEFAULT_SAMPLES = 100_000
# Most Haar samples drawn and integrated at a time by one Monte Carlo call.
# The block's stacked collapse product is MC_CHUNK * n * d complex numbers.
MC_CHUNK = 4096


@dataclass(frozen=True)
class RngStream:
    """A reproducible uniform stream keyed by ``(seed, stream_index)``."""

    seed: int
    stream_index: int = 0

    def generator(self, word_offset: int = 0) -> np.random.Generator:
        """Generator positioned ``word_offset`` uniform doubles into the stream."""
        block, rem = divmod(int(word_offset), 4)
        bg = np.random.Philox(key=self.seed & (2**64 - 1), counter=[block, 0, self.stream_index, 0])
        gen = np.random.Generator(bg)
        if rem:
            gen.random(rem)
        return gen


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


def haar_state(d: int, stream: RngStream) -> np.ndarray:
    """One Haar-random pure state of dimension ``d`` from the stream's origin."""
    if d < 1:
        raise OutOfDomain(f"dimension must be positive, got {d}")
    amps = _gaussian_amplitudes(stream.generator().random((d, 2)))
    return amps / np.sqrt(np.sum(amps.real**2 + amps.imag**2))


def haar_states(d: int, count: int, seed: int, start: int = 0) -> np.ndarray:
    """Samples ``start .. start+count-1`` of the Haar ensemble for ``seed``.

    Row ``i`` equals sample ``start + i`` no matter how the range is chunked;
    ``haar_states(d, n, seed)`` is bit-identical to concatenating any partition.
    """
    if d < 1:
        raise OutOfDomain(f"dimension must be positive, got {d}")
    if count < 0:
        raise OutOfDomain(f"sample count must be non-negative, got {count}")
    gen = RngStream(seed, 0).generator(word_offset=2 * d * start)
    amps = _gaussian_amplitudes(gen.random((count, d, 2)))
    norms = np.sqrt(np.sum(amps.real**2 + amps.imag**2, axis=1))
    return amps / norms[:, None]


def haar_isometry(rows: int, cols: int, stream: RngStream) -> np.ndarray:
    """Haar-distributed isometry (orthonormal columns) of shape (rows, cols)."""
    if cols > rows or cols < 1:
        raise OutOfDomain(f"need 1 <= cols <= rows, got {rows}x{cols}")
    gauss = _gaussian_amplitudes(stream.generator().random((rows, cols, 2)))
    q, r = np.linalg.qr(gauss)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def mc_estimation_fidelity(m: Measurement, s: int, guess, psi) -> float:
    """Fidelity ``|<guess|M_s|psi>|^2 / p_s`` of one guess for one collapse."""
    k = m.kraus_op(s)
    guess = as_state(guess, m.dim)
    psi = as_state(psi, m.dim)
    p = float(m.outcome_distribution(psi)[s - 1])
    if p <= PROBABILITY_FLOOR:
        raise ZeroProbabilityOutcome(f"outcome {s} has probability {p:.3e}")
    return float(abs(np.vdot(guess, k @ psi)) ** 2 / p)


def _summarize(values: np.ndarray) -> MonteCarloResult:
    n = values.shape[0]
    return MonteCarloResult(
        mean=float(np.mean(values)),
        std_error=float(np.std(values, ddof=1) / np.sqrt(n)),
        samples=n,
    )


def _check_samples(samples: int) -> None:
    if samples < 100:
        raise OutOfDomain(f"need at least 100 samples for a standard error, got {samples}")


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


def _guess_array(m: Measurement, guesses) -> np.ndarray:
    guesses = np.asarray(guesses)
    if guesses.shape[0] != m.n_outcomes:
        raise ValueError(f"{guesses.shape[0]} guesses for {m.n_outcomes} outcomes")
    return guesses


def _row_norms_squared(amp: np.ndarray) -> np.ndarray:
    """``sum_s |amp[i, s]|^2`` for each row of a C-contiguous complex (N, n) array."""
    flat = amp.view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def _collapse_product(m: Measurement, states: np.ndarray) -> np.ndarray:
    """Unnormalized collapses ``M_s psi`` of every state, as one (N, n, d) array.

    One stacked product ``states @ K.reshape(n*d, d).T`` for all outcomes.
    """
    n, d = m.n_outcomes, m.dim
    return (states @ m.kraus.reshape(n * d, d).T).reshape(states.shape[0], n, d)


def _shared_collapse_product():
    """A :func:`_collapse_product` that reuses its last product for the same states.

    The Monte Carlo driver makes one per block: whichever integrand first asks
    for the block's product pays for it, and later ones get the same array.
    """
    last = [None, None]

    def collapsed(m: Measurement, states: np.ndarray) -> np.ndarray:
        if last[0] is not states:
            last[:] = states, _collapse_product(m, states)
        return last[1]

    return collapsed


def g_post_integrand(m: Measurement, guesses, states: np.ndarray) -> np.ndarray:
    """Per-state values of ``sum_s |<chi_s|M_s|psi>|^2``.

    ``guesses`` holds one normalized state per outcome and is used as given;
    the ``mc_*`` functions validate it once per call.

    This product form is the same integral as the fidelity-times-probability
    sum but never divides by a near-zero outcome probability.
    """
    guesses = _guess_array(m, guesses)
    # Column s is M_s^T conj(chi_s), so column s of the product is <chi_s|M_s|psi>.
    weights = (m.kraus.transpose(0, 2, 1) @ guesses.conj()[:, :, None])[:, :, 0].T
    return _row_norms_squared(states @ weights)


def g_pre_integrand(m: Measurement, guesses, states: np.ndarray, *, collapsed=_collapse_product) -> np.ndarray:
    """Per-state values of ``sum_s p_s(psi) |<chi_s|psi>|^2``.

    ``guesses`` is used as given, as in :func:`g_post_integrand`.
    ``collapsed(m, states)`` returns the (N, n, d) collapses ``M_s psi``; the
    Monte Carlo driver passes one that shares each block's product with
    :func:`operation_integrand`.
    """
    guesses = _guess_array(m, guesses)
    flat = collapsed(m, states).view(np.float64)
    p = np.einsum("isk,isk->is", flat, flat)
    amp = states @ guesses.conj().T
    return np.einsum("is,is->i", p, amp.real**2 + amp.imag**2)


def operation_integrand(m: Measurement, states: np.ndarray, *, collapsed=_collapse_product) -> np.ndarray:
    """Per-state values of ``sum_s |<psi|M_s|psi>|^2``.

    ``collapsed`` is as in :func:`g_pre_integrand`.
    """
    return _row_norms_squared(np.einsum("ik,isk->is", states.conj(), collapsed(m, states)))


def _monte_carlo(m: Measurement, samples: int, seed: int, integrands) -> list[MonteCarloResult]:
    """Average each ``integrand(states, collapsed)`` over one Haar ensemble drawn in blocks.

    ``collapsed`` is a :func:`_shared_collapse_product` made for the block.
    """
    _check_samples(samples)
    values = np.empty((len(integrands), samples))
    for start, count in _blocks(samples):
        states = haar_states(m.dim, count, seed, start)
        collapsed = _shared_collapse_product()
        for row, integrand in zip(values, integrands):
            row[start : start + count] = integrand(states, collapsed)
        # Holding this block's arrays while the next one is drawn would raise
        # peak memory by the size of the collapse product.
        del states, collapsed
    return [_summarize(row) for row in values]


def mc_fidelities(
    m: Measurement, post_guesses, pre_guesses, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> tuple[MonteCarloResult, MonteCarloResult, MonteCarloResult]:
    """Monte Carlo ``(g_post, g_pre, F)`` estimates from one Haar ensemble.

    Bit-identical to :func:`mc_g_post`, :func:`mc_g_pre` and
    :func:`mc_operation_fidelity` at the same ``samples`` and ``seed``.
    """
    post = _check_guesses(m, post_guesses)
    pre = _check_guesses(m, pre_guesses)
    g_post, g_pre, f = _monte_carlo(
        m,
        samples,
        seed,
        [
            lambda states, _: g_post_integrand(m, post, states),
            lambda states, collapsed: g_pre_integrand(m, pre, states, collapsed=collapsed),
            lambda states, collapsed: operation_integrand(m, states, collapsed=collapsed),
        ],
    )
    return g_post, g_pre, f


def mc_g_post(m: Measurement, guesses, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> MonteCarloResult:
    """Monte Carlo estimate of the mean post-measurement estimation fidelity."""
    guesses = _check_guesses(m, guesses)
    return _monte_carlo(m, samples, seed, [lambda states, _: g_post_integrand(m, guesses, states)])[0]


def mc_g_pre(m: Measurement, guesses, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> MonteCarloResult:
    """Monte Carlo estimate of the mean pre-measurement estimation fidelity."""
    guesses = _check_guesses(m, guesses)
    return _monte_carlo(m, samples, seed, [lambda states, _: g_pre_integrand(m, guesses, states)])[0]


def mc_operation_fidelity(m: Measurement, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> MonteCarloResult:
    """Monte Carlo estimate of the mean operation fidelity."""
    return _monte_carlo(m, samples, seed, [lambda states, _: operation_integrand(m, states)])[0]
