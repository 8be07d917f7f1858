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
One Monte Carlo call draws its Haar ensemble once, in blocks of ``MC_CHUNK``
samples, and evaluates every integrand it was asked for on each block before
drawing the next. :func:`mc_fidelities` therefore checks ``g_post``, ``g_pre``
and ``F`` on one set of states. Each block's values are written into one
preallocated row per integrand, and each row is summarized as a whole, so the
results do not depend on the block size. Memory is O(samples) floats plus
O(``MC_CHUNK`` * d) complex amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain, ZeroProbabilityOutcome
from .estimator import _check_guesses
from .measurement import PROBABILITY_FLOOR, Measurement, as_state

DEFAULT_SAMPLES = 100_000
# Haar samples drawn and integrated at a time by one Monte Carlo call.
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
    guess = as_state(guess, m.dim)
    psi = as_state(psi, m.dim)
    p = float(m.outcome_distribution(psi)[s - 1])
    if p <= PROBABILITY_FLOOR:
        raise ZeroProbabilityOutcome(f"outcome {s} has probability {p:.3e}")
    return float(abs(np.vdot(guess, m.kraus_op(s) @ psi)) ** 2 / p)


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


def g_post_integrand(m: Measurement, guesses, states: np.ndarray) -> np.ndarray:
    """Per-state values of ``sum_s |<chi_s|M_s|psi>|^2``.

    ``guesses`` holds one normalized state per outcome and is used as given;
    the ``mc_*`` functions validate it once per call.

    This product form is the same integral as the fidelity-times-probability
    sum but never divides by a near-zero outcome probability.
    """
    values = np.zeros(states.shape[0])
    for k, chi in zip(m.kraus, guesses, strict=True):
        weight = k.conj().T @ chi
        amp = states @ weight.conj()
        values += amp.real**2 + amp.imag**2
    return values


def g_pre_integrand(m: Measurement, guesses, states: np.ndarray) -> np.ndarray:
    """Per-state values of ``sum_s p_s(psi) |<chi_s|psi>|^2``.

    ``guesses`` is used as given, as in :func:`g_post_integrand`.
    """
    values = np.zeros(states.shape[0])
    for k, chi in zip(m.kraus, guesses, strict=True):
        collapsed = states @ k.T
        p = np.sum(collapsed.real**2 + collapsed.imag**2, axis=1)
        amp = states @ np.conj(chi)
        values += p * (amp.real**2 + amp.imag**2)
    return values


def operation_integrand(m: Measurement, states: np.ndarray) -> np.ndarray:
    """Per-state values of ``sum_s |<psi|M_s|psi>|^2``."""
    values = np.zeros(states.shape[0])
    conj = states.conj()
    for k in m.kraus:
        amp = np.einsum("ij,ij->i", conj, states @ k.T)
        values += amp.real**2 + amp.imag**2
    return values


def _monte_carlo(m: Measurement, samples: int, seed: int, integrands) -> list[MonteCarloResult]:
    """Average each ``integrand(states)`` over one Haar ensemble drawn in blocks."""
    _check_samples(samples)
    values = np.empty((len(integrands), samples))
    for start in range(0, samples, MC_CHUNK):
        states = haar_states(m.dim, min(MC_CHUNK, samples - start), seed, start)
        for row, integrand in zip(values, integrands):
            row[start : start + states.shape[0]] = integrand(states)
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
            lambda states: g_post_integrand(m, post, states),
            lambda states: g_pre_integrand(m, pre, states),
            lambda states: operation_integrand(m, states),
        ],
    )
    return g_post, g_pre, f


def mc_g_post(m: Measurement, guesses, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> MonteCarloResult:
    """Monte Carlo estimate of the mean post-measurement estimation fidelity."""
    guesses = _check_guesses(m, guesses)
    return _monte_carlo(m, samples, seed, [lambda states: g_post_integrand(m, guesses, states)])[0]


def mc_g_pre(m: Measurement, guesses, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> MonteCarloResult:
    """Monte Carlo estimate of the mean pre-measurement estimation fidelity."""
    guesses = _check_guesses(m, guesses)
    return _monte_carlo(m, samples, seed, [lambda states: g_pre_integrand(m, guesses, states)])[0]


def mc_operation_fidelity(m: Measurement, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> MonteCarloResult:
    """Monte Carlo estimate of the mean operation fidelity."""
    return _monte_carlo(m, samples, seed, [lambda states: operation_integrand(m, states)])[0]
