"""Output checks for the qmeter benchmark, independent of ``qmeter.matkernel``.

Every reference value is computed from the device spec file with
``numpy.linalg.eigh`` and traces, never with qmeter's own solvers. Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Closed forms are O(1) numbers; the Jacobi solver agrees with LAPACK to ~1e-14.
VALUE_TOL = 1e-9
# |<post|reference>|^2 must reach 1 - OVERLAP_TOL for states equal up to phase.
OVERLAP_TOL = 1e-9
# Mirrors the CLI's MC agreement window: max(5 standard errors, 1e-3).
MC_SIGMAS = 5.0
MC_ABS = 1e-3
# Shot frequencies must lie within this many binomial standard deviations.
SHOT_SIGMAS = 5.0


def _complex(raw) -> np.ndarray:
    a = np.asarray(raw, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


class Reference:
    """Closed forms of one device, computed from its spec file with LAPACK."""

    def __init__(self, spec_path: str):
        with open(spec_path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.kraus = _complex(spec["kraus"])
        n, d, _ = self.kraus.shape
        self.d, self.n = d, n
        self.effects = np.einsum("sji,sjk->sik", self.kraus.conj(), self.kraus)
        self.left = np.einsum("sij,skj->sik", self.kraus, self.kraus.conj())
        self.a_max = np.linalg.eigh(self.effects)[0][:, -1]
        self.g_post = float(self.a_max.sum()) / d
        self.g_pre = (1.0 + self.g_post) / (d + 1)
        traces = np.abs(np.trace(self.kraus, axis1=1, axis2=2)) ** 2
        self.f = (d + float(traces.sum())) / (d * (d + 1))
        self.bound_lhs = math.sqrt(max((d + 1) * self.f - 1.0, 0.0))
        self.bound_rhs = math.sqrt(self.g_post) + math.sqrt((d - 1) * max(1.0 - self.g_post, 0.0))


def _close(problems: list, what: str, got, want, tol: float = VALUE_TOL) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool) or not abs(got - want) <= tol:
        problems.append(f"{what}: got {got!r}, reference {want!r}")


def _top_vector(problems: list, what: str, raw, matrix: np.ndarray, a_max: float) -> None:
    """A top eigenvector is a unit vector whose Rayleigh quotient is the top eigenvalue."""
    v = _complex(raw)
    _close(problems, f"{what} norm", float(np.linalg.norm(v)), 1.0)
    _close(problems, f"{what} Rayleigh quotient", float(np.vdot(v, matrix @ v).real), a_max)


def check_fidelities(stdout: str, ref: Reference, samples: int | None = None, seed: int | None = None) -> list:
    """Check a ``fidelities --json`` record (with its MC block when ``samples`` is set)."""
    problems: list = []
    rec = json.loads(stdout)
    if rec.get("dim") != ref.d or rec.get("n_outcomes") != ref.n:
        problems.append(f"dim/n_outcomes {rec.get('dim')}/{rec.get('n_outcomes')}, expected {ref.d}/{ref.n}")
        return problems
    _close(problems, "g_post", rec["g_post"], ref.g_post)
    _close(problems, "g_pre", rec["g_pre"], ref.g_pre)
    _close(problems, "f", rec["f"], ref.f)
    _close(problems, "bound_lhs", rec["bound_lhs"], ref.bound_lhs)
    _close(problems, "bound_rhs", rec["bound_rhs"], ref.bound_rhs)
    if rec["bound_satisfied"] is not True:
        problems.append("bound_satisfied is not true")
    a_max = rec["per_outcome_a_max"]
    outcomes = rec["outcomes"]
    if len(a_max) != ref.n or len(outcomes) != ref.n:
        problems.append(f"{len(a_max)} a_max values and {len(outcomes)} outcome records for {ref.n} outcomes")
        return problems
    for i, (value, out) in enumerate(zip(a_max, outcomes)):
        want = float(ref.a_max[i])
        _close(problems, f"per_outcome_a_max[{i}]", value, want)
        _close(problems, f"outcomes[{i}].a_max", out["a_max"], want)
        if out["outcome"] != i + 1:
            problems.append(f"outcomes[{i}] is numbered {out['outcome']}")
        _top_vector(problems, f"outcomes[{i}].chi_pre", out["chi_pre"], ref.effects[i], want)
        _top_vector(problems, f"outcomes[{i}].chi_post", out["chi_post"], ref.left[i], want)
    if samples is not None:
        problems += _check_mc(rec.get("montecarlo"), ref, samples, seed)
    return problems


def _check_mc(block, ref: Reference, samples: int, seed: int) -> list:
    problems: list = []
    if not block or block.get("samples") != samples or block.get("seed") != seed:
        return [f"montecarlo block missing or not for {samples} samples, seed {seed}"]
    for name, want in (("g_post", ref.g_post), ("g_pre", ref.g_pre), ("f", ref.f)):
        b = block[name]
        _close(problems, f"montecarlo.{name}.analytic", b["analytic"], want)
        se = b["std_error"]
        if not (isinstance(se, float) and 0.0 < se < 1.0):
            problems.append(f"montecarlo.{name}.std_error is {se!r}")
            continue
        _close(problems, f"montecarlo.{name}.mean", b["mean"], want, max(MC_SIGMAS * se, MC_ABS))
        if b["agrees"] is not True:
            problems.append(f"montecarlo.{name} does not agree")
    if block["agrees"] is not True:
        problems.append("montecarlo verdict does not agree")
    return problems


def check_simulate(stdout: str, ref: Reference, shots: int) -> list:
    """Check a ``simulate --json`` record against Born probabilities of its printed state."""
    problems: list = []
    rec = json.loads(stdout)
    log = rec["shots"]
    if len(log) != shots or [s["shot"] for s in log] != list(range(1, shots + 1)):
        return [f"shot log has {len(log)} entries, not shots 1..{shots}"]
    outcomes = np.array([s["outcome"] for s in log])
    if outcomes.min() < 1 or outcomes.max() > ref.n:
        return [f"outcome outside 1..{ref.n}"]
    counts = rec["counts"]
    if counts != np.bincount(outcomes - 1, minlength=ref.n).tolist() or sum(counts) != shots:
        problems.append(f"counts {counts} do not tally the {shots}-shot log")
    for i, freq in enumerate(rec["frequencies"]):
        _close(problems, f"frequencies[{i}]", freq, counts[i] / shots, 1e-15)

    psi = _complex(rec["state"])
    _close(problems, "state norm", float(np.linalg.norm(psi)), 1.0)
    collapsed = ref.kraus @ psi
    born = np.sum(np.abs(collapsed) ** 2, axis=1)
    for i, p in enumerate(born):
        sigma = math.sqrt(max(p * (1.0 - p), 0.0) / shots)
        _close(problems, f"frequency of outcome {i + 1} vs Born", counts[i] / shots, float(p), SHOT_SIGMAS * sigma)

    expected = collapsed / np.sqrt(born)[:, None]
    posts = _complex([s["post_state"] for s in log])
    overlaps = np.abs(np.sum(expected[outcomes - 1].conj() * posts, axis=1)) ** 2
    norms = np.linalg.norm(posts, axis=1)
    bad = np.flatnonzero((overlaps < 1.0 - OVERLAP_TOL) | (np.abs(norms - 1.0) > VALUE_TOL))
    if bad.size:
        problems.append(f"{bad.size} post_states differ from M_s psi/|M_s psi| (first: shot {bad[0] + 1})")
    return problems
