"""Command-line front end.

Subcommands: ``validate``, ``estimate``, ``fidelities``, ``simulate``,
``domain``, ``catalog``. Device specifications are JSON documents::

    {
      "dim": 2,
      "kraus": [ [[[re, im], ...d entries], ...d rows], ...n operators ],
      "labels": ["+", "-"],      # optional
      "tolerance": 1e-10         # optional completeness tolerance
    }

with matrices row-major and every complex number a ``[re, im]`` pair. State
files use ``{"dim": d, "amplitudes": [[re, im], ...]}``. Numbers are emitted
via shortest round-trip decimal rendering, so written specs parse back
bit-exactly.

Exit codes: 0 success, 1 parse/IO failure, 2 domain or validation error.
The env var ``QMETER_DEFAULT_TOLERANCE`` overrides the default completeness
tolerance; an explicit ``--tolerance`` flag or a ``tolerance`` field in the
file wins over it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import catalog, estimator, haar
from .errors import (
    DeviceSpecError,
    DimensionMismatch,
    IncompleteDevice,
    OutOfDomain,
    QmeterError,
)
from .matkernel import _max_count, canonicalize_phase, finite_scalar
from .measurement import DEFAULT_COMPLETENESS_TOL, Measurement, as_state

MC_AGREEMENT_ABS = 1e-3
MC_AGREEMENT_SIGMAS = 5.0


# ---------------------------------------------------------------------------
# serialization helpers


def _pairs(a) -> list:
    """Nested lists of ``[re, im]`` pairs for a complex array of any shape."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _number(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise DeviceSpecError(f"{where}: expected a number, got {x!r}")
    try:
        value = float(x)
    except OverflowError:  # integers beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise DeviceSpecError(f"{where}: expected a finite number, got {x!r}")
    return value


def _decode_pairs(rows: list, d: int, where) -> np.ndarray:
    """``rows`` as a ``(len(rows), d)`` complex128 array, each entry a finite ``[re, im]`` pair.

    One walk, in document order, checks that each row is a list of ``d``
    pairs and gathers their numbers; one numpy conversion then decodes them
    all. On any fault, ``_number`` re-reads the numbers gathered so far, so
    the error names the first bad entry. ``where(i)`` labels row ``i``.
    """
    numbers = []

    def reject(fault):
        for j, x in enumerate(numbers):
            _number(x, where(j // (2 * d)))
        raise DeviceSpecError(fault)

    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != d:
            reject(f"{where(i)}: expected {d} [re, im] pairs")
        for x in row:
            if not isinstance(x, list) or len(x) != 2:
                reject(f"{where(i)}: expected an [re, im] pair, got {x!r}")
            numbers += x
    if set(map(type, numbers)) <= {int, float}:
        with contextlib.suppress(OverflowError):  # an integer beyond the float range, named by _number
            values = np.array(numbers, dtype=np.float64)
            if np.isfinite(values).all():
                return values.view(np.complex128).reshape(len(rows), d)
    reject(None)  # unreached: _number refuses every number the conversion refuses


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise DeviceSpecError(f"{path}: not UTF-8 text ({e.reason})") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DeviceSpecError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise DeviceSpecError(f"{path}: JSON nested too deeply") from e
    except ValueError as e:  # an integer with more digits than sys.get_int_max_str_digits() allows
        raise DeviceSpecError(f"{path}: {e}") from e


def load_device(path: str, tolerance: float | None = None) -> Measurement:
    """Parse and validate a device spec file.

    Tolerance precedence: explicit argument, then the file's ``tolerance``
    field, then ``QMETER_DEFAULT_TOLERANCE``, then the built-in default.
    """
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise DeviceSpecError(f"{path}: device spec must be a JSON object")
    if "dim" not in obj or "kraus" not in obj:
        raise DeviceSpecError(f"{path}: device spec needs 'dim' and 'kraus'")
    dim = finite_scalar(obj["dim"], int, f"{path}: 'dim'", 1, _max_count(16, 2), error=DeviceSpecError)
    raw_kraus = obj["kraus"]
    if not isinstance(raw_kraus, list) or not raw_kraus:
        raise DeviceSpecError(f"{path}: 'kraus' must be a non-empty list of matrices")

    def where(i):
        return f"{path}: kraus operator {i // dim + 1}, row {i % dim + 1}"

    rows = []
    for s, k in enumerate(raw_kraus):
        if not isinstance(k, list) or len(k) != dim:
            _decode_pairs(rows, dim, where)  # a bad entry ahead of this operator comes first
            raise DeviceSpecError(f"{path}: kraus operator {s + 1}: expected {dim} rows")
        rows += k
    ops = _decode_pairs(rows, dim, where).reshape(-1, dim, dim)
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != len(ops) or not all(isinstance(x, str) for x in labels):
            raise DeviceSpecError(f"{path}: 'labels' must list one string name per operator")
    env = os.environ.get("QMETER_DEFAULT_TOLERANCE")
    if tolerance is not None:
        source = "--tolerance"
    elif obj.get("tolerance") is not None:
        tolerance, source = _number(obj["tolerance"], f"{path}: tolerance"), "the spec file"
    elif env is not None:
        try:
            tolerance, source = float(env), "QMETER_DEFAULT_TOLERANCE"
        except ValueError as e:
            raise DeviceSpecError(f"QMETER_DEFAULT_TOLERANCE={env!r} is not a number") from e
    else:
        tolerance, source = DEFAULT_COMPLETENESS_TOL, "the default"
    try:
        return Measurement(ops, labels=labels, tolerance=tolerance)
    except IncompleteDevice as e:
        raise IncompleteDevice(e.defect, tolerance=e.tolerance, source=source) from None


def load_state(path: str, dim: int) -> np.ndarray:
    obj = _load_json(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("amplitudes"), list):
        raise DeviceSpecError(f"{path}: state file needs an 'amplitudes' array")
    declared = finite_scalar(obj.get("dim", dim), int, f"{path}: 'dim'", 1, error=DeviceSpecError)
    if declared != dim or len(obj["amplitudes"]) != dim:
        raise DimensionMismatch(
            f"{path}: state dimension {declared} does not match device dimension {dim}"
        )
    return _decode_pairs([obj["amplitudes"]], dim, lambda i: f"{path}: amplitudes")[0]


def _indented(texts, level: int) -> str:
    """Encoded ``texts`` as one JSON list at nesting ``level``, laid out as by ``indent=1``."""
    pad = "\n" + " " * level
    return f"[{pad}{(',' + pad).join(texts)}{pad[:-1]}]"


def _pair_texts(a: np.ndarray) -> list:
    """Every entry of ``a``, flattened, as the ``[re, im]`` list ``indent=1`` lays out at level 5."""
    return [
        f"[\n     {re!r},\n     {im!r}\n    ]"
        for re, im in zip(a.real.ravel().tolist(), a.imag.ravel().tolist())
    ]


def write_device(m: Measurement, path: str) -> None:
    """Write ``m`` as a spec file: the bytes of ``json.dumps(record, indent=1)`` and a newline.

    The text is built entry by entry (``repr`` is what ``json`` emits for a
    finite float) and in full before ``path`` is opened, so a failure never
    truncates an existing file.
    """
    n, d, _ = m.kraus.shape
    texts = _pair_texts(m.kraus)
    for level, size in ((4, d), (3, d), (2, n)):
        texts = [_indented(texts[i : i + size], level) for i in range(0, len(texts), size)]
    items = [f'"dim": {d}', f'"kraus": {texts[0]}']
    if m.labels is not None:
        items.append(f'"labels": {_indented(map(json.dumps, m.labels), 2)}')
    text = "{\n " + ",\n ".join(items) + "\n}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(record: dict, human_lines, as_json: bool) -> None:
    if as_json:
        print(json.dumps(record, allow_nan=False))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    try:
        m = load_device(args.device, args.tolerance)
    except IncompleteDevice as e:
        record = {"command": "validate", "ok": False, "defect": e.defect}
        _emit(record, [f"INCOMPLETE: completeness defect {e.defect:.17g}"], args.json)
        return 2
    record = {
        "command": "validate",
        "ok": True,
        "dim": m.dim,
        "n_outcomes": m.n_outcomes,
        "defect": m.completeness_defect,
        "tolerance": m.tolerance,
    }
    lines = [
        f"OK: dim={m.dim} outcomes={m.n_outcomes} "
        f"defect={m.completeness_defect:.17g} tolerance={m.tolerance:g}"
    ]
    _emit(record, lines, args.json)
    return 0


def _outcome_record(m: Measurement, pair: estimator.EstimatePair) -> dict:
    rec = {
        "outcome": pair.outcome,
        "a_max": pair.a_max,
        "degenerate": pair.degenerate,
        "chi_pre": _pairs(pair.chi_pre),
        "chi_post": _pairs(pair.chi_post),
    }
    if m.labels is not None:
        rec["label"] = m.labels[pair.outcome - 1]
    return rec


def cmd_estimate(args) -> int:
    m = load_device(args.device)
    rec = _outcome_record(m, estimator.estimate_pair(m, args.outcome))
    rec["command"] = "estimate"
    lines = [
        f"outcome {args.outcome}" + (f" ({rec['label']})" if "label" in rec else ""),
        f"a_max      = {rec['a_max']:.17g}",
        f"degenerate = {rec['degenerate']}",
        f"chi_pre    = {json.dumps(rec['chi_pre'])}",
        f"chi_post   = {json.dumps(rec['chi_post'])}",
    ]
    _emit(rec, lines, args.json)
    return 0


def _mc_block(m: Measurement, pairs, samples: int, seed: int, report) -> dict:
    post, pre = [p.chi_post for p in pairs], [p.chi_pre for p in pairs]
    analytic = {"g_post": report.g_post, "g_pre": report.g_pre, "f": report.f_op}
    block = {"samples": samples, "seed": seed}
    for (name, exact), mc in zip(analytic.items(), haar.mc_fidelities(m, post, pre, samples, seed)):
        ok = abs(mc.mean - exact) <= max(MC_AGREEMENT_SIGMAS * mc.std_error, MC_AGREEMENT_ABS)
        block[name] = {"mean": mc.mean, "std_error": mc.std_error, "analytic": exact, "agrees": ok}
    block["agrees"] = all(block[name]["agrees"] for name in analytic)
    return block


def cmd_fidelities(args) -> int:
    m = load_device(args.device)
    report = estimator.check_bound(m)
    pairs = estimator.estimate_pairs(m)
    a_maxes = [p.a_max for p in pairs]
    rec = {
        "command": "fidelities",
        "dim": m.dim,
        "n_outcomes": m.n_outcomes,
        "g_post": report.g_post,
        "g_pre": report.g_pre,
        "f": report.f_op,
        "per_outcome_a_max": a_maxes,
        "bound_lhs": report.bound_lhs,
        "bound_rhs": report.bound_rhs,
        "bound_satisfied": report.bound_satisfied,
        "outcomes": [_outcome_record(m, p) for p in pairs],
    }
    lines = [
        f"G_post = {report.g_post:.17g}",
        f"G_pre  = {report.g_pre:.17g}",
        f"F      = {report.f_op:.17g}",
        f"bound: lhs={report.bound_lhs:.17g} rhs={report.bound_rhs:.17g} "
        f"satisfied={report.bound_satisfied}",
        "a_max per outcome: " + " ".join(f"{x:.17g}" for x in a_maxes),
    ]
    if args.montecarlo is not None:
        block = _mc_block(m, pairs, args.montecarlo, args.seed, report)
        rec["montecarlo"] = block
        for name in ("g_post", "g_pre", "f"):
            b = block[name]
            lines.append(
                f"MC {name}: {b['mean']:.8f} +- {b['std_error']:.1e} "
                f"(analytic {b['analytic']:.8f}) {'agree' if b['agrees'] else 'DISAGREE'}"
            )
        lines.append(f"MC verdict: {'agree' if block['agrees'] else 'DISAGREE'}")
    _emit(rec, lines, args.json)
    return 0


def cmd_simulate(args) -> int:
    finite_scalar(args.shots, int, "--shots", 1)
    m = load_device(args.device)
    if args.state is not None:
        psi = as_state(load_state(args.state, m.dim), m.dim)
        source = {"source": "file", "path": args.state}
    else:
        psi = haar.haar_state(m.dim, haar.RngStream(args.seed, 0))
        source = {"source": "haar", "seed": args.seed}
    gen = haar.RngStream(args.seed, 1).generator()
    outcomes, posts = m.sample_outcomes(psi, gen, args.shots)
    log = outcomes.tolist()
    counts = np.bincount(outcomes - 1, minlength=m.n_outcomes)
    freqs = counts / args.shots
    # One phase pass over the distinct post-states and psi; each post-state is encoded once, for every shot.
    *rows, state = _pairs(canonicalize_phase(np.array([*posts.values(), psi])))
    texts = {s: json.dumps(row, allow_nan=False) for s, row in zip(posts, rows)}
    if args.json:
        # Byte-identical to json.dumps of {"command", "shots": [shot dicts], **rest}
        # without building one dict per shot: the log is spliced into the rest.
        rest = json.dumps(
            {
                "counts": [int(c) for c in counts],
                "frequencies": [float(f) for f in freqs],
                "state": state,
                **source,
            },
            allow_nan=False,
        )
        shots = ", ".join(
            f'{{"shot": {shot}, "outcome": {s}, "post_state": {texts[s]}}}'
            for shot, s in enumerate(log, 1)
        )
        print(f'{{"command": "simulate", "shots": [{shots}], {rest[1:]}')
        return 0
    lines = [f"{shot},{s},{texts[s]}" for shot, s in enumerate(log, 1)]
    for s in range(1, m.n_outcomes + 1):
        label = f" ({m.labels[s - 1]})" if m.labels is not None else ""
        lines.append(f"# outcome {s}{label}: {counts[s - 1]} shots, frequency {freqs[s - 1]:.6f}")
    print("\n".join(lines))
    return 0


def _parse_dims(raw: str) -> list:
    dims = []
    for token in raw.split(","):
        token = token.strip()
        if token == "inf":
            dims.append(math.inf)
            continue
        try:
            d = int(token)
        except ValueError:
            raise OutOfDomain(f"bad dimension token {token!r} (need an integer or 'inf')") from None
        dims.append(d)
    return dims


def cmd_domain(args) -> int:
    dims = _parse_dims(args.d)
    rows = ["d,g_post,max_f"]
    for d in dims:
        table = estimator.domain_boundary(d, args.steps)
        for g, f in table:
            rows.append(f"{d},{float(g)!r},{float(f)!r}")
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# Each catalog family's constructor from the parsed flags; the names are also the parser's choices.
FAMILIES = {
    "projective": lambda args: catalog.projective(args.d),
    "identity": lambda args: catalog.identity_device(args.d),
    "unsharp": lambda args: catalog.unsharp_qubit(args.lam),
    "random": lambda args: catalog.random_device(args.d, args.n, args.seed),
    "tetrahedron": lambda args: catalog.tetrahedron_rank_one(
        None if args.post_seed is None else list(haar.haar_states(2, 4, args.post_seed))
    ),
}


def cmd_catalog(args) -> int:
    m = FAMILIES[args.family](args)
    if args.kick_seed is not None:
        kicks = [
            haar.haar_isometry(m.dim, m.dim, haar.RngStream(args.kick_seed, s))
            for s in range(m.n_outcomes)
        ]
        m = catalog.with_kicks(m, kicks)
    write_device(m, args.out)
    print(f"wrote {args.family} device (dim={m.dim}, outcomes={m.n_outcomes}) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each parse returns a fresh Namespace."""
    p = argparse.ArgumentParser(prog="qmeter", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a device spec against the completeness relation")
    v.add_argument("device")
    v.add_argument("--tolerance", type=float, default=None)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_validate)

    e = sub.add_parser("estimate", help="optimal pre/post state estimates for one outcome")
    e.add_argument("device")
    e.add_argument("--outcome", type=int, required=True)
    e.add_argument("--json", action="store_true")
    e.set_defaults(func=cmd_estimate)

    f = sub.add_parser("fidelities", help="mean fidelities, tradeoff bound, optional MC check")
    f.add_argument("device")
    f.add_argument("--montecarlo", type=int, nargs="?", const=haar.DEFAULT_SAMPLES, default=None)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--json", action="store_true")
    f.set_defaults(func=cmd_fidelities)

    s = sub.add_parser("simulate", help="sample outcomes and collapsed states shot by shot")
    s.add_argument("device")
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", default=None, help="state spec file")
    group.add_argument("--haar", action="store_true", help="draw the input state at random")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--shots", type=int, default=1)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_simulate)

    d = sub.add_parser("domain", help="CSV table of the maximal-F boundary curves")
    d.add_argument("--d", default="2,4,8,16,inf", help="comma-separated dimensions, 'inf' allowed")
    d.add_argument("--steps", type=int, default=101)
    d.add_argument("--out", default=None)
    d.set_defaults(func=cmd_domain)

    c = sub.add_parser("catalog", help="write a named device family to a spec file")
    c.add_argument("family", choices=FAMILIES)
    c.add_argument("--d", type=int, default=2)
    c.add_argument("--lambda", dest="lam", type=float, default=0.5)
    c.add_argument("--n", type=int, default=2)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--post-seed", type=int, default=None)
    c.add_argument("--kick-seed", type=int, default=None)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_catalog)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DeviceSpecError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (QmeterError, ValueError, MemoryError) as e:  # MemoryError: a request larger than memory
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
