"""Seeded input fuzzers: malformed input ends in a typed error, never an uncaught exception.

Spec files: valid device specs come from ``cli.write_device`` and valid state
files hold a Haar state. Each mutant applies one to three random edits
(deleted keys, duplicated or dropped operators or amplitudes, non-numeric or
non-finite entries, extra nesting, ragged rows, a wrong ``dim``, bad
``labels`` or ``tolerance``) and is run in-process: a device spec through five
commands, a state file through ``simulate --state``. Every run exits 0, 1 or 2.

Library entry points: ``Measurement``, ``make_rank_one_device``,
``catalog.with_kicks``, ``catalog.bloch_state``, ``as_state``, the RNG of
``Measurement.sample_outcomes``, the public ``matkernel`` functions, the
``haar`` integrands' guesses and states, and every
scalar argument that ``matkernel.finite_scalar`` gates (seeds and sizes beyond
numpy's index range included), on mutated arguments or on arrays of numeric
strings, either return a result or raise a ``QmeterError``. A ``RuntimeWarning`` fails
either fuzzer (see pyproject.toml).
"""

import collections
import copy
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from conftest import rand_complex, rand_hermitian
from qmeter import catalog, cli, estimator, haar, matkernel
from qmeter.errors import QmeterError
from qmeter.estimator import make_rank_one_device
from qmeter.measurement import Measurement, as_state

MUTANTS = 600
# ``MUTANT`` stands for the mutated file's path in each command line.
MUTANT = "__mutant__"
COMMANDS = (
    ["validate", MUTANT],
    ["fidelities", MUTANT],
    ["estimate", MUTANT, "--outcome", "1"],
    ["simulate", MUTANT, "--haar", "--shots", "5"],
    ["fidelities", MUTANT, "--montecarlo", "100"],
)
# Written as the bare JSON token 1e400, which json.loads reads as inf.
OVERFLOW = "__1e400__"
JUNK = [True, False, None, "1.0", "x", 10**400, OVERFLOW, [], {}, -1, 0, 2.5]


def base_cases(tmp_path, rng, target):
    """``(spec, key, commands)``: a valid file, the key whose array is mutated, and the runs of each mutant.

    Each of six written random devices gives one case: its own spec for the
    ``device`` target, or a Haar state of its dimension, run through
    ``simulate --state`` against it, for the ``state`` target.
    """
    cases = []
    for k in range(6):
        d, n = rng.choice((2, 3)), rng.choice((1, 2, 4))
        m = catalog.random_device(d, n, seed=k)
        if k % 2:
            m = Measurement(m.kraus, labels=[f"o{s}" for s in range(n)])
        path = tmp_path / f"base{k}.json"
        cli.write_device(m, str(path))
        if target == "device":
            cases.append((json.loads(path.read_text()), "kraus", COMMANDS))
        else:
            psi = haar.haar_state(d, haar.RngStream(k))
            state = {"dim": d, "amplitudes": np.stack([psi.real, psi.imag], axis=-1).tolist()}
            runs = [["simulate", str(path), "--state", MUTANT, "--shots", "5", *flag] for flag in ([], ["--json"])]
            cases.append((state, "amplitudes", runs))
    return cases


def entries(node, depth=0):
    """(container, index, depth) for every list slot under ``node``."""
    if isinstance(node, list):
        for i, child in enumerate(node):
            yield node, i, depth
            yield from entries(child, depth + 1)


def mutate(spec, rng, key):
    """Apply one random edit to ``spec`` in place; ``key`` names its array of operators or amplitudes."""
    kind = rng.randrange(10)
    array = spec.get(key)
    slots = list(entries(array)) if isinstance(array, list) else []
    if kind == 0 and spec:
        del spec[rng.choice(sorted(spec))]
    elif kind in (1, 2) and isinstance(array, list) and array:
        if kind == 1:
            array.insert(rng.randrange(len(array) + 1), copy.deepcopy(rng.choice(array)))
        else:
            array.pop(rng.randrange(len(array)))
        if isinstance(spec.get("labels"), list) and rng.random() < 0.5:
            spec["labels"] = [f"o{s}" for s in range(len(array))]
    elif kind == 3 and slots:
        parent, i, _ = rng.choice(slots)
        parent[i] = rng.choice(JUNK)
    elif kind == 4 and slots:
        parent, i, _ = rng.choice(slots)
        parent[i] = [parent[i]]
    elif kind == 5 and slots:
        parent, i, _ = rng.choice([s for s in slots if s[2] <= 2] or slots)
        if isinstance(parent[i], list) and parent[i] and rng.random() < 0.5:
            parent[i].pop()
        elif isinstance(parent[i], list):
            parent[i].append(copy.deepcopy(parent[i][0]) if parent[i] else 0.0)
    elif kind == 6:
        dim = spec["dim"] if type(spec.get("dim")) is int else 2
        spec["dim"] = rng.choice([dim + 1, dim - 1, 0, -1, "2", 2.0, True, None, 10**400, [dim]])
    elif kind == 7:
        n = len(array) if isinstance(array, list) else 1
        spec["labels"] = rng.choice(
            ["ab", 5, None, {}, ["x"] * (n + 1), ["x"] * max(n - 1, 0), [None] * n, [[1]] * n, [{"a": 1}] * n]
        )
    elif kind == 8:
        spec["tolerance"] = rng.choice(
            [-1e-3, 0, 1e-300, 0.5, 10.0, 1e300, "1e-3", True, None, 10**400, OVERFLOW, []]
        )
    elif slots:
        scale = rng.choice([0.0, 0.5, 2.0, 1e-200, 1e200, -1.0])
        for parent, i, _ in slots:
            if isinstance(parent[i], (float, complex)):
                parent[i] *= scale


def run_mutants(tmp_path, target):
    """Run ``MUTANTS`` seeded mutants of the ``target`` files (see ``base_cases``) and check every exit code."""
    rng = random.Random(0)
    cases = base_cases(tmp_path, rng, target)
    path = tmp_path / "mutant.json"
    codes = set()
    for k in range(MUTANTS):
        spec, key, commands = rng.choice(cases)
        spec = copy.deepcopy(spec)
        for _ in range(rng.randint(1, 3)):
            mutate(spec, rng, key)
        if rng.random() < 0.3:  # let broken but finite devices through to the numerics
            spec["tolerance"] = rng.choice([0.5, 10.0, 1e300])
        text = json.dumps(spec).replace(f'"{OVERFLOW}"', "1e400")
        path.write_text(text)
        for argv in commands:
            argv = [str(path) if a == MUTANT else a for a in argv]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
            assert code in (0, 1, 2), (k, argv, text, err.getvalue())
            codes.add(code)
    assert codes == {0, 1, 2}


def test_mutated_specs_exit_cleanly(tmp_path):
    run_mutants(tmp_path, "device")


def test_mutated_state_files_exit_cleanly(tmp_path):
    run_mutants(tmp_path, "state")


CONSTRUCTOR_CALLS = 3000
# Whole-argument junk, beside the entry-level edits of ``mutate``.
ARGUMENT_JUNK = [5, None, "ab", {}, [], [[[{}]]], 10**400, 2.5, True, [1], ["x"], [[1, 2], [3]]]
TOLERANCES = [None, 0, 1e-8, 0.5, -1.0, "x", "1e-3", [1], 10**400, float("nan"), float("inf"), True, {}]


def junk_or_mutant(value, rng):
    """``value`` as nested lists with one edit of ``mutate`` applied, or an argument from ``ARGUMENT_JUNK``."""
    if rng.random() < 0.2:
        return rng.choice(ARGUMENT_JUNK)
    holder = {"x": np.asarray(value).tolist()}
    mutate(holder, rng, "x")
    return holder.get("x")


# Junk for one scalar argument. Valid sizes among it stay small: a valid huge count would make numpy
# allocate it. Every size has an upper bound that keeps its arrays indexable, so 10**400 is refused.
SCALAR_JUNK = [None, "3", 2.5, True, [2], -1, 0, float("nan"), float("inf"), 10**400]
# An int whose repr() raises ValueError (more than 4300 decimal digits). It joins the junk of the exhaustive
# per-slot sweep only: a longer SCALAR_JUNK would reorder every seeded draw of the constructor fuzzer.
HUGE_INT = 10**5000


def scalar_slots(seed):
    """``(name, call)`` for every scalar argument that ``finite_scalar`` gates.

    ``call(x)`` makes the library call with ``x`` in that argument and small valid values in the others.
    """
    m = catalog.random_device(2, 2, seed=seed)
    psi = haar.haar_state(2, haar.RngStream(seed))
    post = [estimator.best_post_estimate(m, s) for s in (1, 2)]
    pre = [estimator.best_pre_estimate(m, s) for s in (1, 2)]
    stream = haar.RngStream(seed)
    return [
        ("Measurement.tolerance", lambda x: Measurement(m.kraus, tolerance=x)),
        ("kraus_op", lambda x: m.kraus_op(x)),
        ("collapse", lambda x: m.collapse(psi, x)),
        ("bi_orthogonal_factors", lambda x: m.bi_orthogonal_factors(x)),
        ("estimate_pair", lambda x: estimator.estimate_pair(m, x)),
        ("verify_estimate_relations", lambda x: estimator.verify_estimate_relations(m, x)),
        ("mc_estimation_fidelity", lambda x: haar.mc_estimation_fidelity(m, x, post[0], psi)),
        ("sample_outcomes", lambda x: m.sample_outcomes(psi, np.random.default_rng(seed), x)),
        ("haar_state", lambda x: haar.haar_state(x, stream)),
        ("haar_states.d", lambda x: haar.haar_states(x, 3, seed)),
        ("haar_states.count", lambda x: haar.haar_states(2, x, seed)),
        ("haar_states.start", lambda x: haar.haar_states(2, 3, seed, x)),
        ("haar_isometry.rows", lambda x: haar.haar_isometry(x, 2, stream)),
        ("haar_isometry.cols", lambda x: haar.haar_isometry(4, x, stream)),
        ("mc_g_post", lambda x: haar.mc_g_post(m, post, samples=x)),
        ("mc_g_pre", lambda x: haar.mc_g_pre(m, pre, samples=x)),
        ("mc_operation_fidelity", lambda x: haar.mc_operation_fidelity(m, samples=x)),
        ("mc_fidelities", lambda x: haar.mc_fidelities(m, post, pre, samples=x)),
        ("tradeoff_bound.d", lambda x: estimator.tradeoff_bound(x, 0.75)),
        ("tradeoff_bound.g_post", lambda x: estimator.tradeoff_bound(2, x)),
        ("domain_boundary.d", lambda x: estimator.domain_boundary(x, 3)),
        ("domain_boundary.steps", lambda x: estimator.domain_boundary(2, x)),
        ("projective", lambda x: catalog.projective(x)),
        ("identity_device", lambda x: catalog.identity_device(x)),
        ("unsharp_qubit", lambda x: catalog.unsharp_qubit(x)),
        ("random_device.d", lambda x: catalog.random_device(x, 2, seed)),
        ("random_device.n", lambda x: catalog.random_device(2, x, seed)),
        ("random_device.seed", lambda x: catalog.random_device(2, 2, x)),
        ("haar_states.seed", lambda x: haar.haar_states(2, 3, x)),
        ("mc_g_post.seed", lambda x: haar.mc_g_post(m, post, samples=100, seed=x)),
        ("RngStream.seed", lambda x: haar.RngStream(x).generator()),
        ("RngStream.stream_index", lambda x: haar.RngStream(seed, x).generator()),
    ]


def constructor_call(rng):
    """A random library call with mutated arguments, as a thunk."""
    kind = rng.randrange(12)
    if kind == 0:
        m = catalog.random_device(rng.choice((2, 3)), rng.choice((1, 2, 4)), seed=rng.randrange(100))
        kraus = junk_or_mutant(m.kraus, rng)
        labels = rng.choice([None, ["a"] * m.n_outcomes, 5, "ab", [None], {}, [[1]] * m.n_outcomes])
        tolerance = rng.choice(TOLERANCES)
        return lambda: Measurement(kraus, labels=labels, tolerance=tolerance)
    if kind == 1:
        pres = [catalog.bloch_state(v) for v in catalog.TETRAHEDRON_DIRECTIONS]
        posts = list(haar.haar_states(2, 4, rng.randrange(100)))
        weights = [0.5] * 4
        which = rng.randrange(4)
        if which == 0:
            pres = junk_or_mutant(pres, rng)
        elif which == 1:
            posts = junk_or_mutant(posts, rng)
        elif which == 2:
            weights = rng.choice(ARGUMENT_JUNK + [[0.5, 0.5, 0.5, "x"], [0.5, 0.5, 0.5, -1], [0.5j] * 4, [1e308] * 4])
        return lambda: make_rank_one_device(pres, posts, weights)
    if kind == 2:
        m = catalog.random_device(2, rng.choice((1, 3)), seed=rng.randrange(100))
        kicks = [haar.haar_isometry(2, 2, haar.RngStream(7, s)) for s in range(m.n_outcomes)]
        kicks = junk_or_mutant(kicks, rng)
        return lambda: catalog.with_kicks(m, kicks)
    gen = np.random.default_rng(rng.randrange(100))
    d = rng.choice((1, 2, 3))
    if kind == 3:
        stack = [rand_hermitian(gen, d) for _ in range(rng.choice((1, 3)))]
        if d > 1 and rng.random() < 0.25:  # one broken off-diagonal entry: NotHermitian by construction
            stack[-1][0, 1] += 1.0
            matrices = stack if rng.random() < 0.5 else stack[-1]
        else:
            matrices = junk_or_mutant(stack if rng.random() < 0.5 else stack[0], rng)
        return lambda: matkernel.hermitian_eig(matrices)
    if kind == 4:
        matrix = junk_or_mutant(rand_complex(gen, d, d), rng)
        return lambda: matkernel.polar_decompose(matrix)
    if kind == 5:
        psi = junk_or_mutant(haar.haar_state(d, haar.RngStream(rng.randrange(100))), rng)
        dim = rng.choice([None, d, d + 1])
        return lambda: as_state(psi, dim)
    if kind == 6:
        direction = junk_or_mutant(gen.normal(size=3), rng)
        return lambda: catalog.bloch_state(direction)
    if kind == 7:
        _, call = rng.choice(scalar_slots(rng.randrange(100)))
        x = rng.choice(SCALAR_JUNK)
        return lambda: call(x)
    if kind == 8:
        # A valid array written as (numeric) strings, which a numpy conversion would parse.
        m = catalog.random_device(max(d, 2), 2, seed=rng.randrange(100))
        call, value = rng.choice(
            [(Measurement, m.kraus), (as_state, haar.haar_state(d, haar.RngStream(1))),
             (matkernel.hermitian_eig, m.effects), (matkernel.polar_decompose, m.kraus[0]),
             (matkernel.canonicalize_phase, m.kraus[0]),
             (catalog.bloch_state, gen.normal(size=3)), (lambda x: catalog.with_kicks(m, x), [np.eye(m.dim)] * 2)]
        )
        strings = np.asarray(value).astype(rng.choice(["U", "S"]))
        if rng.random() < 0.5:
            strings = strings.tolist()  # nested lists of str or bytes, which numpy reads back as a U or S array
        elif rng.random() < 0.5:
            strings = strings.astype(object)
        return lambda: call(strings)
    if kind == 9:
        vectors = junk_or_mutant(rand_complex(gen, rng.choice((1, 3)), d), rng)
        return lambda: matkernel.canonicalize_phase(vectors)
    if kind == 10:
        m = catalog.random_device(max(d, 2), rng.choice((1, 3)), seed=rng.randrange(100))
        psi = haar.haar_state(m.dim, haar.RngStream(rng.randrange(100)))
        sampler = rng.choice([haar.RngStream(1), haar.RngStream(1).generator(), haar.RngStream(1).generator])
        sampler = sampler if rng.random() < 0.5 else rng.choice(ARGUMENT_JUNK)
        shots = rng.choice((1, 5))
        return lambda: m.sample_outcomes(psi, sampler, shots)
    m = catalog.random_device(rng.choice((2, 3)), rng.choice((1, 2, 4)), seed=rng.randrange(100))
    integrand, estimate = rng.choice(
        [(haar.g_post_integrand, estimator.best_post_estimate), (haar.g_pre_integrand, estimator.best_pre_estimate)]
    )
    guesses = junk_or_mutant([estimate(m, s) for s in range(1, m.n_outcomes + 1)], rng)
    states = haar.haar_states(m.dim, 8, seed=rng.randrange(100))
    if rng.random() < 0.3:
        states = junk_or_mutant(states, rng)
    return lambda: integrand(m, guesses, states)


def test_library_constructors_raise_typed_errors():
    rng = random.Random(0)
    outcomes = collections.Counter()
    for _ in range(CONSTRUCTOR_CALLS):
        call = constructor_call(rng)
        try:
            call()
            outcomes["result"] += 1
        except QmeterError as e:
            outcomes[type(e).__name__] += 1
    print(dict(outcomes))  # the count of each outcome, shown by pytest -s
    expected = {
        "result", "ShapeMismatch", "DimensionMismatch", "OutOfDomain", "NotHermitian", "NotUnitary", "OutcomeOutOfRange"
    }
    assert expected <= set(outcomes), outcomes


# The only junk that is valid input: an empty sample range, the default tolerance, a zero strength, the
# limiting curve, stream 0 and any integer seed.
VALID_JUNK = {
    ("haar_states.count", 0),
    ("haar_states.start", 0),
    ("Measurement.tolerance", None),
    ("unsharp_qubit", 0),
    ("domain_boundary.d", float("inf")),
    ("RngStream.stream_index", 0),
    *((f"{slot}.seed", seed) for slot in ("random_device", "haar_states", "mc_g_post", "RngStream")
      for seed in (-1, 0, 10**400, HUGE_INT)),
}


@pytest.mark.parametrize("name", [name for name, _ in scalar_slots(0)])
def test_every_scalar_junk_value_raises_a_typed_error(name):
    call = dict(scalar_slots(0))[name]
    for x in SCALAR_JUNK + [HUGE_INT]:
        try:
            call(x)
        except QmeterError:
            continue
        assert (name, x) in VALID_JUNK
