"""Seeded input fuzzer: every mutated spec file ends in exit 0, 1 or 2, never an uncaught exception.

Valid specs come from ``cli.write_device``; each mutant applies one to three
random edits (deleted keys, duplicated or dropped operators, non-numeric or
non-finite entries, extra nesting, ragged rows, a wrong ``dim``, bad
``labels`` or ``tolerance``) and is run in-process through five commands.
"""

import copy
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from qmeter import catalog, cli
from qmeter.measurement import Measurement

MUTANTS = 600
COMMANDS = (
    ["validate"],
    ["fidelities"],
    ["estimate", "--outcome", "1"],
    ["simulate", "--haar", "--shots", "5"],
    ["fidelities", "--montecarlo", "100"],
)
# Written as the bare JSON token 1e400, which json.loads reads as inf.
OVERFLOW = "__1e400__"
JUNK = [True, False, None, "1.0", "x", 10**400, OVERFLOW, [], {}, -1, 0, 2.5]


def base_specs(tmp_path, rng):
    specs = []
    for k in range(6):
        d, n = rng.choice((2, 3)), rng.choice((1, 2, 4))
        m = catalog.random_device(d, n, seed=k)
        if k % 2:
            m = Measurement(m.kraus, labels=[f"o{s}" for s in range(n)])
        path = tmp_path / f"base{k}.json"
        cli.write_device(m, str(path))
        specs.append(json.loads(path.read_text()))
    return specs


def entries(node, depth=0):
    """(container, index, depth) for every list slot under ``node``."""
    if isinstance(node, list):
        for i, child in enumerate(node):
            yield node, i, depth
            yield from entries(child, depth + 1)


def mutate(spec, rng):
    """Apply one random edit to ``spec`` in place."""
    kind = rng.randrange(10)
    kraus = spec.get("kraus")
    slots = list(entries(kraus)) if isinstance(kraus, list) else []
    if kind == 0 and spec:
        del spec[rng.choice(sorted(spec))]
    elif kind in (1, 2) and isinstance(kraus, list) and kraus:
        if kind == 1:
            kraus.insert(rng.randrange(len(kraus) + 1), copy.deepcopy(rng.choice(kraus)))
        else:
            kraus.pop(rng.randrange(len(kraus)))
        if isinstance(spec.get("labels"), list) and rng.random() < 0.5:
            spec["labels"] = [f"o{s}" for s in range(len(kraus))]
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
        n = len(kraus) if isinstance(kraus, list) else 1
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
            if isinstance(parent[i], float):
                parent[i] *= scale


def test_mutated_specs_exit_cleanly(tmp_path):
    rng = random.Random(0)
    bases = base_specs(tmp_path, rng)
    path = tmp_path / "mutant.json"
    codes = set()
    for k in range(MUTANTS):
        spec = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            mutate(spec, rng)
        if rng.random() < 0.3:  # let broken but finite devices through to the numerics
            spec["tolerance"] = rng.choice([0.5, 10.0, 1e300])
        text = json.dumps(spec).replace(f'"{OVERFLOW}"', "1e400")
        path.write_text(text)
        for argv in COMMANDS:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                code = cli.main([argv[0], str(path), *argv[1:]])
            assert code in (0, 1, 2), (k, argv, text, err.getvalue())
            codes.add(code)
    assert codes == {0, 1, 2}
