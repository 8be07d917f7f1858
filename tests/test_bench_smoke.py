"""Each benchmark workload runs traced for one second and prints its seed-1 pool digest.

This is ``python3 bench/run.py --workload W --seed 1 --seconds 1 --trace 1``
from the repository root. The trace wraps qmeter's functions by name, so it
also fails on a module that imports a traced function under another name.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import build_note

ROOT = pathlib.Path(__file__).parent.parent
WORK = ROOT / ".bench_work"

# stdout_sha256 of one pass over each workload's seed-1 pool, recorded on conftest.PINNED_BUILD.
PINNED_DIGESTS = {
    "closed_form": "c7bb7bed12ab47e5fda1af9dd0f8e24ddac7d339feef653829670b6bdca6e9ce",
    "montecarlo": "4a3a7a6927bc91e93c8116f4066098bd2fd8012fa4ef3e238e156321d33f60a1",
    "shots": "5e0b235850eeef2c8d849178fa54aa61db53c256d01dbbc769a91e812ba0d2fe",
}


def work_entries():
    return sorted(os.listdir(WORK)) if WORK.exists() else None


@pytest.mark.parametrize("workload", list(PINNED_DIGESTS))
def test_traced_smoke(workload):
    before = work_entries()
    argv = ["bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stderr
    assert work_entries() == before
    assert f"stdout_sha256 {PINNED_DIGESTS[workload]}" in lines, build_note()
