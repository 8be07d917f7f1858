"""Benchmark of the qmeter command-line tool, one workload per process.

Run from the repository root:

    python3 bench/run.py --workload closed_form --seed 1 --seconds 25 --trace 0

The load is a closed loop with one client: each op is one in-process call of
``qmeter.cli.main(argv)`` with stdout captured, issued after the previous one
returned and its output was checked. Ops cycle over a pool of seeded random
devices that a fresh interpreter writes with ``qmeter catalog random``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every op
twice, once plain and once with every layer's public functions wrapped in
spans, and prints the per-layer metrics. The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import checks
import spans
from pool import device_path

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Set-up runs this many times per run; setup_s is the median.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
# latency_p90_ms needs at least 10 ops beyond it, so the timed loop runs at
# least this many ops even when --seconds runs out first ...
MIN_OPS = 100
# ... but never longer than this, so that a run ends within 180 s.
MAX_LOOP_S = 120.0
# Device k of a run with seed S comes from catalog seed S * SEED_STRIDE + k,
# and op k uses the same number as its own --seed.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    n: int
    pool: int
    samples: int | None = None
    shots: int | None = None

    def argv(self, device: str, op_seed: int) -> list:
        if self.shots is not None:
            return ["simulate", device, "--haar", "--seed", str(op_seed), "--shots", str(self.shots), "--json"]
        if self.samples is not None:
            return ["fidelities", device, "--montecarlo", str(self.samples), "--seed", str(op_seed), "--json"]
        return ["fidelities", device, "--json"]

    @property
    def work_per_op(self) -> int:
        """Devices analysed, Haar samples checked, or shots, per op."""
        return self.shots or self.samples or 1

    def check(self, stdout: str, ref, op_seed: int) -> list:
        if self.shots is not None:
            return checks.check_simulate(stdout, ref, self.shots)
        return checks.check_fidelities(stdout, ref, self.samples, op_seed if self.samples else None)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("closed_form", d=16, n=4, pool=20),
        Workload("montecarlo", d=8, n=4, pool=20, samples=50_000),
        Workload("shots", d=4, n=4, pool=20, shots=1000),
    )
}


def call_cli(argv):
    """One op: ``qmeter.cli.main(argv)`` with stdout and stderr captured and timed."""
    from qmeter import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejects a bad argv this way
            rc = e.code
        except Exception:
            rc = traceback.format_exc()
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


class Runner:
    """Issues the ops of one workload run and checks every output."""

    def __init__(self, workload: Workload, seed: int, pool_dir: str, refs):
        self.workload = workload
        self.seed_base = seed * SEED_STRIDE
        self.pool_dir = pool_dir
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.stdout_bytes = 0
        # sha256 of each slot's first output; every later run of the slot must match it.
        self.slot_digest: dict = {}
        # sha256 of the first output of every slot, in slot order.
        self.pool_digest = hashlib.sha256()

    def op(self, k: int) -> float:
        """Run op ``k`` (pool slot ``k mod pool``), check it, and return its wall time."""
        slot = k % self.workload.pool
        op_seed = self.seed_base + slot
        rc, out, err, elapsed = call_cli(self.workload.argv(device_path(self.pool_dir, slot), op_seed))
        data = out.encode()
        self.attempted += 1
        self.stdout_bytes += len(data)
        problems = []
        if rc != 0:
            problems.append(f"exit {rc!r}: {err.strip()}")
        else:
            try:
                problems = self.workload.check(out, self.refs[slot], op_seed)
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
                problems = [f"unreadable output: {e!r}"]
        digest = hashlib.sha256(data).hexdigest()
        if slot not in self.slot_digest:
            self.slot_digest[slot] = digest
            self.pool_digest.update(data)
        elif self.slot_digest[slot] != digest:
            problems.append("stdout differs from the first run of the same op")
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"op {k} (slot {slot}): {'; '.join(problems)}")
        return elapsed

    def covered_pool(self) -> bool:
        return len(self.slot_digest) == self.workload.pool


def set_up(workload: Workload, seed: int, work_dir: str):
    """Write and load the device pool SETUP_REPEATS times in fresh interpreters.

    Returns the wall times, the pool directory to use, and whether every
    repeat wrote byte-identical files.
    """
    times, dirs = [], []
    for j in range(SETUP_REPEATS):
        out_dir = os.path.join(work_dir, f"setup{j}")
        cmd = [
            sys.executable,
            os.path.join(BENCH_DIR, "pool.py"),
            out_dir,
            str(workload.d),
            str(workload.n),
            str(workload.pool),
            str(seed * SEED_STRIDE),
        ]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed with exit {proc.returncode}: {proc.stderr.strip()}")
        dirs.append(out_dir)

    def pool_bytes(d):
        result = []
        for k in range(workload.pool):
            with open(device_path(d, k), "rb") as fh:
                result.append(fh.read())
        return result

    first = pool_bytes(dirs[0])
    identical = all(pool_bytes(d) == first for d in dirs[1:])
    return times, dirs[0], identical


def timed_loop(runner: Runner, seconds: float) -> list:
    """Closed loop, tracing off: op wall times in seconds."""
    runner.op(0)  # warm-up: first-call costs inside numpy and qmeter
    runner.stdout_bytes = 0
    latencies = []
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = elapsed >= seconds and k >= MIN_OPS and runner.covered_pool()
        if enough or elapsed >= MAX_LOOP_S:
            return latencies
        latencies.append(runner.op(k))
        k += 1


def traced_loop(runner: Runner, seconds: float):
    """Each op runs plain, then traced. Returns (tracer, ops, plain s, traced s)."""
    tracer = spans.Tracer()
    sites = spans.qmeter_sites()
    runner.op(0)
    runner.stdout_bytes = 0
    plain = traced = 0.0
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = elapsed >= seconds and runner.covered_pool()
        if enough or elapsed >= MAX_LOOP_S:
            return tracer, k, plain, traced
        plain += runner.op(k)
        with tracer.installed(sites):
            traced += runner.op(k)
        k += 1


def end_to_end_metrics(workload: Workload, setup_times, latencies) -> dict:
    ms = [x * 1e3 for x in latencies]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "work_per_s": (len(latencies) * workload.work_per_op / sum(latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(workload: Workload, tracer, ops: int, plain_s: float, traced_s: float, stdout_bytes) -> dict:
    """Per-op counts and self times of every span, plus the derived ratios."""
    def get(name):
        return tracer.stats.get(name, spans.SpanStats())

    metrics = {}
    layer_ms = dict.fromkeys(spans.LAYERS, 0.0)
    for name, _, _ in spans.qmeter_sites():
        s = get(name)
        self_ms = s.self_ns / 1e6 / ops
        layer_ms[name.split(".")[0]] += self_ms
        metrics[f"{name}.calls"] = (s.calls / ops, "count/op")
        metrics[f"{name}.self_ms"] = (self_ms, "ms/op")
        metrics[f"{name}.errors"] = (s.errors, "count")
    for layer, value in layer_ms.items():
        metrics[f"{layer}.self_ms"] = (value, "ms/op")

    samples = (workload.samples or 0) * ops
    shots = (workload.shots or 0) * ops
    states = get("haar.haar_states").items
    metrics["matkernel.eig_per_outcome"] = (get("matkernel.hermitian_eig").calls / (ops * workload.n), "ratio")
    metrics["haar.states_per_sample"] = (states / samples if samples else 0.0, "ratio")
    for integrand in ("g_post", "g_pre", "operation"):
        self_ns = get(f"haar.{integrand}_integrand").self_ns
        metrics[f"haar.{integrand}_integrand.ns_per_sample"] = (self_ns / samples if samples else 0.0, "ns")
    # Computed as rows * d * 16 bytes of complex128, not measured.
    metrics["haar.states_mb_computed"] = (states * workload.d * 16 / 1e6 / ops, "MB/op")
    metrics["measurement.as_state_per_shot"] = (get("measurement.as_state").calls / shots if shots else 0.0, "ratio")
    metrics["cli.stdout_bytes"] = (stdout_bytes / ops, "B/op")
    metrics["trace_overhead"] = (traced_s / plain_s, "ratio")
    return metrics


def blas_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(workload: Workload, args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "d": workload.d,
        "n": workload.n,
        "samples": workload.samples,
        "shots": workload.shots,
        "pool": workload.pool,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_qmeter(root: str) -> None:
    """Import qmeter from ``root/src``, refusing any other installed copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qmeter", "__init__.py")):
        raise RuntimeError(f"no qmeter sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    import qmeter

    if os.path.dirname(os.path.dirname(os.path.abspath(qmeter.__file__))) != src:
        raise RuntimeError(f"imported qmeter from {qmeter.__file__}, not from {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(root, ".bench_work", f"{workload.name}-{args.seed}-{os.getpid()}")
    try:
        import_qmeter(root)
        setup_times, pool_dir, pool_identical = set_up(workload, args.seed, work_dir)
        refs = [checks.Reference(device_path(pool_dir, k)) for k in range(workload.pool)]
        runner = Runner(workload, args.seed, pool_dir, refs)
        if args.trace:
            tracer, ops, plain_s, traced_s = traced_loop(runner, args.seconds)
            # Each op ran plain and traced; both printed the same bytes.
            metrics = per_layer_metrics(workload, tracer, ops, plain_s, traced_s, runner.stdout_bytes / 2)
        else:
            latencies = timed_loop(runner, args.seconds)
            metrics = end_to_end_metrics(workload, setup_times, latencies)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    for problem in runner.problems:
        print(f"failed {problem}", file=sys.stderr)
    if not pool_identical:
        print("error: set-up repeats wrote different device files", file=sys.stderr)
    fail_ratio = runner.failed / runner.attempted
    print(f"workload {workload.name}: {runner.attempted} ops attempted, {runner.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':48s} {fail_ratio:14.6g} ratio")
    print("env " + json.dumps(environment(workload, args), sort_keys=True))
    print("stdout_sha256 " + runner.pool_digest.hexdigest())
    result = {
        "correct": runner.failed == 0 and pool_identical,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
