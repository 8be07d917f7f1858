"""Tests of the benchmark's own machinery: span self time, output checks, digests.

Run from the repository root with ``python -m pytest bench``.
"""

import json
import os

import pytest

import pool
import run
import spans

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_excludes_child_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def inner():
        clock.now += 3

    def outer():
        clock.now += 5
        traced_inner()
        clock.now += 2
        traced_inner()

    traced_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()

    assert tracer.stats["outer"].self_ns == 7
    assert tracer.stats["inner"].calls == 2
    assert tracer.stats["inner"].self_ns == 6


def test_failing_span_counts_an_error_and_closes():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def boom():
        clock.now += 4
        raise ValueError("boom")

    def outer():
        with pytest.raises(ValueError):
            tracer.wrap("boom", boom)()

    tracer.wrap("outer", outer)()
    assert tracer.stats["boom"].errors == 1
    assert tracer.stats["boom"].self_ns == 4
    assert tracer.stats["outer"].self_ns == 0
    assert tracer._open == []


def test_installed_wraps_every_lookup_site_and_restores_it():
    from qmeter import estimator, matkernel, measurement

    tracer = spans.Tracer()
    with tracer.installed(spans.qmeter_sites()):
        assert measurement.hermitian_eig is not matkernel.hermitian_eig
        assert estimator.hermitian_eig is not matkernel.hermitian_eig
    assert measurement.hermitian_eig is matkernel.hermitian_eig
    assert estimator.hermitian_eig is matkernel.hermitian_eig


def _runner(tmp_path, workload, seed=3):
    pool_dir = str(tmp_path / f"pool{seed}")
    assert pool.main([pool_dir, str(workload.d), str(workload.n), str(workload.pool), str(seed * run.SEED_STRIDE)]) == 0
    refs = [run.checks.Reference(pool.device_path(pool_dir, k)) for k in range(workload.pool)]
    return run.Runner(workload, seed, pool_dir, refs)


def _corrupting(monkeypatch, edit):
    real = run.call_cli

    def call(argv):
        rc, out, err, elapsed = real(argv)
        return rc, json.dumps(edit(json.loads(out))) + "\n", err, elapsed

    monkeypatch.setattr(run, "call_cli", call)


CLOSED_FORM = run.Workload("tiny_closed_form", d=4, n=3, pool=2)
MONTECARLO = run.Workload("tiny_montecarlo", d=3, n=2, pool=1, samples=2000)
SHOTS = run.Workload("tiny_shots", d=3, n=3, pool=2, shots=200)


@pytest.mark.parametrize("workload", [CLOSED_FORM, MONTECARLO, SHOTS])
def test_true_outputs_pass_every_check(tmp_path, workload):
    runner = _runner(tmp_path, workload)
    for k in range(2 * workload.pool):
        runner.op(k)
    assert runner.problems == []
    assert (runner.attempted, runner.failed) == (2 * workload.pool, 0)


def test_g_post_off_by_1e_6_is_a_failure(tmp_path, monkeypatch):
    def edit(rec):
        rec["g_post"] += 1e-6
        return rec

    runner = _runner(tmp_path, CLOSED_FORM)
    _corrupting(monkeypatch, edit)
    runner.op(0)
    assert runner.failed == 1
    assert "g_post" in runner.problems[0]


def test_mc_disagreement_is_a_failure(tmp_path, monkeypatch):
    def edit(rec):
        rec["montecarlo"]["f"]["mean"] += 0.05
        return rec

    runner = _runner(tmp_path, MONTECARLO)
    _corrupting(monkeypatch, edit)
    runner.op(0)
    assert runner.failed == 1


def test_dropped_shot_is_a_failure(tmp_path, monkeypatch):
    def edit(rec):
        rec["shots"].pop()
        return rec

    runner = _runner(tmp_path, SHOTS)
    _corrupting(monkeypatch, edit)
    runner.op(0)
    assert runner.failed == 1


def test_wrong_post_state_is_a_failure(tmp_path, monkeypatch):
    def edit(rec):
        first = rec["shots"][0]["post_state"]
        first[0], first[1] = first[1], first[0]
        return rec

    runner = _runner(tmp_path, SHOTS)
    _corrupting(monkeypatch, edit)
    runner.op(0)
    assert runner.failed == 1
    assert "post_states" in runner.problems[0]


def test_same_seed_gives_the_same_stdout_digest(tmp_path):
    digests = []
    for seed in (5, 5, 6):
        runner = _runner(tmp_path, SHOTS, seed)
        for k in range(SHOTS.pool):
            runner.op(k)
        assert runner.covered_pool()
        digests.append(runner.pool_digest.hexdigest())
    assert digests[0] == digests[1] != digests[2]


def test_benchmark_json_lists_exactly_the_printed_metrics():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        declared = json.load(fh)
    workload = run.WORKLOADS["montecarlo"]
    tracer = spans.Tracer()
    e2e = run.end_to_end_metrics(workload, [1.0], [0.1] * 20)
    layer = run.per_layer_metrics(workload, tracer, 1, 1.0, 1.0, 0)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == [(k, v[1]) for k, v in e2e.items()]
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [(k, v[1]) for k, v in layer.items()]
