"""Acceptance suite: the package's exit criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion (timings included). Tolerances are fixed here, not calibrated.
"""

import json
import time

import numpy as np
import pytest

from conftest import corpus_params, overlap2
from qmeter import catalog, cli, estimator as est, haar


def _passed(number, started, detail):
    print(f"ACCEPTANCE {number} PASS ({time.perf_counter() - started:.2f} s): {detail}")


def _optimal_guesses(m):
    post = [est.best_post_estimate(m, s) for s in range(1, m.n_outcomes + 1)]
    pre = [est.best_pre_estimate(m, s) for s in range(1, m.n_outcomes + 1)]
    return post, pre


def test_criterion_1_projective_closed_forms():
    started = time.perf_counter()
    for d in (2, 3, 4, 8):
        m = catalog.projective(d)
        assert abs(est.check_bound(m).g_post - 1.0) <= 1e-10
        assert abs(est.check_bound(m).g_pre - 2.0 / (d + 1)) <= 1e-10
        assert abs(est.operation_fidelity(m) - 2.0 / (d + 1)) <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(1, started, "projective devices d in {2,3,4,8}: G_post=1, G_pre=F=2/(d+1)")


def test_criterion_2_identity_closed_forms():
    started = time.perf_counter()
    for d in (2, 3, 4):
        m = catalog.identity_device(d)
        assert abs(est.operation_fidelity(m) - 1.0) <= 1e-10
        assert abs(est.check_bound(m).g_post - 1.0 / d) <= 1e-10
        assert abs(est.check_bound(m).g_pre - 1.0 / d) <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(2, started, "identity devices d in {2,3,4}: F=1, G_post=G_pre=1/d")


def test_criterion_3_pre_post_relation_on_corpus(device_corpus):
    started = time.perf_counter()
    worst = 0.0
    for m in device_corpus:
        pre = [est.best_pre_estimate(m, s) for s in range(1, m.n_outcomes + 1)]
        direct_max = est.g_pre_of_guess(m, pre)
        relation = (1.0 + est.check_bound(m).g_post) / (m.dim + 1)
        worst = max(worst, abs(direct_max - relation))
        assert abs(direct_max - relation) <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _passed(3, started, f"G_pre=(1+G_post)/(d+1) on 1000 random devices, worst gap {worst:.2e}")


def test_criterion_4_tradeoff_bound_on_corpus(device_corpus):
    started = time.perf_counter()
    worst_slack = np.inf
    checked = 0
    for m in device_corpus:
        report = est.check_bound(m)
        slack = report.bound_rhs - report.bound_lhs
        worst_slack = min(worst_slack, slack)
        assert slack >= -1e-9
        checked += 1
    for i, m in enumerate(device_corpus[:200]):
        kicks = [
            haar.haar_isometry(m.dim, m.dim, haar.RngStream(40_000 + i, s))
            for s in range(m.n_outcomes)
        ]
        report = est.check_bound(catalog.with_kicks(m, kicks))
        slack = report.bound_rhs - report.bound_lhs
        worst_slack = min(worst_slack, slack)
        assert slack >= -1e-9
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _passed(4, started, f"bound holds on {checked} devices, worst slack {worst_slack:.2e}")


def test_criterion_5_monte_carlo_oracle_agreement():
    started = time.perf_counter()
    devices = [
        ("projective(3)", catalog.projective(3)),
        ("identity(2)", catalog.identity_device(2)),
        ("unsharp(0.6)", catalog.unsharp_qubit(0.6)),
        ("tetrahedron", catalog.tetrahedron_rank_one()),
    ]
    devices += [
        (f"random#{i}", catalog.random_device(2 + i % 3, 2 + i % 3, seed=50_000 + i))
        for i in range(10)
    ]
    samples = 100_000
    for i, (name, m) in enumerate(devices):
        report = est.check_bound(m)
        post, pre = _optimal_guesses(m)
        seed = 51_000 + i
        for label, mc, analytic in (
            ("G_post", haar.mc_g_post(m, post, samples, seed), report.g_post),
            ("G_pre", haar.mc_g_pre(m, pre, samples, seed), report.g_pre),
            ("F", haar.mc_operation_fidelity(m, samples, seed), report.f_op),
        ):
            window = max(5.0 * mc.std_error, 1e-3)
            assert abs(mc.mean - analytic) <= window, (name, label, mc, analytic)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _passed(5, started, f"MC agrees with closed forms on {len(devices)} devices at 1e5 samples")


def test_criterion_6_estimate_link_relations(device_corpus):
    started = time.perf_counter()
    checked = skipped = 0
    for m in device_corpus:
        for s in range(1, m.n_outcomes + 1):
            check = est.verify_estimate_relations(m, s)
            if check.skipped:
                skipped += 1
                continue
            assert check.unitary_link_ok and check.kraus_link_ok
            checked += 1
    pure_devices = [catalog.projective(d) for d in (2, 3, 4)]
    pure_devices += [catalog.unsharp_qubit(lam) for lam in np.linspace(0.1, 1.0, 10)]
    pure_devices += [est.pure_part(m) for m in device_corpus[:50]]
    agree = 0
    for m in pure_devices:
        for s in range(1, m.n_outcomes + 1):
            pair = est.estimate_pair(m, s)
            if pair.degenerate:
                continue
            assert overlap2(pair.chi_pre, pair.chi_post) >= 1.0 - 1e-9
            agree += 1
    _passed(
        6,
        started,
        f"links hold on {checked} outcomes ({skipped} degenerate skipped); "
        f"pre=post on {agree} pure-device outcomes",
    )


def test_criterion_7_unsharp_family_saturates_bound():
    started = time.perf_counter()
    for lam in np.round(np.arange(0.0, 1.01, 0.1), 10):
        report = est.check_bound(catalog.unsharp_qubit(float(lam)))
        assert abs(report.bound_lhs - report.bound_rhs) <= 1e-9
    _passed(7, started, "unsharp family saturates the bound for lambda in {0, 0.1, ..., 1}")


def test_criterion_8_rank_one_devices():
    started = time.perf_counter()
    posts = list(haar.haar_states(2, 4, seed=60_000))
    m = catalog.tetrahedron_rank_one(posts)
    assert abs(est.check_bound(m).g_post - 1.0) <= 1e-10
    assert abs(est.check_bound(m).g_pre - 2.0 / 3.0) <= 1e-10
    gen = haar.RngStream(60_001).generator()
    for psi in haar.haar_states(2, 1000, seed=60_002):
        s, collapsed = m.sample_outcome(psi, gen)
        assert overlap2(collapsed, posts[s - 1]) >= 1.0 - 1e-10
    _passed(8, started, "rank-one tetrahedron: G_post=1, G_pre=2/3, collapse lands on posts")


def test_criterion_9_domain_curves(tmp_path, capsys):
    started = time.perf_counter()
    out = tmp_path / "curves.csv"
    assert cli.main(["domain", "--d", "2,4,8,16", "--steps", "33", "--out", str(out)]) == 0
    by_dim = {}
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "d,g_post,max_f"
    for line in lines[1:]:
        d, g, f = line.split(",")
        by_dim.setdefault(int(d), []).append((float(g), float(f)))
    for d, rows in by_dim.items():
        assert len(rows) == 33
        assert abs(rows[0][0] - 1.0 / d) <= 1e-12
        assert abs(rows[0][1] - 1.0) <= 1e-12
        assert abs(rows[-1][0] - 1.0) <= 1e-12
        assert abs(rows[-1][1] - 2.0 / (d + 1)) <= 1e-12
        fs = [f for _, f in rows]
        assert all(a >= b - 1e-14 for a, b in zip(fs, fs[1:]))
    _passed(9, started, "domain curves d in {2,4,8,16}: exact endpoints, monotone shape")
