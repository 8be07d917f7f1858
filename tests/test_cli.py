import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import build_note, overlap2
from qmeter import catalog, cli, estimator, haar
from qmeter.errors import IncompleteDevice
from qmeter.matkernel import canonicalize_phase
from qmeter.measurement import Measurement, as_state


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, env=None):
    """Run ``python *argv`` with this checkout's ``qmeter`` on the path and the variables in ``env`` set."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **(env or {}), "PYTHONPATH": path}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60)


def write_catalog(capsys, tmp_path, name, *argv):
    path = tmp_path / name
    code, _, err = run(capsys, "catalog", *argv, "--out", str(path))
    assert code == 0, err
    return str(path)


class TestValidate:
    def test_projective_ok(self, capsys, tmp_path):
        path = write_catalog(capsys, tmp_path, "proj.json", "projective", "--d", "3")
        code, out, _ = run(capsys, "validate", path, "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["ok"] and rec["defect"] <= 1e-15 and rec["n_outcomes"] == 3

    def test_scaled_device_incomplete(self, capsys, tmp_path):
        spec = {
            "dim": 2,
            "kraus": [[[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]]],
        }
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "validate", str(path), "--json")
        assert code == 2
        rec = json.loads(out)
        assert not rec["ok"]
        assert rec["defect"] == pytest.approx(0.19 * np.sqrt(2), abs=1e-12)

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2, "kraus": [')
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "line" in err and "column" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 1

    def test_bad_structure(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "kraus": [[[0.0, 1.0]]]}))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1

    def test_env_var_tolerance(self, capsys, tmp_path, monkeypatch):
        spec = {
            "dim": 2,
            "kraus": [[[[0.999, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
        }
        path = tmp_path / "slightly_off.json"
        path.write_text(json.dumps(spec))
        code, _, _ = run(capsys, "validate", str(path))
        assert code == 2
        monkeypatch.setenv("QMETER_DEFAULT_TOLERANCE", "0.1")
        code, _, _ = run(capsys, "validate", str(path))
        assert code == 0
        # explicit flag wins over the env var
        code, _, _ = run(capsys, "validate", str(path), "--tolerance", "1e-10")
        assert code == 2


class TestEstimate:
    def test_unsharp_outcome_one(self, capsys, tmp_path):
        path = write_catalog(capsys, tmp_path, "unsharp.json", "unsharp", "--lambda", "0.6")
        code, out, _ = run(capsys, "estimate", path, "--outcome", "1", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["a_max"] == pytest.approx(0.8, abs=1e-12)
        assert not rec["degenerate"]
        for key in ("chi_pre", "chi_post"):
            vec = np.array([complex(re, im) for re, im in rec[key]])
            assert overlap2(vec, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_projective_second_outcome(self, capsys, tmp_path):
        path = write_catalog(capsys, tmp_path, "proj.json", "projective", "--d", "3")
        code, out, _ = run(capsys, "estimate", path, "--outcome", "2", "--json")
        rec = json.loads(out)
        vec = np.array([complex(re, im) for re, im in rec["chi_pre"]])
        assert overlap2(vec, [0.0, 1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_tetrahedron_supplied_posts(self, capsys, tmp_path):
        path = write_catalog(
            capsys, tmp_path, "tetra.json", "tetrahedron", "--post-seed", "5"
        )
        code, out, _ = run(capsys, "estimate", path, "--outcome", "3", "--json")
        rec = json.loads(out)
        pre = np.array([complex(re, im) for re, im in rec["chi_pre"]])
        post = np.array([complex(re, im) for re, im in rec["chi_post"]])
        expected_pre = catalog.bloch_state(catalog.TETRAHEDRON_DIRECTIONS[2])
        expected_post = haar.haar_states(2, 4, seed=5)[2]
        assert overlap2(pre, expected_pre) == pytest.approx(1.0, abs=1e-9)
        assert overlap2(post, expected_post) == pytest.approx(1.0, abs=1e-9)

    def test_invalid_outcome(self, capsys, tmp_path):
        path = write_catalog(capsys, tmp_path, "proj.json", "projective", "--d", "2")
        code, _, err = run(capsys, "estimate", path, "--outcome", "5")
        assert code == 2

    def test_kicked_identity_tie_break_by_value(self, capsys, tmp_path):
        # The whole space is the top eigenspace: chi_pre is e_1, and chi_post the phase-canonical first kick column.
        path = write_catalog(capsys, tmp_path, "ki.json", "identity", "--d", "3", "--kick-seed", "2")
        code, out, err = run(capsys, "estimate", path, "--outcome", "1", "--json")
        assert code == 0, err
        rec = json.loads(out)
        with open(path) as fh:
            kick = np.array(json.load(fh)["kraus"][0], dtype=np.float64) @ [1.0, 1j]
        col = kick[:, 0]
        lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert np.abs(np.array(rec["chi_pre"]) @ [1.0, 1j] - [1.0, 0.0, 0.0]).max() <= 1e-12
        assert np.abs(np.array(rec["chi_post"]) @ [1.0, 1j] - col * lead.conjugate() / abs(lead)).max() <= 1e-12


class TestFidelities:
    def test_projective_d3_values(self, capsys, tmp_path):
        path = write_catalog(capsys, tmp_path, "proj3.json", "projective", "--d", "3")
        code, out, _ = run(capsys, "fidelities", path, "--json")
        rec = json.loads(out)
        assert rec["g_post"] == pytest.approx(1.0, abs=1e-12)
        assert rec["g_pre"] == pytest.approx(0.5, abs=1e-12)
        assert rec["f"] == pytest.approx(0.5, abs=1e-12)
        assert rec["bound_satisfied"]

    def test_identity_values(self, capsys, tmp_path):
        path = write_catalog(capsys, tmp_path, "id.json", "identity", "--d", "2")
        code, out, _ = run(capsys, "fidelities", path, "--json")
        rec = json.loads(out)
        assert rec["g_post"] == pytest.approx(0.5, abs=1e-12)
        assert rec["g_pre"] == pytest.approx(0.5, abs=1e-12)
        assert rec["f"] == pytest.approx(1.0, abs=1e-12)

    def test_montecarlo_agreement(self, capsys, tmp_path):
        path = write_catalog(capsys, tmp_path, "unsharp.json", "unsharp", "--lambda", "0.6")
        code, out, _ = run(capsys, "fidelities", path, "--montecarlo", "20000", "--seed", "3", "--json")
        rec = json.loads(out)
        mc = rec["montecarlo"]
        assert mc["agrees"]
        for name in ("g_post", "g_pre", "f"):
            assert mc[name]["agrees"]
            window = max(5 * mc[name]["std_error"], 1e-3)
            assert abs(mc[name]["mean"] - mc[name]["analytic"]) <= window

    def test_montecarlo_reuses_the_estimate_pairs(self, capsys, tmp_path, monkeypatch):
        # All outcomes' estimates come from one stacked pass that serves both the report and the MC guesses.
        path = write_catalog(capsys, tmp_path, "kid.json", "identity", "--d", "3", "--kick-seed", "2")
        m = cli.load_device(path)
        post = [estimator.best_post_estimate(m, s) for s in range(1, m.n_outcomes + 1)]
        pre = [estimator.best_pre_estimate(m, s) for s in range(1, m.n_outcomes + 1)]
        expected = haar.mc_fidelities(m, post, pre, 500, 4)
        calls = []
        original_pairs, original_pair = estimator.estimate_pairs, estimator.estimate_pair

        def counting_pairs(m):
            calls.append("estimate_pairs")
            return original_pairs(m)

        def counting_pair(m, s):
            calls.append("estimate_pair")
            return original_pair(m, s)

        monkeypatch.setattr(estimator, "estimate_pairs", counting_pairs)
        monkeypatch.setattr(estimator, "estimate_pair", counting_pair)
        code, out, _ = run(capsys, "fidelities", path, "--montecarlo", "500", "--seed", "4", "--json")
        assert code == 0
        assert calls == ["estimate_pairs"]
        mc = json.loads(out)["montecarlo"]
        for name, result in zip(("g_post", "g_pre", "f"), expected):
            assert (mc[name]["mean"], mc[name]["std_error"]) == (result.mean, result.std_error)

    def test_roundtrip_at_full_precision(self, capsys, tmp_path):
        path = write_catalog(capsys, tmp_path, "rand.json", "random", "--d", "3", "--n", "4", "--seed", "11")
        code, out, _ = run(capsys, "fidelities", path, "--json")
        rec = json.loads(out)
        again = json.loads(json.dumps(rec))
        assert again == rec

    @pytest.mark.parametrize(
        "family",
        [
            ["identity", "--d", "3", "--kick-seed", "2"],
            ["random", "--d", "4", "--n", "4", "--seed", "1", "--kick-seed", "3"],
        ],
        ids=["kicked_identity", "kicked_random"],
    )
    def test_records_match_estimate(self, capsys, tmp_path, family):
        # One stacked pass reports every outcome: each record is estimate's for that outcome, compared by value.
        path = write_catalog(capsys, tmp_path, "dev.json", *family)
        code, out, err = run(capsys, "fidelities", path, "--json")
        assert code == 0, err
        report = json.loads(out)
        assert len(report["outcomes"]) == report["n_outcomes"]
        for s, rec in enumerate(report["outcomes"], 1):
            code, out, err = run(capsys, "estimate", path, "--outcome", str(s), "--json")
            assert code == 0, err
            single = json.loads(out)
            assert single.pop("command") == "estimate"
            assert single == rec, s
            assert report["per_outcome_a_max"][s - 1] == rec["a_max"]


class TestSimulate:
    def test_projective_eigenstate_all_first_outcome(self, capsys, tmp_path):
        dev = write_catalog(capsys, tmp_path, "proj.json", "projective", "--d", "2")
        state = tmp_path / "zero.json"
        state.write_text(json.dumps({"dim": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
        code, out, _ = run(
            capsys, "simulate", dev, "--state", str(state), "--shots", "50", "--json"
        )
        rec = json.loads(out)
        assert all(shot["outcome"] == 1 for shot in rec["shots"])
        assert rec["frequencies"] == [1.0, 0.0]

    def test_fair_coin_frequency(self, capsys, tmp_path):
        dev = write_catalog(capsys, tmp_path, "proj.json", "projective", "--d", "2")
        state = tmp_path / "plus.json"
        amp = 1.0 / np.sqrt(2.0)
        state.write_text(json.dumps({"dim": 2, "amplitudes": [[amp, 0.0], [amp, 0.0]]}))
        code, out, _ = run(
            capsys, "simulate", dev, "--state", str(state), "--shots", "100000",
            "--seed", "7", "--json",
        )
        rec = json.loads(out)
        assert abs(rec["frequencies"][0] - 0.5) < 0.01

    def test_fixed_seed_identical_logs(self, capsys, tmp_path):
        dev = write_catalog(capsys, tmp_path, "unsharp.json", "unsharp", "--lambda", "0.4")
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "simulate", dev, "--haar", "--seed", "9", "--shots", "200")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_dimension_mismatch_exits_2(self, capsys, tmp_path):
        dev = write_catalog(capsys, tmp_path, "proj3.json", "projective", "--d", "3")
        state = tmp_path / "qubit.json"
        state.write_text(json.dumps({"dim": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
        code, _, _ = run(capsys, "simulate", dev, "--state", str(state), "--shots", "1")
        assert code == 2

    def test_state_file_by_value(self, capsys, tmp_path):
        # A general state through the one Born product: values, not a digest, so the check holds on any build.
        dev = write_catalog(capsys, tmp_path, "dev.json", "random", "--d", "4", "--n", "4", "--seed", "1")
        z = np.array([1, 2j, -1, 0.5 - 1j])
        z /= np.linalg.norm(z)
        state = tmp_path / "st.json"
        state.write_text(json.dumps({"dim": 4, "amplitudes": [[x.real, x.imag] for x in z.tolist()]}))
        code, out, err = run(capsys, "simulate", dev, "--state", str(state), "--seed", "1", "--shots", "1000", "--json")
        assert code == 0, err
        rec = json.loads(out)
        # check_values builds psi from the printed state, so tie that state to the file first.
        assert np.abs(np.array(rec["state"]) @ [1, 1j] - z).max() <= 1e-15
        self.check_values(rec, dev, shots=1000)

    # sha256 of stdout as the shot-by-shot simulator printed it (numpy 2.4.6,
    # OpenBLAS 0.3.31, x86-64). Outputs are bit-reproducible within one
    # numpy/BLAS build, so another build may need its own digests.
    PINNED_DIGESTS = {
        ("unsharp", False): "fe1755470b7c33e522fea0e645ed01310f19c8b0f57a3b55562b1a613d9ae0da",
        ("unsharp", True): "930cfe13b6e2b2060297d46f6395789dcb4d59bc1dfe4ef518e50224fb81752a",
        ("projective", False): "f1b8d6ec3637ffcf56398bd622b8014e7fcde6e23067b858d0bf4a23d1db9bc4",
        ("projective", True): "e72cff5c9e437dd46bda399c192ae0cb2885f41ba295fd0b9ff960a977bf7291",
        ("random", False): "1000fdff260aff88025eb79912a3494e88c72d6c5a35110a3c90fffb7abdcf16",
        ("random", True): "cc3b8686652020a212b6c6496e7c8e26b99269a36e511b5205302e64d4a07bc1",
    }

    # Each pinned case's catalog flags and simulate flags; the state file is read from the working directory.
    PINNED_CASES = {
        "unsharp": (["unsharp", "--lambda", "0.4"], ["--haar", "--seed", "9", "--shots", "200"]),
        # |0> on a 3-outcome projective device: outcomes 2 and 3 have p = 0.
        "projective": (["projective", "--d", "3"], ["--state", "zero.json", "--seed", "2", "--shots", "50"]),
        "random": (["random", "--d", "4", "--n", "4", "--seed", "5"], ["--haar", "--seed", "11", "--shots", "300"]),
    }
    ZERO_STATE = {"dim": 3, "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}

    @pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
    @pytest.mark.parametrize("case", list(PINNED_CASES))
    def test_stdout_matches_pinned_digest(self, capsys, tmp_path, monkeypatch, case, as_json):
        monkeypatch.chdir(tmp_path)  # the JSON record names the state file as given
        (tmp_path / "zero.json").write_text(json.dumps(self.ZERO_STATE))
        family, flags = self.PINNED_CASES[case]
        dev = write_catalog(capsys, tmp_path, "dev.json", *family)
        code, out, err = run(capsys, "simulate", dev, *flags, *(["--json"] if as_json else []))
        assert code == 0, err
        if as_json:  # the values first, so a digest that fails on another build says whether they moved
            self.check_values(json.loads(out), dev, shots=int(flags[flags.index("--shots") + 1]))
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_DIGESTS[case, as_json], build_note()

    @staticmethod
    def check_values(rec, dev, shots):
        """Plain numpy on the written spec: counts add up, no impossible outcome fires, and every
        ``post_state`` is the phase-canonical ``M_s psi / ||M_s psi||``."""
        with open(dev) as fh:
            pairs = np.array(json.load(fh)["kraus"], dtype=np.float64)
        kraus = pairs[..., 0] + 1j * pairs[..., 1]
        psi = np.array(rec["state"]) @ [1.0, 1j]
        collapsed = kraus @ psi
        p = np.sum(np.abs(collapsed) ** 2, axis=1)
        assert sum(rec["counts"]) == len(rec["shots"]) == shots
        outcomes = [shot["outcome"] for shot in rec["shots"]]
        assert np.bincount(outcomes, minlength=len(p) + 1)[1:].tolist() == rec["counts"]
        for shot in rec["shots"]:
            s = shot["outcome"]
            assert p[s - 1] > 1e-14, (shot, p)
            expected = collapsed[s - 1] / np.sqrt(p[s - 1])
            lead = expected[np.flatnonzero(np.abs(expected) > 1e-12)[0]]
            expected *= lead.conjugate() / abs(lead)
            assert np.abs(np.array(shot["post_state"]) @ [1.0, 1j] - expected).max() <= 1e-12, shot


def reference_simulate_record(device, seed, shots, state=None) -> dict:
    """The ``simulate --json`` record built as one dict, with one dict per shot."""
    m = cli.load_device(device)
    if state is not None:
        psi = as_state(cli.load_state(state, m.dim), m.dim)
        source = {"source": "file", "path": state}
    else:
        psi = haar.haar_state(m.dim, haar.RngStream(seed, 0))
        source = {"source": "haar", "seed": seed}
    outcomes, posts = m.sample_outcomes(psi, haar.RngStream(seed, 1).generator(), shots)
    counts = np.bincount(outcomes - 1, minlength=m.n_outcomes)
    return {
        "command": "simulate",
        "shots": [
            {"shot": shot, "outcome": s, "post_state": cli._pairs(canonicalize_phase(posts[s]))}
            for shot, s in enumerate(outcomes.tolist(), 1)
        ],
        "counts": [int(c) for c in counts],
        "frequencies": [float(f) for f in counts / shots],
        "state": cli._pairs(canonicalize_phase(psi)),
        **source,
    }


def assert_same_text(got: str, want: str, what: object = "") -> None:
    """String equality that reports the first difference: pytest's diff of a 100 KB line takes minutes."""
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        lo = max(i - 30, 0)
        pytest.fail(f"{what} differs at char {i}: {got[lo:i + 30]!r} != {want[lo:i + 30]!r}")


class TestSimulateEncoding:
    """``simulate`` output against ``json.dumps`` of the whole record."""

    CASES = {
        "labelled": (["projective", "--d", "3"], None, 3, 400),
        "unlabelled": (["random", "--d", "5", "--n", "12", "--seed", "2"], None, 4, 500),
        "one_shot": (["random", "--d", "4", "--n", "4", "--seed", "1"], None, 1, 1),
        "one_distinct_outcome": (["projective", "--d", "3"], [1, 0, 0], 6, 30),
        "escaped_path": (["projective", "--d", "2"], [0.6, 0.8], 8, 25),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_reference_encoder(self, capsys, tmp_path, monkeypatch, case):
        family, amplitudes, seed, shots = self.CASES[case]
        monkeypatch.chdir(tmp_path)  # the record names the state file as given
        dev = write_catalog(capsys, tmp_path, "dev.json", *family)
        state = None
        argv = ["simulate", dev, "--seed", str(seed), "--shots", str(shots)]
        if amplitudes is None:
            argv.append("--haar")
        else:
            state = 'st"até-ψ.json' if case == "escaped_path" else "zero.json"
            (tmp_path / state).write_text(
                json.dumps({"dim": len(amplitudes), "amplitudes": [[a, 0.0] for a in amplitudes]})
            )
            argv += ["--state", state]
        ref = reference_simulate_record(dev, seed, shots, state)
        if case == "one_distinct_outcome":
            assert {shot["outcome"] for shot in ref["shots"]} == {1}

        code, out, err = run(capsys, *argv, "--json")
        assert code == 0, err
        assert_same_text(out, json.dumps(ref, allow_nan=False) + "\n")
        assert json.loads(out) == ref

        code, out, err = run(capsys, *argv)
        assert code == 0, err
        log = out.splitlines()[:shots]
        assert log == [
            f"{shot['shot']},{shot['outcome']},{json.dumps(shot['post_state'])}"
            for shot in ref["shots"]
        ]


class TestSharedParser:
    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_failed_parse_leaves_no_state(self, capsys, tmp_path):
        dev = write_catalog(capsys, tmp_path, "u.json", "unsharp", "--lambda", "0.4")
        good = ["simulate", dev, "--haar", "--seed", "3", "--shots", "20"]
        _, alone, _ = run(capsys, *good)
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", dev])  # neither --state nor --haar
        assert exc.value.code == 2
        capsys.readouterr()
        code, after, _ = run(capsys, *good)
        assert code == 0 and after == alone

    def test_defaults_do_not_leak_between_calls(self, capsys, tmp_path):
        dev = write_catalog(capsys, tmp_path, "u.json", "unsharp", "--lambda", "0.4")
        _, explicit, _ = run(capsys, "simulate", dev, "--haar", "--seed", "0", "--shots", "20")
        code, out, _ = run(capsys, "simulate", dev, "--haar", "--seed", "5", "--shots", "20", "--json")
        assert code == 0 and out.startswith("{")
        code, out, _ = run(capsys, "simulate", dev, "--haar", "--shots", "20")
        assert code == 0 and out == explicit and not out.startswith("{")


class TestPinnedOutputs:
    """Spec files and reports pinned byte for byte (numpy 2.4.6, OpenBLAS 0.3.31, x86-64).

    The devices cover n >= 8 outcomes (where numpy's pairwise summation and a
    Python ``sum`` can differ), a degenerate kicked identity (the tie-break
    path), a rank-one device and a kicked unsharp qubit.
    """

    DEVICES = {
        "random_d16": ["random", "--d", "16", "--n", "4", "--seed", "1000"],
        "random_n12": ["random", "--d", "5", "--n", "12", "--seed", "1"],
        "kicked_identity": ["identity", "--d", "3", "--kick-seed", "2"],
        "tetrahedron": ["tetrahedron", "--post-seed", "4"],
        "kicked_unsharp": ["unsharp", "--lambda", "0.3", "--kick-seed", "5"],
    }
    COMMANDS = {
        "validate": ["validate", "--json"],
        "fidelities": ["fidelities", "--json"],
        "estimate": ["estimate", "--outcome", "1", "--json"],
        "montecarlo": ["fidelities", "--montecarlo", "2000", "--seed", "7", "--json"],
    }
    PINNED_DIGESTS = {
        ("random_d16", "spec"): "7abe4f936a83a5680a333bd356b2172657e38ac8e3e8cecd85f8d19ec0211ea5",
        ("random_d16", "validate"): "1823c04f32e8859243f04662e0066466fdd819649a37c7e9177197c9b56aec93",
        ("random_d16", "fidelities"): "881d5fc02b32a86223b8b63f1ba92af3723f9a42b91312a6a91f6dfcbd0645b6",
        ("random_d16", "estimate"): "6d0671ec10b236be95c3c724e45eb97f708474ecefa6b89236ae68bc89a2ba52",
        ("random_d16", "montecarlo"): "031aeb7d17a3bc42bcea4fb1a39a105b348f5fd6cc011cf9ee6daf8aa1880bc3",
        ("random_n12", "spec"): "04ec60964bfdf446026f92f3f8de34c3fe83ee3e647a2933894b7ea0a38d685f",
        ("random_n12", "validate"): "6052989cf3870a7f5e4c92250b138f96296a27fed43dda7736a2c5eeaf03a340",
        ("random_n12", "fidelities"): "e11e2acf8df93baae1607640d047104eb1a896083340d68ffca6a14a4e05a753",
        ("random_n12", "estimate"): "366e8e870f2d87ff1702b4506231d55cef38e803e8bc1e68e3013248c9325664",
        ("random_n12", "montecarlo"): "a95abddb0aaabfd07ef004477736ed47f93f97b1e9efe93fc0881a6c6ac0ef21",
        ("kicked_identity", "spec"): "d538b30cb8423a5ce9a07460ca2170f9e092c3989038737d04e17af8aa41fd4b",
        ("kicked_identity", "validate"): "92878231374792db8e4cc72ff7f56b0d69b100004bca1122c581a4848027ebe1",
        ("kicked_identity", "fidelities"): "b4792822e3f3a4994c4fac54f9fb4cd978bc31c1e268984f445e5ae2c6d84a51",
        ("kicked_identity", "estimate"): "a7bb78275a8d67e258bed4033537ac1a9f256d74ff1ac74346e99b42a82f857a",
        ("kicked_identity", "montecarlo"): "2c9d3bf23410e5097c6dabcc2f46e5ec84f4213e4f0a4e8ee69392f26b25c14a",
        ("tetrahedron", "spec"): "10eba3d589217d812227eadee945ebd5284462fef0c2fcc7b739a95bdeda5c79",
        ("tetrahedron", "validate"): "08de8f46a98a802f1b9edb8fa92021eb6a15ff746114a517f0799cfc838f4e81",
        ("tetrahedron", "fidelities"): "9090960c146c713d3ccaa8f7e6b48cbedc9fc513772a197fc7082e9bebc43ffe",
        ("tetrahedron", "estimate"): "a403b0596b0fc6585fcd671f5ecbfcd7610edd96634ac243aa918f01400e1b54",
        ("tetrahedron", "montecarlo"): "504b7fc095663055b1a353ae866a97c7872314aeb0cd15e56cf682b4f2d00c93",
        ("kicked_unsharp", "spec"): "9105f818ed9ecc0291a161a5ce11ec45fa87ed370bf9e2c4693bfce7972a4887",
        ("kicked_unsharp", "validate"): "a04de58f73a287d97249bc61d7d3234bc46c32e3ab4e01b0ae54ee5772481c76",
        ("kicked_unsharp", "fidelities"): "debfc971770d8dfa06b7c05a1a9669a40c6e78c0337f778a9e78196d12213dd3",
        ("kicked_unsharp", "estimate"): "8a97f2e6701f0dacee760c8927fda3f7200c8d273a73ca5da4e9d4dc0b9ab978",
        ("kicked_unsharp", "montecarlo"): "7342444ea81ae1576ea094a7a52a3e26e42333234e033c61999085aca5b465c5",
    }

    @pytest.mark.parametrize("device", list(DEVICES))
    def test_outputs_match_pinned_digests(self, capsys, tmp_path, device):
        path = write_catalog(capsys, tmp_path, "dev.json", *self.DEVICES[device])
        with open(path, "rb") as fh:
            outputs = {"spec": fh.read()}
        for name, (command, *flags) in self.COMMANDS.items():
            code, out, err = run(capsys, command, path, *flags)
            assert code == 0, err
            outputs[name] = out.encode()
        # The values first, from the written spec alone: a digest that fails on another build then
        # says whether the numbers moved or only their last bits.
        spec, report = json.loads(outputs["spec"]), json.loads(outputs["fidelities"])
        pairs = np.array(spec["kraus"], dtype=np.float64)
        kraus, d = pairs[..., 0] + 1j * pairs[..., 1], spec["dim"]
        g_post = np.linalg.eigvalsh(kraus.conj().swapaxes(1, 2) @ kraus)[:, -1].sum() / d
        f = (d + np.sum(np.abs(np.trace(kraus, axis1=1, axis2=2)) ** 2)) / (d * (d + 1))
        for key, value in (("g_post", g_post), ("g_pre", (1.0 + g_post) / (d + 1)), ("f", f)):
            assert report[key] == pytest.approx(value, abs=1e-12), f"{key}; {build_note()}"
        for name, data in outputs.items():
            assert hashlib.sha256(data).hexdigest() == self.PINNED_DIGESTS[device, name], f"{name}; {build_note()}"


class TestOneBlasThread:
    """Every pinned-digest command prints the same bytes with OpenBLAS held to one thread as in-process.

    The pins hold only on the build they were recorded on; this comparison holds on any build. One child
    interpreter runs the commands with ``OPENBLAS_NUM_THREADS=1``, and this process runs them again under its
    own BLAS setting, each in a directory of its own laid out alike. The last Monte Carlo run has at least two
    blocks, and both sides report two usable CPUs, so the two-worker schedule runs in both.
    """

    CHILD = """
import contextlib, io, json, os, sys
from qmeter import cli, haar
haar._usable_cpus = lambda: 2
os.chdir(sys.argv[1])
outputs = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    outputs.append([code, out.getvalue()])
print(json.dumps(outputs))
"""
    SAMPLES = 5000  # at least two Monte Carlo blocks

    @classmethod
    def commands(cls):
        """The catalog, report and simulate commands of the pinned-digest tests, with relative paths."""
        argv = []
        for device, family in TestPinnedOutputs.DEVICES.items():
            argv.append(["catalog", *family, "--out", f"{device}.json"])
            argv += [[command, f"{device}.json", *flags] for command, *flags in TestPinnedOutputs.COMMANDS.values()]
        for case, (family, flags) in TestSimulate.PINNED_CASES.items():
            argv.append(["catalog", *family, "--out", f"{case}.json"])
            argv += [["simulate", f"{case}.json", *flags, *as_json] for as_json in ([], ["--json"])]
        argv.append(["catalog", "random", "--d", "8", "--n", "4", "--seed", "8", "--out", "d8.json"])
        argv.append(["fidelities", "d8.json", "--montecarlo", str(cls.SAMPLES), "--seed", "3", "--json"])
        return argv

    def test_matches_in_process_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(haar, "_usable_cpus", lambda: 2)
        assert len(list(haar._blocks(self.SAMPLES))) >= 2
        argv = self.commands()
        here, child = tmp_path / "in_process", tmp_path / "one_thread"
        for path in (here, child):
            path.mkdir()
            (path / "zero.json").write_text(json.dumps(TestSimulate.ZERO_STATE))
        proc = run_module(
            "-W", "error::RuntimeWarning", "-c", self.CHILD, str(child), json.dumps(argv),
            env={"OPENBLAS_NUM_THREADS": "1"},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        monkeypatch.chdir(here)
        for command, (child_code, child_out) in zip(argv, json.loads(proc.stdout), strict=True):
            code, out, err = run(capsys, *command)
            assert (child_code, code) == (0, 0), err
            assert_same_text(child_out, out, command)
        # The spec files, written by the catalog commands.
        for path in sorted(here.iterdir()):
            assert (child / path.name).read_bytes() == path.read_bytes(), path.name


class TestDomain:
    def test_qubit_three_steps(self, capsys):
        code, out, _ = run(capsys, "domain", "--d", "2", "--steps", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,g_post,max_f"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[1] for r in rows] == ["0.5", "0.75", "1.0"]
        expected_mid = (1.0 + (np.sqrt(0.75) + np.sqrt(0.25)) ** 2) / 3
        assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-12)
        assert float(rows[1][2]) == pytest.approx(expected_mid, abs=1e-15)
        assert float(rows[2][2]) == pytest.approx(2.0 / 3, abs=1e-15)

    def test_curve_endpoints_all_dims(self, capsys):
        code, out, _ = run(capsys, "domain", "--d", "2,4,8,16", "--steps", "5")
        lines = out.strip().splitlines()[1:]
        by_dim = {}
        for line in lines:
            d, g, f = line.split(",")
            by_dim.setdefault(d, []).append((float(g), float(f)))
        for d_str, rows in by_dim.items():
            d = int(d_str)
            assert rows[0][0] == pytest.approx(1.0 / d, abs=1e-15)
            assert rows[0][1] == pytest.approx(1.0, abs=1e-12)
            assert rows[-1][0] == 1.0
            assert rows[-1][1] == pytest.approx(2.0 / (d + 1), abs=1e-12)
            fs = [f for _, f in rows]
            assert all(a >= b - 1e-14 for a, b in zip(fs, fs[1:]))

    def test_infinite_dimension_curve(self, capsys):
        code, out, _ = run(capsys, "domain", "--d", "inf", "--steps", "4")
        lines = out.strip().splitlines()[1:]
        for line in lines:
            d, g, f = line.split(",")
            assert d == "inf"
            assert float(f) == pytest.approx(1.0 - float(g), abs=1e-15)

    def test_bad_dimension_exits_2(self, capsys):
        code, _, err = run(capsys, "domain", "--d", "zebra")
        assert code == 2
        code, _, err = run(capsys, "domain", "--d", "1")
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "domain", "--d", "2", "--steps", "3", "--out", str(path))
        assert code == 0 and out == ""
        text = path.read_text()
        assert text.startswith("d,g_post,max_f\n")
        assert text.endswith("\n") and "\r" not in text


class TestCatalogCommand:
    def test_written_spec_revalidates(self, capsys, tmp_path):
        for args in (
            ("projective", "--d", "4"),
            ("identity", "--d", "3"),
            ("unsharp", "--lambda", "0.25"),
            ("random", "--d", "3", "--n", "5", "--seed", "7"),
            ("tetrahedron",),
            ("tetrahedron", "--post-seed", "2"),
            ("random", "--d", "2", "--n", "3", "--seed", "1", "--kick-seed", "4"),
        ):
            path = write_catalog(capsys, tmp_path, "dev.json", *args)
            code, _, err = run(capsys, "validate", path)
            assert code == 0, (args, err)

    def test_random_catalog_byte_identical(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "catalog", "random", "--d", "3", "--n", "5", "--seed", "7", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_spec_roundtrip_exact(self, capsys, tmp_path):
        devices = {
            "proj.json": catalog.projective(3),
            "ident.json": catalog.identity_device(4),
            "unsharp.json": catalog.unsharp_qubit(0.37),
            "rand.json": catalog.random_device(4, 3, seed=19),
            "tetra.json": catalog.tetrahedron_rank_one(),
            "kicked.json": catalog.with_kicks(
                catalog.unsharp_qubit(0.5),
                [haar.haar_isometry(2, 2, haar.RngStream(77, s)) for s in range(2)],
            ),
        }
        for name, m in devices.items():
            path = tmp_path / name
            cli.write_device(m, str(path))
            loaded = cli.load_device(str(path))
            assert loaded.dim == m.dim and loaded.n_outcomes == m.n_outcomes
            for s in range(1, m.n_outcomes + 1):
                assert np.linalg.norm(loaded.kraus_op(s) - m.kraus_op(s)) == 0.0

    def test_unknown_family_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["catalog", "nonsense", "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert exit_info.value.code == 2 and "invalid choice: 'nonsense'" in err
        assert all(family in err for family in cli.FAMILIES)


def extreme_floats():
    """Not a valid device (1e300 overflows M^dag M): the writer formats any (n, d, d) stack."""
    kraus = np.zeros((1, 2, 2), dtype=np.complex128)
    kraus.real = [[1.0, -0.0], [5e-324, 1e300]]
    kraus.imag = [[-0.0, 5e-324], [3.0, -2.0]]
    assert np.signbit(kraus.real[0, 0, 1]) and np.signbit(kraus.imag[0, 0, 0])
    return SimpleNamespace(kraus=kraus, labels=None)


class TestWriteDevice:
    """``write_device`` writes the bytes of ``json.dumps(record, indent=1)`` and a newline."""

    @staticmethod
    def oracle(m) -> str:
        kraus = np.asarray(m.kraus)
        record = {"dim": kraus.shape[1], "kraus": np.stack([kraus.real, kraus.imag], -1).tolist()}
        if m.labels is not None:
            record["labels"] = list(m.labels)
        return json.dumps(record, indent=1) + "\n"

    CORPUS = {
        "projective_3": lambda: catalog.projective(3),
        "identity_1": lambda: catalog.identity_device(1),
        "identity_4": lambda: catalog.identity_device(4),
        "unsharp": lambda: catalog.unsharp_qubit(0.37),
        "tetrahedron": lambda: catalog.tetrahedron_rank_one(),
        "tetrahedron_posts": lambda: catalog.tetrahedron_rank_one(list(haar.haar_states(2, 4, 4))),
        "kicked_unsharp": lambda: catalog.with_kicks(
            catalog.unsharp_qubit(0.5), [haar.haar_isometry(2, 2, haar.RngStream(77, s)) for s in range(2)]
        ),
        **{
            f"random_d{d}_n{n}": (lambda d=d, n=n: catalog.random_device(d, n, seed=d + n))
            for d in (2, 3, 16, 64)
            for n in (1, 4, 12)
        },
        "extreme_floats": extreme_floats,
        "escaped_labels": lambda: Measurement(
            np.eye(4)[:, :, None] * np.eye(4)[:, None, :], labels=['"q"', "back\\slash", "new\nline", "Grüße ☃"]
        ),
    }

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_matches_stdlib_encoder(self, tmp_path, name):
        m = self.CORPUS[name]()
        path = tmp_path / "dev.json"
        cli.write_device(m, str(path))
        assert path.read_bytes() == self.oracle(m).encode()

    def test_failed_build_leaves_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "dev.json"
        cli.write_device(catalog.random_device(3, 4, seed=1), str(path))
        before = path.read_bytes()

        def broken(a):
            raise RuntimeError("formatter failed")

        monkeypatch.setattr(cli, "_pair_texts", broken)
        with pytest.raises(RuntimeError):
            cli.write_device(catalog.projective(2), str(path))
        assert path.read_bytes() == before


class TestToleranceSource:
    """A device that fails completeness names the tolerance it exceeded and where that came from."""

    # One operator diag(0.999, 1): defect |0.999**2 - 1| ~ 2.0e-3.
    OFF = {"dim": 2, "kraus": [[[[0.999, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}

    def write(self, tmp_path, **extra):
        path = tmp_path / "off.json"
        path.write_text(json.dumps({**self.OFF, **extra}))
        return str(path)

    @pytest.mark.parametrize(
        "tolerance_field, env, tail",
        [
            (1e-3, None, "exceeds tolerance 0.001 from the spec file)"),
            (None, "1e-3", "exceeds tolerance 0.001 from QMETER_DEFAULT_TOLERANCE)"),
            (None, None, "exceeds tolerance 1e-10 from the default)"),
        ],
    )
    def test_fidelities_names_the_source(self, capsys, tmp_path, monkeypatch, tolerance_field, env, tail):
        monkeypatch.delenv("QMETER_DEFAULT_TOLERANCE", raising=False)
        if env is not None:
            monkeypatch.setenv("QMETER_DEFAULT_TOLERANCE", env)
        path = self.write(tmp_path, **({} if tolerance_field is None else {"tolerance": tolerance_field}))
        code, out, err = run(capsys, "fidelities", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: effects do not sum to identity (defect 0.001999 ") and err.endswith(tail + "\n")

    def test_load_device_argument(self, tmp_path):
        with pytest.raises(IncompleteDevice) as err:
            cli.load_device(self.write(tmp_path, tolerance=1.0), 1e-3)
        assert err.value.tolerance == 1e-3
        assert str(err.value).endswith("exceeds tolerance 0.001 from --tolerance)")

    def test_validate_stdout_unchanged(self, capsys, tmp_path):
        path = self.write(tmp_path, tolerance=0)
        defect = abs(0.999**2 - 1.0)
        code, out, err = run(capsys, "validate", path)
        assert (code, err) == (2, "")
        assert out == f"INCOMPLETE: completeness defect {defect:.17g}\n"
        code, out, _ = run(capsys, "validate", path, "--json")
        assert json.loads(out) == {"command": "validate", "ok": False, "defect": defect}


class TestAcceptedAtItsOwnTolerance:
    """A spec whose ``tolerance`` is the defect ``validate`` printed runs through every command."""

    # One operator 1 + ~1e-3 |u><u| plus rounding: the top effect eigenvalue lies a rounding step past 1 + defect.
    SPECTRUM_EDGE = {
        "dim": 2,
        "kraus": [[
            [[1.0003587382080774, -1.0631733013735185e-20], [0.00012549792317490351, 0.00018676577179462032]],
            [[0.00012549792317490351, -0.00018676577179462032], [1.0001411368543836, -9.604985584705743e-22]],
        ]],
        "tolerance": 0.0009999999999999983,
    }
    # Three equal scalars whose squares sum a rounding step past 1 + tolerance for this state.
    BORN_EDGE = {"dim": 1, "kraus": [[[[0.57735144751483, 0.0]]]] * 3, "tolerance": 4.0818424085209415e-06}
    BORN_EDGE_STATE = {"dim": 1, "amplitudes": [[0.08277720600833575, 0.9965680780385521]]}

    # The tolerance-0 identity and a state whose norm sits 1e-10 off 1, inside STATE_NORM_TOL.
    NORM_EDGE = {"dim": 2, "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]], "tolerance": 0}
    NORM_EDGE_STATE = {"dim": 2, "amplitudes": [[1.000000000099, 0.0], [0.0, 0.0]]}

    def write(self, tmp_path, name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    def test_spectrum_edge(self, capsys, tmp_path):
        path = self.write(tmp_path, "edge.json", self.SPECTRUM_EDGE)
        code, out, _ = run(capsys, "validate", path, "--json")
        assert code == 0 and json.loads(out)["defect"] == self.SPECTRUM_EDGE["tolerance"]
        kraus = np.array(self.SPECTRUM_EDGE["kraus"][0]) @ [1.0, 1j]
        u = np.linalg.eigh(kraus.conj().T @ kraus)[1][:, -1]
        state = self.write(tmp_path, "u.json", {"dim": 2, "amplitudes": [[z.real, z.imag] for z in u]})
        for argv in (["fidelities"], ["estimate", "--outcome", "1"], ["simulate", "--state", state]):
            code, _, err = run(capsys, argv[0], path, *argv[1:])
            assert (code, err) == (0, ""), argv

    def test_born_total_edge(self, capsys, tmp_path):
        path = self.write(tmp_path, "edge.json", self.BORN_EDGE)
        state = self.write(tmp_path, "state.json", self.BORN_EDGE_STATE)
        assert run(capsys, "validate", path)[0] == 0
        code, out, err = run(capsys, "simulate", path, "--state", state, "--json")
        assert (code, err) == (0, "")
        assert sum(json.loads(out)["counts"]) == 1

    def test_state_norm_edge(self, capsys, tmp_path):
        path = self.write(tmp_path, "identity.json", self.NORM_EDGE)
        state = self.write(tmp_path, "state.json", self.NORM_EDGE_STATE)
        code, out, err = run(capsys, "simulate", path, "--state", state, "--shots", "3", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["counts"] == [3]


class TestInputOutputHardening:
    def test_simulate_rejects_nonpositive_shots(self, capsys, tmp_path):
        path = write_catalog(capsys, tmp_path, "proj.json", "projective", "--d", "2")
        for shots in ("0", "-3"):
            code, out, err = run(capsys, "simulate", path, "--haar", "--shots", shots, "--json")
            assert code == 2 and out == ""
            assert "shots" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["domain", "--steps", "1"],
            ["catalog", "unsharp", "--lambda", "2"],
            ["catalog", "projective", "--d", "1"],
            ["estimate", "DEV", "--outcome", "0"],
            ["fidelities", "DEV", "--montecarlo", "10"],
            # Requests beyond memory: each asks numpy for at least 2**60 bytes at once, which no 64-bit Linux
            # maps whatever its overcommit setting.
            ["simulate", "DEV", "--haar", "--shots", str(2**57)],
            ["fidelities", "DEV", "--montecarlo", str(2**57)],
            ["domain", "--steps", str(2**58)],
        ],
        ids=lambda argv: "_".join(a.lstrip("-") for a in argv if a != "DEV"),
    )
    def test_bad_flag_reaches_its_typed_gate(self, capsys, tmp_path, argv):
        dev = write_catalog(capsys, tmp_path, "dev.json", "random", "--d", "4", "--n", "4", "--seed", "1")
        argv = [dev if a == "DEV" else a for a in argv]
        if argv[0] == "catalog":
            argv += ["--out", str(tmp_path / "bad.json")]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        assert line.startswith("error: ") and err == line + "\n"

    # 759250124 is the largest d whose (d, d) complex matrix numpy can index; it reaches the row check.
    @pytest.mark.parametrize("dim", [759250124, 759250125, 3037000500, 2**62, 10**20])
    def test_dim_is_gated_at_numpys_index_range(self, capsys, tmp_path, dim):
        path = tmp_path / "huge_dim.json"
        path.write_text(json.dumps({"dim": dim, "kraus": [[[[1, 0]]]]}))
        code, out, err = run(capsys, "validate", str(path))
        tail = "kraus operator 1: expected 759250124 rows" if dim == 759250124 else (
            f"'dim' must be an integer in [1, 759250124], got {dim}"
        )
        assert (code, out, err) == (1, "", f"error: {path}: {tail}\n")

    def test_json_emit_refuses_nan(self, capsys):
        with pytest.raises(ValueError):
            cli._emit({"frequencies": [float("nan")]}, [], as_json=True)
        assert capsys.readouterr().out == ""

    def test_untyped_error_propagates(self, capsys, tmp_path, monkeypatch):
        # Every error qmeter reports is typed; a bare ValueError is a bug and keeps its traceback.
        path = write_catalog(capsys, tmp_path, "proj.json", "projective", "--d", "2")

        def broken(m):
            raise ValueError("a bug")

        monkeypatch.setattr(estimator, "check_bound", broken)
        with pytest.raises(ValueError, match="a bug"):
            cli.main(["fidelities", path])

    def test_bool_dim_is_malformed(self, capsys, tmp_path):
        path = tmp_path / "bool_dim.json"
        path.write_text(json.dumps({"dim": True, "kraus": [[[[1.0, 0.0]]]]}))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1 and "dim" in err

    def test_non_finite_numbers_are_malformed(self, capsys, tmp_path):
        one = "[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]"
        specs = {
            "nan.json": '{"dim": 2, "kraus": [[[[NaN, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}',
            "inf.json": '{"dim": 2, "kraus": [[[[1.0, Infinity], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}',
            "tol.json": '{"dim": 2, "kraus": [' + one + '], "tolerance": -Infinity}',
            "huge.json": '{"dim": 2, "kraus": [' + one + '], "tolerance": 1' + "0" * 400 + "}",
        }
        for name, text in specs.items():
            path = tmp_path / name
            path.write_text(text)
            code, _, err = run(capsys, "validate", str(path))
            assert code == 1, name
            assert "finite" in err

    HALF_IDENTITY = {"dim": 2, "kraus": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]}

    def test_bad_tolerance_flag_exits_2(self, capsys, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(json.dumps(self.HALF_IDENTITY))
        valid = write_catalog(capsys, tmp_path, "proj.json", "projective", "--d", "2")
        for device, flag in ((path, "nan"), (valid, "inf"), (valid, "-1e-3")):
            code, out, err = run(capsys, "validate", str(device), f"--tolerance={flag}", "--json")
            assert code == 2 and out == "", flag
            assert "tolerance" in err

    def test_bad_tolerance_env_var_exits_2(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "half.json"
        path.write_text(json.dumps(self.HALF_IDENTITY))
        monkeypatch.setenv("QMETER_DEFAULT_TOLERANCE", "nan")
        code, out, err = run(capsys, "fidelities", str(path))
        assert code == 2 and out == ""
        assert "tolerance" in err

    def test_negative_tolerance_field_exits_2(self, capsys, tmp_path):
        path = tmp_path / "negative.json"
        identity = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        path.write_text(json.dumps({"dim": 2, "kraus": [identity], "tolerance": -1e-3}))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert "tolerance" in err

    def test_tolerance_above_one_half_exits_2_from_every_source(self, capsys, tmp_path, monkeypatch):
        # 2 * identity has defect 3 sqrt(2); a tolerance of 10 would report G_post = 2 and F = 3.
        doubled = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"dim": 2, "kraus": [doubled], "tolerance": 10}))
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({"dim": 2, "kraus": [doubled]}))
        runs = [({}, ("fidelities", str(field))), ({}, ("validate", str(plain), "--tolerance", "10"))]
        runs.append(({"QMETER_DEFAULT_TOLERANCE": "10"}, ("fidelities", str(plain))))
        for env, argv in runs:
            for name, value in env.items():
                monkeypatch.setenv(name, value)
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err == "error: completeness tolerance must be a finite real number in [0, 0.5], got 10.0\n"

    def _simulate_with_state(self, capsys, tmp_path, state):
        dev = write_catalog(capsys, tmp_path, "id1.json", "identity", "--d", "1")
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        return run(capsys, "simulate", dev, "--state", str(path), "--shots", "3")

    def test_state_amplitudes_not_a_list_is_malformed(self, capsys, tmp_path):
        code, out, err = self._simulate_with_state(capsys, tmp_path, {"dim": 1, "amplitudes": 5})
        assert code == 1 and out == ""
        assert "amplitudes" in err

    def test_state_bool_dim_is_malformed(self, capsys, tmp_path):
        state = {"dim": True, "amplitudes": [[1.0, 0.0]]}
        code, out, err = self._simulate_with_state(capsys, tmp_path, state)
        assert code == 1 and out == ""
        assert "dim" in err

    def test_state_non_integer_dim_is_malformed(self, capsys, tmp_path):
        for dim in (1.5, "1", None):
            state = {"dim": dim, "amplitudes": [[1.0, 0.0]]}
            code, out, err = self._simulate_with_state(capsys, tmp_path, state)
            assert code == 1 and out == "", dim
            assert "dim" in err

    PROJECTIVE_QUBIT = [
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    ]

    @pytest.mark.parametrize(
        "label", [None, 7, 2.5, True, [1], {"a": [1]}], ids=["null", "int", "float", "bool", "list", "object"]
    )
    def test_labels_must_be_strings(self, capsys, tmp_path, label):
        path = tmp_path / "labelled.json"
        path.write_text(json.dumps({"dim": 2, "kraus": self.PROJECTIVE_QUBIT, "labels": ["up", label]}))
        for command in ("validate", "fidelities"):
            code, out, err = run(capsys, command, str(path))
            assert (code, out, err) == (1, "", f"error: {path}: 'labels' must list one string name per operator\n")
        path.write_text(json.dumps({"dim": 2, "kraus": self.PROJECTIVE_QUBIT, "labels": ["up", "down"]}))
        code, out, err = run(capsys, "fidelities", str(path), "--json")
        assert code == 0, err
        assert [rec["label"] for rec in json.loads(out)["outcomes"]] == ["up", "down"]


class TestRejectionCorpus:
    """A malformed ``[re, im]`` block exits 1 with the message naming its first bad entry.

    Each case breaks one entry of an otherwise valid block: the real part of
    entry (2, 2) of a device's Kraus operator, or of a state's second amplitude.
    """

    HUGE = "1" + "0" * 400
    NUMBER_SLOTS = {
        "bool": ("true", "expected a number, got True"),
        "string": ('"1.0"', "expected a number, got '1.0'"),
        "null": ("null", "expected a number, got None"),
        "list": ("[1.0]", "expected a number, got [1.0]"),
        "object": ('{"re": 1.0}', "expected a number, got {'re': 1.0}"),
        "huge_int": (HUGE, f"expected a finite number, got {HUGE}"),
        "nan": ("NaN", "expected a finite number, got nan"),
    }
    DEVICE_CASES = {
        **{name: ("[[0.0, 0.0], [" + slot + ", 0.0]]", tail) for name, (slot, tail) in NUMBER_SLOTS.items()},
        "ragged_row": ("[[0.0, 0.0]]", "expected 2 [re, im] pairs"),
        "triple": ("[[0.0, 0.0], [1.0, 0.0, 0.0]]", "expected an [re, im] pair, got [1.0, 0.0, 0.0]"),
    }
    STATE_CASES = {
        **{name: ("[" + slot + ", 0.0]", tail) for name, (slot, tail) in NUMBER_SLOTS.items()},
        "ragged_row": ("[0.0]", "expected an [re, im] pair, got [0.0]"),
        "triple": ("[0.0, 0.0, 0.0]", "expected an [re, im] pair, got [0.0, 0.0, 0.0]"),
    }

    @staticmethod
    def device_text(row2):
        return '{"dim": 2, "kraus": [[[[1.0, 0.0], [0.0, 0.0]], ' + row2 + "]]}"

    @pytest.mark.parametrize("case", list(DEVICE_CASES))
    def test_kraus_block(self, capsys, tmp_path, case):
        row2, tail = self.DEVICE_CASES[case]
        path = tmp_path / "bad.json"
        path.write_text(self.device_text(row2))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: kraus operator 1, row 2: {tail}\n"

    @pytest.mark.parametrize("case", list(STATE_CASES))
    def test_amplitudes_block(self, capsys, tmp_path, case):
        amplitude2, tail = self.STATE_CASES[case]
        device = tmp_path / "identity.json"
        device.write_text(self.device_text("[[0.0, 0.0], [1.0, 0.0]]"))
        path = tmp_path / "bad_state.json"
        path.write_text('{"dim": 2, "amplitudes": [[1.0, 0.0], ' + amplitude2 + "]}")
        code, out, err = run(capsys, "simulate", str(device), "--state", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: amplitudes: {tail}\n"

    # Two faults in one block: the message names the one that comes first in the document.
    TWO_FAULT_DEVICES = {
        "nan_then_short_operator": (
            "[[[[1.0, 0.0], [0.0, 0.0]], [[NaN, 0.0], [1.0, 0.0]]], [[[1.0, 0.0], [0.0, 0.0]]]]",
            "kraus operator 1, row 2: expected a finite number, got nan",
        ),
        "short_row_then_bool": (
            "[[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]], [[[true, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]",
            "kraus operator 1, row 2: expected 2 [re, im] pairs",
        ),
        "triple_then_null": (
            "[[[[0.0, 0.0, 0.0], [null, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]",
            "kraus operator 1, row 1: expected an [re, im] pair, got [0.0, 0.0, 0.0]",
        ),
        "null_then_triple": (
            "[[[[null, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]",
            "kraus operator 1, row 1: expected a number, got None",
        ),
        "short_operator_then_string": (
            '[[[[1.0, 0.0], [0.0, 0.0]]], [[["x", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]',
            "kraus operator 1: expected 2 rows",
        ),
    }
    TWO_FAULT_STATES = {
        "string_then_short_pair": ('[["x", 0.0], [0.0]]', "expected a number, got 'x'"),
        "short_pair_then_string": ('[[0.0], ["x", 0.0]]', "expected an [re, im] pair, got [0.0]"),
    }

    @pytest.mark.parametrize("case", list(TWO_FAULT_DEVICES))
    def test_first_of_two_faults_in_a_device(self, capsys, tmp_path, case):
        kraus, tail = self.TWO_FAULT_DEVICES[case]
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "kraus": ' + kraus + "}")
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out, err) == (1, "", f"error: {path}: {tail}\n")

    @pytest.mark.parametrize("case", list(TWO_FAULT_STATES))
    def test_first_of_two_faults_in_a_state(self, capsys, tmp_path, case):
        amplitudes, tail = self.TWO_FAULT_STATES[case]
        device = tmp_path / "identity.json"
        device.write_text(self.device_text("[[0.0, 0.0], [1.0, 0.0]]"))
        path = tmp_path / "bad_state.json"
        path.write_text('{"dim": 2, "amplitudes": ' + amplitudes + "}")
        code, out, err = run(capsys, "simulate", str(device), "--state", str(path))
        assert (code, out, err) == (1, "", f"error: {path}: amplitudes: {tail}\n")

    def test_not_utf8_is_malformed(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"dim": 1, "kraus": [[[[1.0, 0.0]]]], "labels": ["\xe9"]}')
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (1, "")
        assert "UTF-8" in err

    def test_over_deep_nesting_is_malformed(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (1, "")
        assert "nested too deeply" in err

    # More decimal digits than sys.get_int_max_str_digits() lets json.loads convert.
    TOO_LONG = "1" * 5001
    LONG_INT_FILES = {
        "dim": ('{"dim": ' + TOO_LONG + ', "kraus": [[[[1.0, 0.0]]]]}', None),
        "kraus_entry": ('{"dim": 1, "kraus": [[[[' + TOO_LONG + ", 0.0]]]]}", None),
        "tolerance": ('{"dim": 1, "kraus": [[[[1.0, 0.0]]]], "tolerance": ' + TOO_LONG + "}", None),
        "amplitude": ('{"dim": 1, "kraus": [[[[1.0, 0.0]]]]}', '{"dim": 1, "amplitudes": [[' + TOO_LONG + ", 0]]}"),
    }

    @pytest.mark.parametrize("where", list(LONG_INT_FILES))
    def test_integer_beyond_the_digit_limit_is_malformed(self, capsys, tmp_path, where):
        device_text, state_text = self.LONG_INT_FILES[where]
        device = tmp_path / "device.json"
        device.write_text(device_text)
        argv = ["validate", str(device)]
        path = device
        if state_text is not None:
            path = tmp_path / "state.json"
            path.write_text(state_text)
            argv = ["simulate", str(device), "--state", str(path)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: ") and "digits" in err and err.count("\n") == 1

    def test_top_level_list_is_malformed(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out, err) == (1, "", f"error: {path}: device spec must be a JSON object\n")

    def test_non_numeric_tolerance_env_var_is_malformed(self, capsys, tmp_path, monkeypatch):
        device = tmp_path / "identity.json"
        device.write_text('{"dim": 1, "kraus": [[[[1.0, 0.0]]]]}')
        monkeypatch.setenv("QMETER_DEFAULT_TOLERANCE", "abc")
        code, out, err = run(capsys, "validate", str(device))
        assert (code, out, err) == (1, "", "error: QMETER_DEFAULT_TOLERANCE='abc' is not a number\n")


class TestDecodePairs:
    """The one decode routine returns the bits of ``complex(float(re), float(im))`` for every entry."""

    @staticmethod
    def bits(a):
        return np.asarray(a, dtype=np.complex128).view(np.uint64)

    @staticmethod
    def expected(rows):
        return [[complex(float(re), float(im)) for re, im in row] for row in rows]

    def check_kraus(self, raw, d):
        rows = [row for k in raw for row in k]
        decoded = cli._decode_pairs(rows, d, lambda i: f"kraus row {i + 1}")
        assert decoded.dtype == np.complex128 and decoded.shape == (len(rows), d)
        assert np.array_equal(self.bits(decoded), self.bits(self.expected(rows)))

    @pytest.mark.parametrize(
        "argv",
        [
            ["random", "--d", "16", "--n", "4", "--seed", "3"],
            ["random", "--d", "5", "--n", "12", "--seed", "1"],
            ["identity", "--d", "3", "--kick-seed", "2"],
            ["tetrahedron", "--post-seed", "4"],
            ["unsharp", "--lambda", "0.3"],
            ["identity", "--d", "1"],
        ],
    )
    def test_catalog_devices(self, capsys, tmp_path, argv):
        path = write_catalog(capsys, tmp_path, "dev.json", *argv)
        with open(path) as fh:
            spec = json.load(fh)
        self.check_kraus(spec["kraus"], spec["dim"])

    def test_hand_written_numbers(self):
        big = 2**53 + 1  # rounds to 2**53 as a float
        raw = json.loads(json.dumps([[[[1, 0], [-0.0, 5e-324]], [[big, -3], [0.5, -0.0]]]]))
        assert raw[0][1][0][0] == big and isinstance(raw[0][0][0][0], int)
        self.check_kraus(raw, 2)
        amplitudes = raw[0][0] + raw[0][1]
        decoded = cli._decode_pairs([amplitudes], 4, lambda i: "amplitudes")[0]
        assert np.array_equal(self.bits(decoded), self.bits(self.expected([amplitudes])[0]))
        assert np.signbit(decoded[1].real) and decoded[1].imag == 5e-324 and decoded[2].real == 2.0**53


class TestModuleEntryPoints:
    """``python -m qmeter`` and ``python -m qmeter.cli`` run the CLI with no runpy warning."""

    @pytest.mark.parametrize("module", ["qmeter", "qmeter.cli"])
    def test_runs_without_warning(self, capsys, tmp_path, module):
        path = write_catalog(capsys, tmp_path, "dev.json", "random", "--d", "4", "--n", "3", "--seed", "2")
        _, expected, _ = run(capsys, "fidelities", path)
        proc = run_module("-W", "error::RuntimeWarning", "-m", module, "fidelities", path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == expected


class TestPackage:
    """``import qmeter`` gives its six modules, each module's public names are pinned, and the README runs."""

    def test_public_names_are_the_modules(self):
        # A fresh interpreter: this one has already imported qmeter.cli, which binds ``qmeter.cli``.
        proc = run_module("-c", "import qmeter; print(*sorted(n for n in vars(qmeter) if not n.startswith('_')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["catalog", "errors", "estimator", "haar", "matkernel", "measurement"]

    def test_readme_quick_start_runs(self):
        with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
            block = fh.read().split("```python\n", 1)[1].split("```", 1)[0]
        *body, last = block.strip().splitlines()
        exec("\n".join(body + ["assert " + last.split("#", 1)[0]]), {})

    # A new public helper is added here on purpose, together with its gate (finite_array or finite_scalar).
    PUBLIC_NAMES = {
        "catalog": "bloch_state identity_device projective random_device tetrahedron_rank_one unsharp_qubit "
        "with_kicks",
        "cli": "cmd_catalog cmd_domain cmd_estimate cmd_fidelities cmd_simulate cmd_validate load_device "
        "load_state main write_device",
        "errors": "DeviceSpecError DimensionMismatch IncompleteDevice InternalConsistencyError NoConvergence "
        "NotHermitian NotUnitary OutOfDomain OutcomeOutOfRange QmeterError ShapeMismatch ZeroProbabilityOutcome",
        "estimator": "EstimatePair FidelityReport RelationCheck best_post_estimate best_pre_estimate check_bound "
        "domain_boundary estimate_pair estimate_pairs g_post_of_guess g_pre_of_guess is_pure_measurement "
        "make_rank_one_device operation_fidelity pure_part tradeoff_bound verify_estimate_relations",
        "haar": "MonteCarloResult RngStream g_post_integrand g_pre_integrand haar_isometry haar_state haar_states "
        "mc_estimation_fidelity mc_fidelities mc_g_post mc_g_pre mc_operation_fidelity operation_integrand",
        "matkernel": "EigenSystem canonicalize_phase finite_array finite_scalar hermitian_eig polar_decompose",
        "measurement": "BiOrthogonalFactors Measurement as_state as_states",
    }

    @pytest.mark.parametrize("module_name", sorted(PUBLIC_NAMES))
    def test_module_public_names_are_pinned(self, module_name):
        module = importlib.import_module(f"qmeter.{module_name}")
        own = {
            name
            for name, obj in vars(module).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
        }
        assert own == set(self.PUBLIC_NAMES[module_name].split())

    def test_haar_imports_only_from_matkernel_and_measurement(self):
        # The Monte Carlo oracle stays independent of the estimator whose closed forms it checks;
        # ``errors`` holds only the exception classes.
        with open(haar.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        nodes = list(ast.walk(tree))
        sources = {"." * node.level + (node.module or "") for node in nodes if isinstance(node, ast.ImportFrom)}
        sources |= {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
        own = {name for name in sources if name.startswith((".", "qmeter"))}
        assert own == {".errors", ".matkernel", ".measurement"}


class TestHugeEntries:
    """A finite Kraus entry so large that ``M^dag M`` overflows is a domain error, reported once."""

    @pytest.mark.parametrize("command", ["validate", "fidelities"])
    def test_exit_2_with_one_error_line(self, tmp_path, command):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 2, "kraus": [[[[1e200, 0], [0, 0]], [[0, 0], [1, 0]]]]}))
        proc = run_module("-m", "qmeter", command, str(path))
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error:") and "overflow" in line
