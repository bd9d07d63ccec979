import json
import re
import time

import numpy as np
import pytest

from qsdkit import (SCHEME_NAMES, cli, confidences, depolarize, dilation, schemes,
                    simulate_measurement, solve_scheme)
from qsdkit.cli import main
from qsdkit.schemes import SCHEMES
from qsdkit.serialize import (povm_payload, read_isometry, read_json, read_povm, read_problem,
                              read_sweep_csv, validate_bench_report)
from conftest import random_povm


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "bench2q.json"
    path.write_text(json.dumps({
        "num_qubits": 2,
        "states": [{"type": "benchmark2q", "a": [0.2, 0.5, 0.7]}],
    }))
    return path


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({
        "num_qubits": 1,
        "states": [
            {"type": "pure", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
            {"type": "pure", "amplitudes": [[0.7071067811865476, 0.0],
                                            [0.7071067811865476, 0.0]]},
        ],
    }))
    return path


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSolveCommand:
    def test_med_writes_povm_and_metrics(self, tmp_path, problem_file, capsys):
        out = tmp_path / "povm.json"
        metrics = tmp_path / "metrics.json"
        code, report = run_json(capsys, [
            "solve", "--problem", str(problem_file), "--scheme", "med",
            "--lambda", "0", "--out", str(out), "--metrics-out", str(metrics)])
        assert code == 0
        povm = read_povm(out)
        assert povm.dim == 4
        cond = [3 * report["joint_distribution"][i][i] for i in range(3)]
        np.testing.assert_allclose(cond, [0.99547, 0.98188, 0.98059], atol=1e-3)
        assert report["solver"]["status"] == "optimal"
        assert report["meta"]["tool"] == "qsdkit"
        assert "tol" in report["meta"] and "seed" in report["meta"]
        assert metrics.exists()

    def test_meta_records_solver_settings(self, tmp_path, pair_file, capsys):
        out = tmp_path / "povm.json"
        code, report = run_json(capsys, ["solve", "--problem", str(pair_file), "--scheme", "med",
                                         "--tol", "1e-7", "--max-iters", "5000",
                                         "--out", str(out)])
        assert code == 0
        for meta in (report["meta"], read_json(out)["meta"]):
            assert meta["tol"] == 1e-7 and meta["max_iters"] == 5000

    @pytest.mark.parametrize("lam", ["0", "0.03"])
    def test_confidences_match_the_library(self, tmp_path, problem_file, capsys, lam):
        # The report's conditionals come from the joint distribution it
        # already holds, bit for bit what metrics.confidences computes.
        out = tmp_path / "povm.json"
        code, report = run_json(capsys, [
            "solve", "--problem", str(problem_file), "--scheme", "frio",
            "--lambda", lam, "--out", str(out)])
        assert code == 0
        spec = read_problem(problem_file).with_noise(float(lam))
        given_state, given_outcome = confidences(spec, read_povm(out), float(lam))
        assert report["confidence_given_state"] == given_state.tolist()
        assert report["confidence_given_outcome"] == given_outcome.tolist()

    def test_hybrid_w_zero_matches_med(self, tmp_path, pair_file, capsys):
        out_med = tmp_path / "med.json"
        out_hyb = tmp_path / "hyb.json"
        code, rep_med = run_json(capsys, [
            "solve", "--problem", str(pair_file), "--scheme", "med",
            "--lambda", "0", "--out", str(out_med)])
        assert code == 0
        code, rep_hyb = run_json(capsys, [
            "solve", "--problem", str(pair_file), "--scheme", "hybrid",
            "--w", "0", "--lambda", "0", "--out", str(out_hyb)])
        assert code == 0
        assert abs(rep_hyb["p_succ"] - rep_med["p_succ"]) < 1e-5

    def test_crossqsd_flags(self, tmp_path, problem_file, capsys):
        out = tmp_path / "povm.json"
        code, report = run_json(capsys, [
            "solve", "--problem", str(problem_file), "--scheme", "crossqsd",
            "--alpha", "0.05", "--beta", "0.05", "--lambda-eval", "0.01",
            "--out", str(out)])
        assert code == 0
        assert report["meta"]["lambda_eval"] == 0.01
        assert all(c >= 0.95 - 1e-5 for c in report["confidence_given_state"])

    @pytest.mark.parametrize("key", ["priors", "a"])
    def test_null_number_exits_1(self, tmp_path, capsys, key):
        data = {"num_qubits": 2, "states": [{"type": "benchmark2q", "a": [0.2, 0.5, 0.7]}],
                "priors": [0.5, 0.25, 0.25]}
        target = data["priors"] if key == "priors" else data["states"][0]["a"]
        target[1] = None
        bad = tmp_path / "bad_problem.json"
        bad.write_text(json.dumps(data))
        code = main(["solve", "--problem", str(bad), "--scheme", "med",
                     "--out", str(tmp_path / "povm.json")])
        assert code == 1
        assert f"{key}[1]" in capsys.readouterr().err

    def test_missing_problem_file_is_usage_error(self, tmp_path, capsys):
        code = main(["solve", "--problem", str(tmp_path / "nope.json"),
                     "--scheme", "med", "--out", str(tmp_path / "o.json")])
        assert code == 1

    def test_unknown_scheme_is_usage_error(self, problem_file, tmp_path):
        code = main(["solve", "--problem", str(problem_file),
                     "--scheme", "telepathy", "--out", str(tmp_path / "o.json")])
        assert code == 1

    @pytest.mark.parametrize("scheme, flags, message", [
        ("med", ["--rate", "0.3"], "scheme 'med' takes no parameters; got rate"),
        ("minl1", ["--ell", "2"], "scheme 'minl1' takes reference; got ell"),
        ("crossqsd", ["--alpha", "nan"], "must lie in"),
        ("crossqsd", ["--beta", "0.1,nan"], "must lie in"),
        ("hybrid", ["--w", "nan"], "nonnegative"),
        ("hybrid", ["--w", "inf"], "non-finite"),
    ])
    def test_bad_scheme_parameter_is_usage_error(self, pair_file, tmp_path, capsys,
                                                 scheme, flags, message):
        out = tmp_path / "o.json"
        code = main(["solve", "--problem", str(pair_file), "--scheme", scheme,
                     "--out", str(out)] + flags)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("max_iters", ["0", "-5"])
    def test_nonpositive_max_iters_is_usage_error(self, pair_file, tmp_path, capsys,
                                                   max_iters):
        out = tmp_path / "o.json"
        code = main(["solve", "--problem", str(pair_file), "--scheme", "med",
                     "--max-iters", max_iters, "--out", str(out)])
        assert code == 1
        assert "max_iters must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unconverged_solve_exits_2_without_output(self, pair_file, tmp_path, capsys):
        out = tmp_path / "o.json"
        code = main(["solve", "--problem", str(pair_file), "--scheme", "med",
                     "--max-iters", "1", "--out", str(out)])
        assert code == 2
        assert "status=max_iters" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_defaults_match_the_library(self, pair_file, tmp_path, capsys, scheme):
        code, report = run_json(capsys, ["solve", "--problem", str(pair_file),
                                         "--scheme", scheme, "--out", str(tmp_path / "o.json")])
        assert code == 0
        want = solve_scheme(read_problem(pair_file), scheme).value
        assert abs(report["objective_value"] - want) <= 1e-7

    @pytest.mark.parametrize("key", sorted({key for _, params in SCHEMES.values()
                                            for key in params}))
    def test_help_lists_every_scheme_parameter(self, capsys, key):
        with pytest.raises(SystemExit) as exit_:
            main(["solve", "--help"])
        assert exit_.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        entry = text.split(f"--{key} {key.upper()} ")[1].split(" --")[0]
        takers = [name for name, (_, params) in SCHEMES.items() if key in params]
        assert entry.startswith(", ".join(takers) + ":")
        assert all(f"(default: {SCHEMES[name][1][key]})" in entry for name in takers)

    @pytest.mark.parametrize("scheme, flags, message", [
        ("crossqsd", ["--alpha", "0.1,0.2"], "one alpha and one beta per state"),
        ("frio", ["--bound", "sideways"], "bound must be"),
        ("frio", ["--rate", "0.1,0.2"], "rate must be a number"),
    ])
    def test_builder_rejects_value(self, problem_file, tmp_path, capsys, scheme, flags,
                                   message):
        out = tmp_path / "o.json"
        code = main(["solve", "--problem", str(problem_file), "--scheme", scheme,
                     "--out", str(out)] + flags)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("w", ["nan", "0.1,0.2"])
    def test_weight_checked_before_the_reference_solve(self, problem_file, tmp_path, capsys,
                                                       monkeypatch, w):
        calls = []
        monkeypatch.setattr(schemes, "uqsd_reference", lambda *a, **k: calls.append(a))
        out = tmp_path / "h.json"
        code = main(["solve", "--problem", str(problem_file), "--scheme", "hybrid",
                     "--w", w, "--out", str(out)])
        assert code == 1
        assert "w must be a nonnegative number" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_reference_file_matches_the_default_reference(self, problem_file, tmp_path, capsys,
                                                          monkeypatch):
        # The uqsd POVM of the noiseless ensemble, given as --reference, is the
        # default reference: the minl1 solve takes the same path.
        uqsd = tmp_path / "uqsd.json"
        assert main(["solve", "--problem", str(problem_file), "--scheme", "uqsd",
                     "--lambda", "0", "--out", str(uqsd)]) == 0
        capsys.readouterr()
        args = ["solve", "--problem", str(problem_file), "--scheme", "minl1", "--lambda", "0.01"]
        code, default = run_json(capsys, args + ["--out", str(tmp_path / "a.json")])
        assert code == 0
        calls = []
        monkeypatch.setattr(schemes, "uqsd_reference", lambda *a, **k: calls.append(a))
        code, given = run_json(capsys, args + ["--reference", str(uqsd),
                                               "--out", str(tmp_path / "b.json")])
        assert code == 0 and calls == []
        assert given["objective_value"] == default["objective_value"]
        assert given["solver"]["iterations"] == default["solver"]["iterations"]
        assert abs(given["objective_value"] - 0.008566591915276617) <= 1e-7

    def test_metrics_lambda_checked_before_the_solve(self, pair_file, tmp_path, capsys,
                                                     monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("solve_scheme ran")

        monkeypatch.setattr(cli, "solve_scheme", fail)
        out = tmp_path / "o.json"
        code = main(["solve", "--problem", str(pair_file), "--scheme", "med",
                     "--lambda-eval", "0", "--lambda", "1.5", "--out", str(out)])
        assert code == 1
        assert "[0, 1]" in capsys.readouterr().err
        assert not out.exists()


class TestDilateCommand:
    @pytest.fixture
    def povm_file(self, tmp_path, problem_file, capsys):
        out = tmp_path / "povm.json"
        main(["solve", "--problem", str(problem_file), "--scheme", "med",
              "--lambda", "0", "--out", str(out)])
        capsys.readouterr()
        return out

    def test_truncated_vs_exact_ancillas(self, tmp_path, povm_file, capsys):
        code, exact = run_json(capsys, [
            "dilate", "--povm", str(povm_file), "--delta", "0",
            "--out", str(tmp_path / "iso0.json")])
        assert code == 0
        code, trunc = run_json(capsys, [
            "dilate", "--povm", str(povm_file), "--delta", "1e-4",
            "--out", str(tmp_path / "iso4.json")])
        assert code == 0
        assert exact["ancilla_qubits"] == 2
        assert trunc["ancilla_qubits"] == 1
        assert trunc["total_rank"] <= 6
        assert exact["isometry_deviation"] < 1e-12

    def test_generic_flag(self, tmp_path, povm_file, capsys):
        code, report = run_json(capsys, [
            "dilate", "--povm", str(povm_file), "--generic",
            "--out", str(tmp_path / "gen.json")])
        assert code == 0
        assert report["total_rank"] == 12
        assert report["target_qubits"] == 4

    def test_consecutive_calls_share_no_state(self, tmp_path, povm_file, capsys):
        # main() reuses one parser: neither a failed parse nor a flag given
        # to an earlier call may carry over to the next call.
        assert main(["dilate", "--povm", str(povm_file)]) == 1  # --out missing
        code, generic = run_json(capsys, [
            "dilate", "--povm", str(povm_file), "--generic", "--delta", "1e-4",
            "--out", str(tmp_path / "gen.json")])
        assert code == 0
        assert generic["meta"]["generic"] is True
        assert generic["total_rank"] == 12
        code, minimal = run_json(capsys, [
            "dilate", "--povm", str(povm_file), "--delta", "1e-4",
            "--out", str(tmp_path / "min.json")])
        assert code == 0
        assert minimal["meta"]["generic"] is False
        assert minimal["total_rank"] <= 6

    @pytest.mark.parametrize("delta", ["-0.001", "nan"])
    def test_bad_delta_exits_1_without_output(self, tmp_path, povm_file, capsys, delta):
        out = tmp_path / "iso.json"
        code = main(["dilate", "--povm", str(povm_file), "--delta", delta, "--out", str(out)])
        assert code == 1
        assert "delta must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("delta", ["-1", "nan"])
    def test_generic_bad_delta_exits_1_without_output(self, tmp_path, povm_file, capsys,
                                                      delta):
        out = tmp_path / "gen.json"
        code = main(["dilate", "--povm", str(povm_file), "--generic", "--delta", delta,
                     "--out", str(out)])
        assert code == 1
        assert "delta must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_no_solver_settings(self, tmp_path, povm_file, capsys):
        out = tmp_path / "iso.json"
        code, report = run_json(capsys, ["dilate", "--povm", str(povm_file), "--out", str(out)])
        assert code == 0
        for meta in (report["meta"], read_json(out)["meta"]):
            assert "tol" not in meta and "max_iters" not in meta
        code = main(["dilate", "--povm", str(povm_file), "--tol", "1e-6", "--out", str(out)])
        assert code == 1
        assert "--tol" in capsys.readouterr().err

    def test_invalid_povm_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "dim": 2,
            "elements": [{"label": 0, "matrix": [[[0.9, 0.0], [0.0, 0.0]],
                                                 [[0.0, 0.0], [0.5, 0.0]]]}]}))
        code = main(["dilate", "--povm", str(bad),
                     "--out", str(tmp_path / "iso.json")])
        assert code == 2

    def test_residual_label_exits_2_without_output(self, tmp_path, povm_file, capsys):
        data = read_json(povm_file)
        data["elements"][0]["label"] = "residual"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "iso.json"
        assert main(["dilate", "--povm", str(bad), "--out", str(out)]) == 2
        assert "invalid POVM file: label 'residual'" in capsys.readouterr().err
        assert not out.exists()

    def test_null_dim_exits_2(self, tmp_path, povm_file, capsys):
        data = read_json(povm_file)
        data["dim"] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main(["dilate", "--povm", str(bad), "--out", str(tmp_path / "iso.json")])
        assert code == 2
        assert "invalid POVM file: dim" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        pytest.param(None, "elements[1].matrix", id="None"),
        pytest.param("0.5", "elements[1].matrix", id="0.5"),
        # A callable entry edits the structure around the matrices.
        pytest.param(lambda d: d.update(elements=5), "elements must be of type array, got 5",
                     id="elements-int"),
        pytest.param(lambda d: d.update(elements=["x"]),
                     "elements[0] must be of type object, got 'x'", id="elements-list"),
        pytest.param(lambda d: [d], "file must hold a JSON object, got a list",
                     id="top-level-list"),
        pytest.param(lambda d: d["elements"][0].__delitem__("matrix"),
                     "elements[0] is missing 'matrix'", id="element-without-matrix"),
        pytest.param(lambda d: d.__delitem__("dim"), "POVM file is missing 'dim'",
                     id="without-dim"),
    ])
    def test_malformed_povm_entry_exits_2(self, tmp_path, povm_file, capsys, entry, message):
        data = read_json(povm_file)
        if callable(entry):
            data = entry(data) or data
        else:
            data["elements"][1]["matrix"][0][1][1] = entry
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main(["dilate", "--povm", str(bad), "--out", str(tmp_path / "iso.json")])
        assert code == 2
        assert f"invalid POVM file: {message}" in capsys.readouterr().err


class TestSimulateCommand:
    @pytest.fixture
    def isometry_file(self, tmp_path, problem_file, capsys):
        povm = tmp_path / "povm.json"
        iso = tmp_path / "iso.json"
        main(["solve", "--problem", str(problem_file), "--scheme", "med",
              "--lambda", "0", "--out", str(povm)])
        main(["dilate", "--povm", str(povm), "--delta", "1e-4", "--out", str(iso)])
        capsys.readouterr()
        return iso

    def test_exact_probabilities(self, problem_file, isometry_file, capsys):
        code, report = run_json(capsys, [
            "simulate", "--isometry", str(isometry_file),
            "--problem", str(problem_file)])
        assert code == 0
        assert report["p_succ"] == pytest.approx(0.98598, abs=1e-3)
        probs = report["per_state"][0]["probabilities"]
        assert probs["0"] == pytest.approx(0.99547, abs=1e-3)

    def test_seeded_counts_reproducible(self, problem_file, isometry_file, capsys):
        argv = ["simulate", "--isometry", str(isometry_file),
                "--problem", str(problem_file), "--shots", "1024", "--seed", "5"]
        code, first = run_json(capsys, argv)
        assert code == 0
        code, second = run_json(capsys, argv)
        assert code == 0
        assert first["per_state"] == second["per_state"]

    @pytest.mark.parametrize("lam", [0.0, 0.03])
    def test_per_state_matches_simulate_measurement(self, problem_file, isometry_file,
                                                    capsys, lam):
        # Each state's row of the mixed outcome table is its noisy state's
        # outcome distribution; at lambda = 0 the rows and the seeded counts
        # are exactly those of a direct measurement.
        code, report = run_json(capsys, [
            "simulate", "--isometry", str(isometry_file), "--problem", str(problem_file),
            "--lambda", repr(lam), "--shots", "4096", "--seed", "11"])
        assert code == 0
        dil = read_isometry(isometry_file)
        spec = read_problem(problem_file)
        assert len(report["per_state"]) == spec.num_states
        for entry in report["per_state"]:
            want = simulate_measurement(dil, depolarize(spec.states[entry["state"]], lam),
                                        shots=4096, seed=11)
            got = entry["probabilities"]
            assert got.keys() == {str(l) for l in want.probabilities}
            for label, p in want.probabilities.items():
                assert abs(got[str(label)] - p) <= 1e-14
            if lam == 0.0:
                assert got == {str(l): p for l, p in want.probabilities.items()}
                assert entry["counts"] == {str(l): c for l, c in want.counts.items()}

    def test_one_outcome_table_per_call(self, problem_file, isometry_file, capsys,
                                        monkeypatch):
        calls = []
        table = dilation._outcome_table

        def counted(*args, **kwargs):
            calls.append(1)
            return table(*args, **kwargs)

        monkeypatch.setattr(dilation, "_outcome_table", counted)
        assert main(["simulate", "--isometry", str(isometry_file), "--problem",
                     str(problem_file), "--lambda", "0.03", "--shots", "64"]) == 0
        assert len(calls) == 1

    def test_negative_shots_exits_1_without_output(self, tmp_path, problem_file,
                                                   isometry_file, capsys):
        out = tmp_path / "sim.json"
        code = main(["simulate", "--isometry", str(isometry_file), "--problem",
                     str(problem_file), "--shots", "-5", "--out", str(out)])
        assert code == 1
        assert "shots must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_no_solver_settings(self, tmp_path, problem_file, isometry_file, capsys):
        out = tmp_path / "sim.json"
        code, report = run_json(capsys, ["simulate", "--isometry", str(isometry_file),
                                         "--problem", str(problem_file), "--out", str(out)])
        assert code == 0
        assert "tol" not in report["meta"] and "max_iters" not in report["meta"]
        assert "tol" not in read_json(isometry_file)["meta"]
        code = main(["simulate", "--isometry", str(isometry_file), "--problem",
                     str(problem_file), "--max-iters", "5"])
        assert code == 1
        assert "--max-iters" in capsys.readouterr().err

    def test_sweep_csv(self, tmp_path, problem_file, isometry_file, capsys):
        out = tmp_path / "sweep.csv"
        code, _ = run_json(capsys, [
            "simulate", "--isometry", str(isometry_file),
            "--problem", str(problem_file),
            "--lambda-sweep", "1e-6:1:7", "--out", str(out)])
        assert code == 0
        rows = read_sweep_csv(out)
        assert len(rows) == 7
        lams = [r[0] for r in rows]
        assert lams == sorted(lams)
        ratios = [r[4] for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))

    @pytest.mark.parametrize("flag", [["--shots", "0"], ["--seed", "0"],
                                      ["--state-index", "1"], ["--lambda", "0.3"]])
    def test_sweep_rejects_per_state_flags(self, tmp_path, problem_file, isometry_file,
                                           capsys, flag):
        out = tmp_path / "sweep.csv"
        code = main(["simulate", "--isometry", str(isometry_file), "--problem",
                     str(problem_file), "--lambda-sweep", "1e-6:1:7", "--out", str(out)] + flag)
        assert code == 1
        assert f"--lambda-sweep takes no {flag[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_needs_out(self, problem_file, isometry_file, capsys):
        code = main(["simulate", "--isometry", str(isometry_file), "--problem",
                     str(problem_file), "--lambda-sweep", "1e-6:1:7"])
        assert code == 1
        assert "--lambda-sweep requires --out" in capsys.readouterr().err

    @pytest.mark.parametrize("index", ["3", "-1"])
    def test_state_index_out_of_range_exits_1(self, problem_file, isometry_file, capsys, index):
        code = main(["simulate", "--isometry", str(isometry_file), "--problem",
                     str(problem_file), "--state-index", index, "--shots", "10"])
        assert code == 1
        captured = capsys.readouterr()
        assert "--state-index must be in [0, 2]" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("points, message", [("0", "needs at least one point"),
                                                 ("-1", "bad --lambda-sweep")])
    def test_sweep_needs_a_point(self, tmp_path, problem_file, isometry_file, capsys,
                                 points, message):
        out = tmp_path / "sweep.csv"
        code = main(["simulate", "--isometry", str(isometry_file), "--problem",
                     str(problem_file), "--lambda-sweep", f"1e-3:1:{points}", "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_dim_mismatch_exits_2(self, tmp_path, isometry_file, capsys):
        other = tmp_path / "p1.json"
        other.write_text(json.dumps({
            "num_qubits": 1,
            "states": [{"type": "pure", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
                       {"type": "pure", "amplitudes": [[0.0, 0.0], [1.0, 0.0]]}]}))
        code = main(["simulate", "--isometry", str(isometry_file),
                     "--problem", str(other)])
        assert code == 2

    def test_noise_level_out_of_range_exits_1(self, problem_file, isometry_file, capsys):
        code = main(["simulate", "--isometry", str(isometry_file),
                     "--problem", str(problem_file), "--lambda", "1.5"])
        assert code == 1
        assert "[0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("field, mutate", [
        ("target_qubits", lambda d: d.update(target_qubits=d["target_qubits"] + 1)),
        ("domain_dim", lambda d: d.update(domain_dim=2 * d["domain_dim"])),
        ("outcome_map", lambda d: d["outcome_map"].pop()),
        ("matrix", lambda d: d["matrix"].pop()),
        ("total_rank", lambda d: d.update(total_rank=d["total_rank"] + 1)),
        ("delta", lambda d: d.update(delta=-1.0)),
    ])
    def test_isometry_header_disagreeing_with_matrix_exits_1(
            self, tmp_path, problem_file, isometry_file, capsys, field, mutate):
        data = read_json(isometry_file)
        mutate(data)
        bad = tmp_path / "bad_iso.json"
        bad.write_text(json.dumps(data))
        code = main(["simulate", "--isometry", str(bad), "--problem", str(problem_file)])
        assert code == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        pytest.param(None, "matrix", id="None"),
        pytest.param("0.5", "matrix", id="0.5"),
        # A callable entry edits the structure around the matrix.
        pytest.param(lambda d: d.update(outcome_map=3), "outcome_map must be of type array, got 3",
                     id="outcome_map-int"),
        pytest.param(lambda d: [d], "file must hold a JSON object, got a list",
                     id="top-level-list"),
        pytest.param(lambda d: d.__delitem__("outcome_map"),
                     "isometry file is missing 'outcome_map'", id="without-outcome_map"),
        pytest.param(lambda d: d.__delitem__("matrix"), "isometry file is missing 'matrix'",
                     id="without-matrix"),
    ])
    def test_malformed_isometry_entry_exits_1(self, tmp_path, problem_file, isometry_file,
                                              capsys, entry, message):
        data = read_json(isometry_file)
        if callable(entry):
            data = entry(data) or data
        else:
            data["matrix"][0][0][0] = entry
        bad = tmp_path / "bad_iso.json"
        bad.write_text(json.dumps(data))
        code = main(["simulate", "--isometry", str(bad), "--problem", str(problem_file)])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, entry, message", [
        pytest.param("matrix", None, "states[0]: matrix", id="matrix-None"),
        pytest.param("matrix", "0.5", "states[0]: matrix", id="matrix-0.5"),
        pytest.param("amplitudes", None, "states[0]: amplitudes", id="amplitudes-None"),
        pytest.param("amplitudes", "0.5", "states[0]: amplitudes", id="amplitudes-0.5"),
        # With the key "states" the entry is the whole list of states.
        pytest.param("states", 5, "states must be of type array, got 5", id="states-int"),
        pytest.param("states", ["x"], "states[0] must be of type object, got 'x'",
                     id="states-list"),
        # With the key "type" the entry is a state of that type without its field.
        pytest.param("type", "density", "states[0]: density entry is missing 'matrix'",
                     id="density-without-matrix"),
        pytest.param("type", "pure", "states[0]: pure entry is missing 'amplitudes'",
                     id="pure-without-amplitudes"),
    ])
    def test_malformed_problem_entry_exits_1(self, tmp_path, isometry_file, capsys, key, entry,
                                             message):
        if key == "matrix":
            state = {"type": "density",
                     "matrix": [[[0.25, 0.0] for _ in range(4)] for _ in range(4)]}
            state["matrix"][0][0][0] = entry
        elif key == "type":
            state = {"type": entry}
        else:
            state = {"type": "pure", "amplitudes": [[0.5, 0.0] for _ in range(4)]}
            state["amplitudes"][0][0] = entry
        states = entry if key == "states" else [state, state]
        bad = tmp_path / "bad_problem.json"
        bad.write_text(json.dumps({"num_qubits": 2, "states": states}))
        code = main(["simulate", "--isometry", str(isometry_file), "--problem", str(bad)])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["domain_dim", "target_qubits", "total_rank", "delta"])
    def test_null_isometry_field_exits_1(self, tmp_path, problem_file, isometry_file,
                                         capsys, field):
        data = read_json(isometry_file)
        data[field] = None
        bad = tmp_path / "bad_iso.json"
        bad.write_text(json.dumps(data))
        code = main(["simulate", "--isometry", str(bad), "--problem", str(problem_file)])
        assert code == 1
        assert field in capsys.readouterr().err

    def test_null_num_qubits_exits_1(self, tmp_path, isometry_file, capsys):
        bad = tmp_path / "bad_problem.json"
        bad.write_text(json.dumps({"num_qubits": None,
                                   "states": [{"type": "benchmark2q", "a": [0.2, 0.5, 0.7]}]}))
        code = main(["simulate", "--isometry", str(isometry_file), "--problem", str(bad)])
        assert code == 1
        assert "num_qubits" in capsys.readouterr().err

    def test_label_beyond_problem_exits_2(self, tmp_path, isometry_file, capsys):
        # The isometry dilates a 3-state MED POVM; this problem has 2 states
        # of the same dimension, so outcome label 2 identifies no state.
        other = tmp_path / "two.json"
        other.write_text(json.dumps({
            "num_qubits": 2,
            "states": [{"type": "pure", "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 3},
                       {"type": "pure", "amplitudes": [[0.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * 2}]}))
        code = main(["simulate", "--isometry", str(isometry_file),
                     "--problem", str(other)])
        assert code == 2
        assert "label 2" in capsys.readouterr().err


class TestFullPipeline:
    def test_confidence_scheme_sweep_endpoints(self, tmp_path, capsys):
        # solve -> dilate -> sweep: the error-to-success curve of the
        # confidence-bounded measurement on three-qubit coherent states is
        # monotone with known endpoints.
        problem = tmp_path / "coh.json"
        problem.write_text(json.dumps({
            "num_qubits": 3,
            "states": [
                {"type": "coherent", "alpha": [1.0, 0.0]},
                {"type": "coherent", "alpha": [0.5, -0.8660254037844386]},
                {"type": "coherent", "alpha": [-0.5, -0.8660254037844387]},
            ]}))
        povm = tmp_path / "povm.json"
        iso = tmp_path / "iso.json"
        sweep = tmp_path / "sweep.csv"
        assert main(["solve", "--problem", str(problem), "--scheme", "crossqsd",
                     "--alpha", "0.01", "--beta", "0.01", "--lambda-eval", "0.01",
                     "--out", str(povm)]) == 0
        assert main(["dilate", "--povm", str(povm), "--out", str(iso)]) == 0
        assert main(["simulate", "--isometry", str(iso), "--problem", str(problem),
                     "--lambda-sweep", "1e-6:1:23", "--out", str(sweep)]) == 0
        capsys.readouterr()
        rows = read_sweep_csv(sweep)
        assert len(rows) == 23
        ratios = [r[4] for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] == pytest.approx(0.00511, abs=5e-4)
        assert ratios[-1] == pytest.approx(2.000, abs=1e-3)


class TestBenchCommand:
    def test_small_bench_schema_valid(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code, report = run_json(capsys, [
            "bench", "--min-qubits", "2", "--max-qubits", "2",
            "--schemes", "med,uqsd,frio", "--out", str(out)])
        assert code == 0
        validate_bench_report(report)
        assert len(report["rows"]) == 9  # 3 schemes x 3 tasks
        assert {r["task"] for r in report["rows"]} == {"solve", "rank_one", "isometry"}

    def test_meta_records_solver_settings(self, capsys):
        code, report = run_json(capsys, ["bench", "--max-qubits", "2", "--schemes", "med",
                                         "--max-iters", "5000"])
        assert code == 0
        assert report["meta"]["max_iters"] == 5000 and report["meta"]["tol"] == 1e-8

    def test_meta_records_the_noise_level(self, capsys):
        code, report = run_json(capsys, ["bench", "--max-qubits", "2", "--schemes", "med",
                                         "--lambda", "0.05"])
        assert code == 0
        assert report["meta"]["lambda"] == 0.05

    def test_iteration_budget_reaches_the_shared_reference(self, capsys, monkeypatch):
        # As in test_schemes: the uqsd reference converges within the budget,
        # the minl1 solve does not, and both see --tol and --max-iters.
        settings = []
        solve_program = schemes.solve

        def recording(program, **kwargs):
            settings.append((kwargs["tol"], kwargs["max_iters"]))
            return solve_program(program, **kwargs)

        monkeypatch.setattr(schemes, "solve", recording)
        code = main(["bench", "--max-qubits", "2", "--schemes", "minl1", "--max-iters", "20"])
        assert code == 2
        assert "status=max_iters" in capsys.readouterr().err
        assert settings == [(1e-8, 20), (1e-8, 20)]

    def test_unconverged_bench_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(["bench", "--max-qubits", "2", "--schemes", "med",
                     "--max-iters", "1", "--out", str(out)])
        assert code == 2
        assert "status=max_iters" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_scheme_rejected(self):
        assert main(["bench", "--schemes", "med,warp"]) == 1

    @pytest.mark.parametrize("low, high", [(9, 13), (3, 2), (0, 2)])
    def test_qubit_range_checked_before_solving(self, tmp_path, capsys, low, high):
        out = tmp_path / "bench.json"
        started = time.perf_counter()
        code = main(["bench", "--min-qubits", str(low), "--max-qubits", str(high),
                     "--schemes", "med", "--out", str(out)])
        assert code == 1 and time.perf_counter() - started < 1.0
        assert (f"usage error: need 1 <= --min-qubits <= --max-qubits <= 12, got {low} and {high}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_zero_budget_stops_before_any_row(self, capsys):
        code, report = run_json(capsys, ["bench", "--max-qubits", "2", "--schemes", "med",
                                         "--budget-seconds", "0"])
        assert code == 0
        assert report["budget_exhausted"] is True and report["rows"] == []


def written_povm(tmp_path, size, k, **header):
    """A POVM file of a random ``size``-dimensional POVM of ``k`` states, with ``header``."""
    path = tmp_path / "input-povm.json"
    path.write_text(json.dumps({**povm_payload(random_povm(size, k, np.random.default_rng(2))),
                                **header}, default=np.ndarray.tolist))
    return path


@pytest.mark.parametrize("command, code, message", [
    pytest.param(lambda tmp, problem: ["solve", "--problem", str(problem), "--scheme", "minl1",
                                       "--reference", str(written_povm(tmp, 4, 2))],
                 1, "POVM identifies 2 states, instance has 3", id="solve-reference-states"),
    pytest.param(lambda tmp, problem: ["dilate", "--povm", str(written_povm(tmp, 2, 2, dim=4))],
                 2, r"invalid POVM file: element shape \(2, 2\) does not match dim 4",
                 id="dilate-element-shape"),
    pytest.param(lambda tmp, problem: ["dilate", "--povm", str(written_povm(tmp, 3, 2))],
                 1, "domain dimension 3 is not a power of two", id="dilate-dim-3"),
])
def test_rejected_input_file(tmp_path, problem_file, capsys, command, code, message):
    out = tmp_path / "out.json"
    assert main(command(tmp_path, problem_file) + ["--out", str(out)]) == code
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()
