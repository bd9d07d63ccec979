"""Each check accepts the program's output and rejects a perturbed copy.

    python3 -m pytest -q qsdbench/test_checks.py

The outputs come from small solves and ``qsd`` calls on the |0>, |+> pair
and the two-qubit ensemble; no timed workload runs.
"""

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from qsdkit import schemes, serialize  # noqa: E402


def solve(inst, name, **params):
    return workloads.solved(schemes.solve_scheme(workloads.spec_of(inst), name, **params))


@pytest.fixture(scope="module")
def pair_med():
    inst = workloads.pair()
    return inst, solve(inst, "med")


@pytest.fixture(scope="module")
def ensemble_frio():
    inst = workloads.ensemble(0.0)
    return inst, solve(inst, "frio", rate=0.1)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """POVM, problem, exact isometry, shots report and sweep of the ensemble's MED POVM."""
    tmp = tmp_path_factory.mktemp("pipeline")
    inst = workloads.ensemble(0.0)
    result = schemes.solve_scheme(workloads.spec_of(inst), "med")
    povm, problem, iso, csv = (tmp / name for name in ("povm.json", "problem.json", "iso.json", "sweep.csv"))
    serialize.write_povm(povm, result.povm)
    workloads.problem_file(problem, inst)
    summary = workloads.qsd("dilate", "--povm", povm, "--out", iso)
    shots = workloads.qsd("simulate", "--isometry", iso, "--problem", problem,
                          "--shots", 2000, "--seed", 5, "--lambda", 0.01)
    workloads.qsd("simulate", "--isometry", iso, "--problem", problem,
                  "--lambda-sweep", "1e-6:1:23", "--out", csv)
    elements, labels = checks.load_povm(povm.read_text())
    return inst, elements, labels, summary, iso.read_text(), shots, csv.read_text()


def test_solve_checks_accept_program_output(pair_med, ensemble_frio):
    inst, out = pair_med
    checks.check_scheme(inst, "med", {}, out, {})
    checks.check_two_pure(inst, "med", out["value"])
    inst, out = ensemble_frio
    checks.check_scheme(inst, "frio", {"rate": 0.1}, out, {})


def test_scaled_povm_element_rejected(pair_med):
    inst, out = pair_med
    scaled = dict(out, elements=(1.01 * out["elements"][0],) + tuple(out["elements"][1:]))
    with pytest.raises(CheckError, match="identity"):
        checks.check_scheme(inst, "med", {}, scaled, {})


def test_shifted_value_rejected(pair_med):
    inst, out = pair_med
    with pytest.raises(CheckError, match="value"):
        checks.check_scheme(inst, "med", {}, dict(out, value=out["value"] + 1e-4), {})
    with pytest.raises(CheckError, match="closed form"):
        checks.check_two_pure(inst, "med", out["value"] + 1e-4)


def test_suboptimal_povm_fails_med_certificate(pair_med):
    inst, out = pair_med
    basis = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    succ = checks.rates(checks.joint(inst, basis, (0, 1), 0.0))[0]
    with pytest.raises(CheckError, match="dual gap"):
        checks.check_scheme(inst, "med", {}, dict(out, elements=basis, labels=(0, 1), value=succ), {})


def test_constraint_margin_rejected(ensemble_frio):
    inst, out = ensemble_frio
    with pytest.raises(CheckError, match="P_inc"):
        checks.check_scheme(inst, "frio", {"rate": 0.1 + 1e-4}, dict(out), {})


def test_sweep_property_checks_reject():
    with pytest.raises(CheckError, match="increases"):
        checks.check_nonincreasing([0.9, 0.8, 0.8 + 1e-4], "success")
    with pytest.raises(CheckError, match="lambda=1"):
        checks.check_ratio_at_one(2.0 + 1e-4, 3)
    with pytest.raises(CheckError, match="pinned"):
        checks.check_crossqsd_ratios({1e-6: 0.00511 + 1e-3, 1e-2: 0.0101, 1.0: 2.0})


def test_dilation_checks_accept_program_output(pipeline):
    inst, elements, labels, summary, iso, shots, csv = pipeline
    checks.check_isometry(iso, summary, elements, labels, inst, 0.0, False, 0.01)
    checks.check_shots(shots, elements, labels, inst, 0.01, 2000)
    checks.check_sweep(csv, elements, labels, inst, np.geomspace(1e-6, 1.0, 23))


def test_dropped_isometry_row_rejected(pipeline):
    inst, elements, labels, summary, iso, _, _ = pipeline
    data = json.loads(iso)
    data["matrix"][0] = [[0.0, 0.0]] * len(data["matrix"][0])
    with pytest.raises(CheckError, match="V\\^\\+V"):
        checks.check_isometry(json.dumps(data), summary, elements, labels, inst, 0.0, False, 0.01)
    data = json.loads(iso)
    del data["matrix"][0]
    with pytest.raises(CheckError, match="shape"):
        checks.check_isometry(json.dumps(data), summary, elements, labels, inst, 0.0, False, 0.01)


def test_wrong_rank_rejected(pipeline):
    inst, elements, labels, summary, iso, _, _ = pipeline
    with pytest.raises(CheckError, match="total rank"):
        checks.check_isometry(iso, dict(summary, total_rank=summary["total_rank"] - 1),
                              elements, labels, inst, 0.0, False, 0.01)


def test_moved_counts_rejected(pipeline):
    inst, elements, labels, _, _, shots, _ = pipeline
    report = json.loads(json.dumps(shots))
    counts = report["per_state"][0]["counts"]
    moved = int(0.1 * report["shots"])
    counts["0"] -= moved
    counts["1"] += moved
    with pytest.raises(CheckError, match="counts"):
        checks.check_shots(report, elements, labels, inst, 0.01, 2000)


def test_shifted_sweep_value_rejected(pipeline):
    inst, elements, labels, _, _, _, csv = pipeline
    lines = csv.strip().split("\n")
    row = lines[5].split(",")
    row[1] = repr(float(row[1]) + 1e-4)
    lines[5] = ",".join(row)
    with pytest.raises(CheckError, match="sweep row"):
        checks.check_sweep("\n".join(lines), elements, labels, inst, np.geomspace(1e-6, 1.0, 23))
