import json
import math
import time

import numpy as np
import pytest

from qsdkit import (
    DensityMatrix,
    ProblemSpec,
    PureState,
    dilate,
    make_benchmark_two_qubit_states,
    make_coherent_state,
)
from qsdkit.serialize import (
    BENCH_REPORT_SCHEMA,
    canonical_dumps,
    decode_complex_matrix,
    decode_complex_vector,
    encode_complex_matrix,
    povm_payload,
    read_isometry,
    read_povm,
    read_problem,
    read_sweep_csv,
    validate_bench_report,
    write_isometry,
    write_povm,
    write_problem,
    write_sweep_csv,
)
from qsdkit.states import MAX_QUBITS
from conftest import random_povm


class TestCanonicalJson:
    def test_floats_round_trip_exactly(self):
        values = [1.0 / 3.0, 0.1, 1e-300, -2.5e17, math.pi, 1e-17, 0.0, -0.0]
        text = canonical_dumps({"values": values})
        parsed = json.loads(text)
        for original, reread in zip(values, parsed["values"]):
            assert reread == original

    def test_keys_sorted(self):
        text = canonical_dumps({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_dumps({"x": math.inf})

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            canonical_dumps({"x": object()})


class TestCanonicalLayout:
    def test_exact_text_of_mixed_payload(self):
        payload = {"array": np.array([[1.5, -0.0], [1e16, 2.0]]), "int": 3,
                   "flag": True, "none": None, "neg_zero": -0.0, "one": 1.0,
                   "big": 1e16, "empty_list": [], "empty_obj": {}}
        assert canonical_dumps(payload) == (
            '{\n'
            '  "array": [\n'
            '    [\n'
            '      1.5,\n'
            '      -0.0\n'
            '    ],\n'
            '    [\n'
            '      10000000000000000,\n'
            '      2.0\n'
            '    ]\n'
            '  ],\n'
            '  "big": 10000000000000000,\n'
            '  "empty_list": [],\n'
            '  "empty_obj": {},\n'
            '  "flag": true,\n'
            '  "int": 3,\n'
            '  "neg_zero": -0.0,\n'
            '  "none": null,\n'
            '  "one": 1.0\n'
            '}')

    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 2), (4, 1, 2), (0,), (2, 0),
                                       (0, 3), (3, 0, 2)])
    def test_array_matches_nested_lists(self, rng, shape):
        for _ in range(3):
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, size=shape)
            mask = rng.random(shape)
            a[mask < 0.2] = 0.0
            a[(mask >= 0.2) & (mask < 0.3)] = -0.0
            a[mask > 0.8] = np.round(a[mask > 0.8])
            for indent in (0, 2, 6):
                assert canonical_dumps(a, indent) == canonical_dumps(a.tolist(), indent)
                assert canonical_dumps({"x": a}) == canonical_dumps({"x": a.tolist()})

    def test_non_float_arrays_written_as_lists(self):
        a = np.array([[1, 2], [3, 4]])
        assert canonical_dumps(a) == canonical_dumps(a.tolist())
        assert canonical_dumps(np.array([True, False])) == canonical_dumps([True, False])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_array_rejects_non_finite(self, bad):
        a = np.zeros((2, 3, 2))
        a[1, 2, 0] = bad
        with pytest.raises(ValueError):
            canonical_dumps({"matrix": a})

    def test_payload_file_matches_list_payload(self, rng):
        povm = random_povm(4, 3, rng, inconclusive=True)
        payload = povm_payload(povm, meta={"seed": 0})
        as_lists = {**payload, "elements": [
            {"label": e["label"], "matrix": e["matrix"].tolist()}
            for e in payload["elements"]]}
        assert canonical_dumps(payload) == canonical_dumps(as_lists)


def _null(m):
    m[0][0][0] = None


def _string(m):
    m[0][0][1] = "0.0"


def _ragged(m):
    m[1].pop()


def _re_only(m):
    for row in m:
        row[:] = [[re] for re, _ in row]


class TestMalformedEntries:
    @pytest.mark.parametrize("defect", [_null, _string, _ragged, _re_only])
    def test_matrix_decoder_names_field(self, defect):
        m = encode_complex_matrix(np.eye(2)).tolist()
        defect(m)
        with pytest.raises(ValueError, match="elements.0..matrix"):
            decode_complex_matrix(m, "elements[0].matrix")

    @pytest.mark.parametrize("defect", [
        lambda v: v[0].__setitem__(0, None),
        lambda v: v[1].__setitem__(1, "0.0"),
        lambda v: v[1].pop(),
        lambda v: v.__setitem__(slice(None), [[re] for re, _ in v]),
    ])
    def test_vector_decoder_names_field(self, defect):
        v = [[1.0, 0.0], [0.0, 1.0]]
        defect(v)
        with pytest.raises(ValueError, match="amplitudes"):
            decode_complex_vector(v, "amplitudes")

    def test_decoders_copy_bits(self):
        values = [[1.0 / 3.0, -0.0], [1e-300, -2.5e17]]
        v = decode_complex_vector(values)
        assert v.tobytes() == np.array(values).tobytes()
        m = decode_complex_matrix([values, values])
        assert m.shape == (2, 2)
        assert m.tobytes() == np.array([values, values]).tobytes()

    @pytest.mark.parametrize("kind", ["povm", "problem", "isometry"])
    @pytest.mark.parametrize("defect", [_null, _string, _ragged, _re_only])
    def test_file_readers_raise_value_error(self, tmp_path, rng, kind, defect):
        path = tmp_path / f"{kind}.json"
        if kind == "povm":
            write_povm(path, random_povm(2, 2, rng))
            data = json.loads(path.read_text())
            defect(data["elements"][1]["matrix"])
            field, reader = "elements.1..matrix", read_povm
        elif kind == "problem":
            write_problem(path, ProblemSpec.from_states(make_benchmark_two_qubit_states()))
            data = json.loads(path.read_text())
            defect(data["states"][2]["matrix"])
            field, reader = "states.2.: matrix", read_problem
        else:
            write_isometry(path, dilate(random_povm(2, 2, rng)))
            data = json.loads(path.read_text())
            defect(data["matrix"])
            field, reader = "matrix", read_isometry
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=field):
            reader(path)


class TestNullFields:
    """A ``null`` (or otherwise non-numeric) header field raises ValueError naming it."""

    @pytest.mark.parametrize("field", ["domain_dim", "target_qubits", "total_rank", "delta"])
    def test_isometry_field(self, tmp_path, rng, field):
        path = tmp_path / "iso.json"
        write_isometry(path, dilate(random_povm(2, 2, rng)))
        data = json.loads(path.read_text())
        data[field] = None
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=field):
            read_isometry(path)

    def test_povm_dim(self, tmp_path, rng):
        path = tmp_path / "povm.json"
        write_povm(path, random_povm(2, 2, rng))
        data = json.loads(path.read_text())
        data["dim"] = None
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="dim"):
            read_povm(path)

    def test_problem_num_qubits(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"num_qubits": None, "states": []}))
        with pytest.raises(ValueError, match="num_qubits"):
            read_problem(path)

    # Integer header fields take only a JSON integer, and delta only a finite
    # JSON number: no float, bool or string is coerced.
    @pytest.mark.parametrize("field, value", [
        *((field, value) for field in ("domain_dim", "target_qubits", "total_rank", "dim",
                                       "num_qubits") for value in (2.5, True, "2")),
        *(("delta", value) for value in (True, "2", "1e-3", float("nan"))),
        pytest.param("delta", 10 ** 400, id="delta-1e400")])
    def test_header_field_type(self, tmp_path, rng, field, value):
        path = tmp_path / "file.json"
        if field == "dim":
            write_povm(path, random_povm(2, 2, rng))
            reader = read_povm
        elif field == "num_qubits":
            write_problem(path, ProblemSpec.from_states(make_benchmark_two_qubit_states()))
            reader = read_problem
        else:
            write_isometry(path, dilate(random_povm(2, 2, rng)))
            reader = read_isometry
        data = json.loads(path.read_text())
        data[field] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"^{field} must be"):
            reader(path)

    @pytest.mark.parametrize("a, field", [([0.2, None, 0.7], r"a\[1\]"),
                                          ([0.2, "0.5", 0.7], r"a\[1\]"),
                                          (None, "a must be a list")])
    def test_benchmark2q_amplitudes(self, tmp_path, a, field):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"num_qubits": 2,
                                    "states": [{"type": "benchmark2q", "a": a}]}))
        with pytest.raises(ValueError, match=r"states\[0\]: " + field):
            read_problem(path)

    @pytest.mark.parametrize("prior", [None, "0.5", float("nan"),
                                       pytest.param(10 ** 400, id="1e400")])
    def test_problem_prior(self, tmp_path, prior):
        path = tmp_path / "problem.json"
        write_problem(path, ProblemSpec.from_states(make_benchmark_two_qubit_states()))
        data = json.loads(path.read_text())
        data["priors"][1] = prior
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=r"priors\[1\]"):
            read_problem(path)


class TestIsometryHeader:
    @pytest.mark.parametrize("field, mutate", [
        ("target_qubits", lambda d: d.update(target_qubits=d["target_qubits"] + 1)),
        ("domain_dim", lambda d: d.update(domain_dim=d["domain_dim"] + 1)),
        ("outcome_map", lambda d: d["outcome_map"].pop()),
        ("matrix", lambda d: d["matrix"].pop()),
    ])
    def test_disagreeing_header_rejected(self, tmp_path, rng, field, mutate):
        path = tmp_path / "iso.json"
        write_isometry(path, dilate(random_povm(4, 2, rng), delta=1e-3))
        data = json.loads(path.read_text())
        mutate(data)
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=field):
            read_isometry(path)

    @pytest.mark.parametrize("target_qubits", [10 ** 8, 10 ** 18, -1])
    def test_target_qubits_out_of_range(self, tmp_path, rng, target_qubits):
        # The check never forms 2 ** target_qubits, which took a second at 10**8
        # and then failed on Python's int-to-string limit.
        path = tmp_path / "iso.json"
        write_isometry(path, dilate(random_povm(2, 2, rng)))
        data = json.loads(path.read_text())
        data["target_qubits"] = target_qubits
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"target_qubits {target_qubits} needs"):
            read_isometry(path)
        assert time.perf_counter() - start < 0.5


class TestFileRoundTrips:
    def test_povm_file_bit_identical(self, tmp_path, rng):
        povm = random_povm(4, 3, rng, inconclusive=True)
        path = tmp_path / "povm.json"
        write_povm(path, povm, meta={"tool": "qsdkit", "seed": 0})
        first = path.read_bytes()
        reread = read_povm(path)
        write_povm(path, reread, meta={"tool": "qsdkit", "seed": 0})
        assert path.read_bytes() == first
        for a, b in zip(povm.elements, reread.elements):
            np.testing.assert_array_equal(a, b)
        assert reread.labels == povm.labels

    def test_isometry_file_bit_identical(self, tmp_path, rng):
        dil = dilate(random_povm(4, 2, rng), delta=1e-3)
        path = tmp_path / "iso.json"
        write_isometry(path, dil)
        first = path.read_bytes()
        reread = read_isometry(path)
        write_isometry(path, reread)
        assert path.read_bytes() == first
        np.testing.assert_array_equal(dil.isometry, reread.isometry)
        assert reread.outcome_map == dil.outcome_map
        assert reread.delta == dil.delta

    def test_problem_file_bit_identical(self, tmp_path):
        spec = ProblemSpec.from_states(make_benchmark_two_qubit_states((0.2, 0.5, 0.7)))
        path = tmp_path / "problem.json"
        write_problem(path, spec)
        first = path.read_bytes()
        reread = read_problem(path)
        write_problem(path, reread)
        assert path.read_bytes() == first
        assert reread.num_states == 3
        np.testing.assert_array_equal(reread.priors, spec.priors)

    def test_sweep_csv_round_trip(self, tmp_path):
        rows = [(1e-6, 0.9, 0.05, 0.05, 0.05 / 0.9), (1.0, 1.0 / 3, 2.0 / 3, 0.0, 2.0)]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        reread = read_sweep_csv(path)
        for a, b in zip(rows, reread):
            assert a == pytest.approx(b, abs=0)

    def test_sweep_lambda_scientific_notation(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, [(1e-6, 1.0, 0.0, 0.0, 0.0)])
        line = path.read_text().splitlines()[1]
        assert line.startswith("1.0000000000e-06,")


class TestProblemEntries:
    def test_expansion_of_benchmark_entry(self, tmp_path):
        payload = {"num_qubits": 2,
                   "states": [{"type": "benchmark2q", "a": [0.2, 0.5, 0.7]}]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(payload))
        spec = read_problem(path)
        assert spec.num_states == 3
        np.testing.assert_allclose(spec.priors, np.full(3, 1 / 3))
        expected = make_benchmark_two_qubit_states((0.2, 0.5, 0.7))
        for got, psi in zip(spec.states, expected):
            np.testing.assert_allclose(got.matrix,
                                       np.outer(psi.amplitudes, psi.amplitudes.conj()),
                                       atol=1e-14)

    def test_coherent_and_pure_entries(self, tmp_path):
        payload = {
            "num_qubits": 2,
            "states": [
                {"type": "coherent", "alpha": [1.0, 0.0]},
                {"type": "pure", "amplitudes": [[1.0, 0.0], [0.0, 0.0],
                                                [0.0, 0.0], [0.0, 0.0]]},
            ],
            "priors": [0.25, 0.75],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(payload))
        spec = read_problem(path)
        assert spec.num_states == 2
        coh = make_coherent_state(1.0, 2)
        np.testing.assert_allclose(spec.states[0].matrix,
                                   np.outer(coh.amplitudes, coh.amplitudes.conj()),
                                   atol=1e-14)
        np.testing.assert_array_equal(spec.priors, [0.25, 0.75])

    def test_unknown_entry_type(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"num_qubits": 1,
                                    "states": [{"type": "wobble"}]}))
        with pytest.raises(ValueError):
            read_problem(path)

    @pytest.mark.parametrize("num_qubits", [MAX_QUBITS + 1, 10 ** 18])
    def test_num_qubits_range_checked_first(self, tmp_path, num_qubits):
        # The range is checked before any entry is expanded: the unknown entry
        # type would raise otherwise.
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"num_qubits": num_qubits, "states": [{"type": "wobble"}]}))
        with pytest.raises(ValueError, match=f"^num_qubits must be in 1..{MAX_QUBITS}, "
                                             f"got {num_qubits}$"):
            read_problem(path)

    def test_max_qubits_passes_the_range_check(self, tmp_path):
        # A too-short pure entry then gives the dimension error instead.
        path = tmp_path / "p.json"
        pure = {"type": "pure", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
        path.write_text(json.dumps({"num_qubits": MAX_QUBITS, "states": [pure, pure]}))
        with pytest.raises(ValueError, match=f"^state dimension 2 does not match "
                                             f"num_qubits {MAX_QUBITS}$"):
            read_problem(path)

    def test_dimension_check(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"num_qubits": 3,
                                    "states": [{"type": "benchmark2q",
                                                "a": [0.1, 0.2, 0.3]}]}))
        with pytest.raises(ValueError):
            read_problem(path)

    @pytest.mark.parametrize("dims", [(4, 4), (2, 4)])
    def test_state_dimension_must_match_num_qubits(self, tmp_path, dims):
        states = [{"type": "pure", "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * (d - 1)}
                  for d in dims]
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"num_qubits": 1, "states": states}))
        with pytest.raises(ValueError, match="state dimension 4 does not match num_qubits 1"):
            read_problem(path)

    def test_spec_matches_from_states(self, tmp_path):
        payload = {"num_qubits": 1,
                   "states": [{"type": "pure", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
                              {"type": "pure", "amplitudes": [[0.6, 0.0], [0.0, 0.8]]},
                              {"type": "density", "matrix": [[[0.5, 0.0], [0.0, 0.0]],
                                                             [[0.0, 0.0], [0.5, 0.0]]]}]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(payload))
        spec = read_problem(path)
        want = ProblemSpec.from_states([PureState(np.array([1.0, 0.0])),
                                        PureState(np.array([0.6, 0.8j])),
                                        DensityMatrix(np.eye(2) / 2)])
        assert spec.noise_lambda == 0.0
        np.testing.assert_array_equal(spec.priors, want.priors)
        for got, s in zip(spec.states, want.states):
            np.testing.assert_array_equal(got.matrix, s.matrix)


class TestBenchSchema:
    def test_valid_report(self):
        report = {"meta": {"tool": "qsdkit", "version": "0.1.0", "tol": 1e-8,
                           "seed": 0},
                  "rows": [{"scheme": "med", "qubits": 2, "task": "solve",
                            "seconds": 0.5}]}
        validate_bench_report(report)

    def test_schema_constant_shape(self):
        assert BENCH_REPORT_SCHEMA["required"] == ["meta", "rows"]
        assert "solve" in (BENCH_REPORT_SCHEMA["properties"]["rows"]["items"]
                           ["properties"]["task"]["enum"])

    # A JSON boolean is no number, although Python's bool is an int.
    @pytest.mark.parametrize("field", ["qubits", "seconds"])
    def test_boolean_number_rejected(self, field):
        report = {"meta": {"tool": "qsdkit", "version": "0.1.0", "tol": 1e-8,
                           "seed": 0},
                  "rows": [{"scheme": "med", "qubits": 2, "task": "solve",
                            "seconds": 0.5}]}
        report["rows"][0][field] = True
        with pytest.raises(ValueError, match=field):
            validate_bench_report(report)

    @pytest.mark.parametrize("mutation", [
        lambda r: r.pop("rows"),
        lambda r: r["meta"].pop("tol"),
        lambda r: r["rows"][0].update(task="fold"),
        lambda r: r["rows"][0].update(seconds=-1.0),
        lambda r: r["rows"][0].update(qubits=0),
        lambda r: r["rows"][0].pop("scheme"),
    ])
    def test_invalid_reports_rejected(self, mutation):
        report = {"meta": {"tool": "qsdkit", "version": "0.1.0", "tol": 1e-8,
                           "seed": 0},
                  "rows": [{"scheme": "med", "qubits": 2, "task": "solve",
                            "seconds": 0.5}]}
        mutation(report)
        with pytest.raises(ValueError):
            validate_bench_report(report)


def read_edited(tmp_path, kind, edit):
    """Write a valid ``kind`` file, apply ``edit`` to its JSON, and read it back.

    An entry that ``edit`` sets to ``"1e999"`` is written as that bare number,
    which JSON reads as infinity.
    """
    path = tmp_path / f"{kind}.json"
    rng = np.random.default_rng(3)
    if kind == "povm":
        write_povm(path, random_povm(2, 2, rng))
    elif kind == "problem":
        write_problem(path, ProblemSpec.from_states(make_benchmark_two_qubit_states()))
    else:
        write_isometry(path, dilate(random_povm(2, 2, rng)))
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data).replace('"1e999"', "1e999"))
    return {"povm": read_povm, "problem": read_problem, "isometry": read_isometry}[kind](path)


def set_entry(value, *keys):
    """An edit that sets the first real part of the matrix at ``keys`` to ``value``."""
    def edit(data):
        for key in keys:
            data = data[key]
        data[0][0][0] = value
    return edit


def read_sweep_text(tmp_path, text):
    path = tmp_path / "sweep.csv"
    path.write_text(text)
    return read_sweep_csv(path)


MATRICES = {"povm": ("elements", 1, "matrix"), "problem": ("states", 2, "matrix"),
            "isometry": ("matrix",)}


@pytest.mark.parametrize("call, error, message", [
    *(pytest.param(lambda tmp, kind=kind, value=value:
                   read_edited(tmp, kind, set_entry(value, *MATRICES[kind])),
                   ValueError, "matrix holds a non-finite entry", id=f"{kind}-{value}")
      for kind in MATRICES for value in (math.nan, "1e999")),
    pytest.param(lambda tmp: read_edited(tmp, "povm",
                                         lambda d: d["elements"][0].update(label="maybe")),
                 ValueError, "unknown label 'maybe'", id="povm-label"),
    pytest.param(lambda tmp: read_edited(tmp, "povm",
                                         lambda d: d.update(dim=10 ** 6, elements=[])),
                 ValueError, "at least one element", id="povm-no-elements"),
    pytest.param(lambda tmp: canonical_dumps({1: 2.0}),
                 TypeError, "keys must be strings", id="integer-key"),
    pytest.param(lambda tmp: write_problem(tmp / "p.json", ProblemSpec.from_states(
        [DensityMatrix(np.diag([1.0, 0.0, 0.0])), DensityMatrix(np.eye(3) / 3)])),
                 ValueError, "power-of-two", id="problem-dim-3"),
    pytest.param(lambda tmp: read_sweep_text(tmp, "lambda,p_succ\n"),
                 ValueError, "unexpected sweep header", id="sweep-header"),
])
def test_rejected_input(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)
