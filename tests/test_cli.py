import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qretro
from qretro import estimators
from qretro.cli import main
from qretro.scenario import (
    decode_channel,
    decode_complex_matrix,
    encode_complex_matrix,
    encode_real_matrix,
    encode_real_vector,
    run_scenario,
    serialize_report,
)
from qretro.selftest import run_selftest

IDENTITY_2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def personick_scenario():
    return {
        "kind": "personick",
        "rho": [[[0.6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.0]]],
        "x": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
        "channel": {"kraus": [IDENTITY_2]},
    }


def test_matrix_round_trip(gen):
    m = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
    encoded = encode_complex_matrix(m)
    np.testing.assert_array_equal(decode_complex_matrix(encoded), m)


def _f17_reference(v):
    return float(f"{v:.17g}")


def test_array_encoders_match_per_element_f17(gen):
    # the per-element encoding the array encoders replace, kept as reference
    special = np.array([0.0, -0.0, 5e-324, -2.2250738585072e-308, 1.5e-310,
                        1.7976931348623157e308, -1e300, 1e-300, 1 / 3, -2 / 3])
    real = np.concatenate([special, gen.standard_normal(30) * 10.0 ** gen.integers(
        -300, 300, 30)]).reshape(8, 5)
    cplx = real + 1j * real[::-1]
    old_complex = [[[_f17_reference(v.real), _f17_reference(v.imag)] for v in row]
                   for row in cplx]
    old_matrix = [[_f17_reference(float(v)) for v in row] for row in real]
    assert json.dumps(encode_complex_matrix(cplx)) == json.dumps(old_complex)
    assert json.dumps(encode_real_matrix(real)) == json.dumps(old_matrix)
    assert json.dumps(encode_real_vector(special)) == json.dumps(
        [_f17_reference(float(v)) for v in special])


def test_run_personick_identity():
    report = run_scenario(personick_scenario())
    est = decode_complex_matrix(report["results"]["estimator"])
    np.testing.assert_allclose(est, np.diag([1.0, -1.0]), atol=1e-9)
    assert abs(report["results"]["min_risk"]) <= 1e-9


def test_run_classical_bsc():
    report = run_scenario({
        "kind": "classical",
        "px": [0.5, 0.5],
        "xvals": [0.0, 1.0],
        "transition": [[0.8, 0.2], [0.2, 0.8]],
    })
    assert report["results"]["estimates"][0] == pytest.approx(0.2, abs=1e-12)
    assert report["results"]["estimates"][1] == pytest.approx(0.8, abs=1e-12)


def test_run_weak_value_scenario():
    report = run_scenario({
        "kind": "weak-value",
        "rho": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        "x": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
        "povm": {
            "effects": [
                [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
                [[[0.5, 0.0], [-0.5, 0.0]], [[-0.5, 0.0], [0.5, 0.0]]],
            ],
            "labels": ["+", "-"],
        },
    })
    for entry in report["results"]["outcomes"]:
        assert entry["probability"] == pytest.approx(0.5, abs=1e-12)
        assert entry["weak_value"] == pytest.approx(0.0, abs=1e-12)


def test_run_qfi_mono_sweep_scenario():
    report = run_scenario({
        "kind": "qfi-mono",
        "sweep": {"count": 20, "dims": [2, 3]},
        "seed": 11,
    })
    results = report["results"]
    assert results["all_monotone"]
    assert results["min_slack"] >= -1e-8
    assert results["max_risk_gap"] <= 1e-8
    assert len(results["rows"]) == 20


def test_run_gaussian_scenario():
    report = run_scenario({
        "kind": "gaussian",
        "state": {"mean": [0.0, 0.0], "covariance": [[0.5, 0.0], [0.0, 0.5]]},
        "effect": {"mean": [2.0, 0.0], "covariance": [[0.5, 0.0], [0.0, 0.5]]},
        "x": {"coeffs": [1.0, 0.0], "offset": 0.0},
        "numeric_check": True,
    })
    assert report["results"]["estimate"] == pytest.approx(1.0, abs=1e-12)
    assert report["results"]["numeric_gap"] <= 1e-6


def gaussian_scenario(state_cov, effect_cov):
    return {
        "kind": "gaussian",
        "state": {"mean": [0.0, 0.0], "covariance": state_cov},
        "effect": {"mean": [1.0, 0.0], "covariance": effect_cov},
        "x": {"coeffs": [1.0, 0.0]},
    }


VACUUM = [[0.5, 0.0], [0.0, 0.5]]
SUB_VACUUM = [[0.01, 0.0], [0.0, 0.01]]


@pytest.mark.parametrize("state_cov, effect_cov", [(SUB_VACUUM, VACUUM),
                                                   (VACUUM, SUB_VACUUM)])
def test_gaussian_scenario_rejects_sub_vacuum_covariance(tmp_path, capsys,
                                                         state_cov, effect_cov):
    sc = gaussian_scenario(state_cov, effect_cov)
    rc = main(["gaussian", "--input", _write(tmp_path, sc), "--quiet"])
    assert rc == 1
    assert "error: uncertainty:" in capsys.readouterr().err


@pytest.mark.parametrize("part, field, value", [
    ("state", "mean", [float("nan"), 0.0]),
    ("effect", "weight", float("inf")),
])
def test_gaussian_scenario_rejects_non_finite_input(tmp_path, capsys, part, field,
                                                    value):
    sc = gaussian_scenario(VACUUM, VACUUM)
    sc[part][field] = value
    rc = main(["gaussian", "--input", _write(tmp_path, sc), "--quiet"])
    assert rc == 1
    assert "error: finite:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["false", 0, []])
def test_gaussian_numeric_check_must_be_a_boolean(tmp_path, capsys, value):
    sc = gaussian_scenario(VACUUM, VACUUM)
    sc["numeric_check"] = value
    rc = main(["gaussian", "--input", _write(tmp_path, sc), "--quiet"])
    assert rc == 1
    assert "error: parse: field 'numeric_check'" in capsys.readouterr().err


def test_gaussian_numeric_check_false_skips_the_oracle():
    sc = gaussian_scenario(VACUUM, VACUUM)
    sc["numeric_check"] = False
    assert "numeric_estimate" not in run_scenario(sc)["results"]


def test_gaussian_scenario_accepts_vacuum():
    # V + iΩ/2 has smallest eigenvalue exactly 0 at the vacuum I/2
    report = run_scenario(gaussian_scenario(VACUUM, VACUUM))
    assert report["results"]["estimate"] == pytest.approx(0.5, abs=1e-12)


def test_run_risk_scenario():
    sc = personick_scenario()
    sc["kind"] = "risk"
    sc["xcheck"] = sc["x"]
    report = run_scenario(sc)
    assert report["results"]["risk"] == pytest.approx(0.0, abs=1e-12)


def test_report_round_trip():
    report = run_scenario(personick_scenario())
    text = serialize_report(report)
    assert json.loads(text) == report


def test_selftest_deterministic_across_runs():
    a = run_selftest(seed=7)
    b = run_selftest(seed=7)
    assert json.dumps(a["results"], sort_keys=True) == \
        json.dumps(b["results"], sort_keys=True)
    assert a["results"]["all_passed"]


def test_selftest_seed_variation_passes():
    for seed in (1, 2, 3):
        assert run_selftest(seed=seed)["results"]["all_passed"]


def _write(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scenario))
    return str(path)


def test_cli_personick(tmp_path, capsys):
    path = _write(tmp_path, personick_scenario())
    out = tmp_path / "report.json"
    rc = main(["personick", "--input", path, "--output", str(out), "--quiet"])
    assert rc == 0
    report = json.loads(out.read_text())
    assert abs(report["results"]["min_risk"]) <= 1e-9


def test_cli_corrupted_channel_names_cptp(tmp_path, capsys):
    sc = personick_scenario()
    halved = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    sc["channel"] = {"kraus": [halved]}
    rc = main(["personick", "--input", _write(tmp_path, sc), "--quiet"])
    assert rc == 1
    assert "cptp" in capsys.readouterr().err


def test_cli_kind_mismatch(tmp_path, capsys):
    rc = main(["risk", "--input", _write(tmp_path, personick_scenario()), "--quiet"])
    assert rc == 1


def test_cli_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc = main(["personick", "--input", str(path), "--quiet"])
    assert rc == 1


def test_cli_selftest_deterministic(tmp_path):
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main(["selftest", "--seed", "7", "--output", str(out), "--quiet"])
        assert rc == 0
        outputs.append(json.loads(out.read_text()))
    assert json.dumps(outputs[0]["results"], sort_keys=True) == \
        json.dumps(outputs[1]["results"], sort_keys=True)


def test_cli_entry_point_subprocess(tmp_path):
    path = _write(tmp_path, personick_scenario())
    proc = subprocess.run(
        [sys.executable, "-m", "qretro.cli", "personick", "--input", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["scenario"]["kind"] == "personick"


@pytest.mark.parametrize("channel, field", [
    ({"partial_trace": {"dims": [2, 1]}}, "keep"),
    ({"partial_trace": {"keep": [0]}}, "dims"),
    ({"dilation": {"u": np.eye(2).tolist(), "env": [[1.0]], "dims": [2, 1],
                   "traced": [1]}}, "kept"),
    ({"partial_trace": [2, 1]}, "dims"),
])
def test_cli_channel_spec_missing_field(tmp_path, capsys, channel, field):
    sc = personick_scenario()
    sc["channel"] = channel
    rc = main(["personick", "--input", _write(tmp_path, sc), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parse:") and repr(field) in err


@pytest.mark.parametrize("rho", [
    "abc",  # a string
    None,
    5,  # a number, not a matrix
    [["1", 0.0], [0.0, "0"]],  # numeric strings are not numbers
    [[["0.5", "0"], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
    [[None, 0.0], [0.0, 1.0]],
    [[0.5, 0.0], [0.5]],  # ragged rows
    [[[0.5], [0.0]], [[0.0], [0.5]]],  # 1-element entries
    [[[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]],  # 3
    [[[]]],  # an empty entry
    [[10**400, 0], [0, 1]],  # an integer no float holds
    [[[[0.5, 0.0]]]],  # four levels deep
])
def test_cli_matrix_parse_errors(tmp_path, capsys, rho):
    sc = personick_scenario()
    sc["rho"] = rho
    rc = main(["personick", "--input", _write(tmp_path, sc), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parse:") and "'rho'" in err


def test_decode_real_and_pair_matrices_agree():
    real = [[0.5, -1.0], [2, 0.25]]
    pairs = [[[0.5, 0.0], [-1.0, 0.0]], [[2, 0], [0.25, 0.0]]]
    np.testing.assert_array_equal(decode_complex_matrix(real), np.array(real, complex))
    np.testing.assert_array_equal(decode_complex_matrix(pairs), np.array(real, complex))
    assert decode_complex_matrix([[True, False], [False, True]]).dtype == complex


def test_decode_mixed_and_wide_integer_matrices():
    # a real diagonal beside [re, im] pairs, the natural form of a Hermitian matrix
    mixed = [[0.5, [0.0, -0.5]], [[0.0, 0.5], 0.5]]
    np.testing.assert_array_equal(decode_complex_matrix(mixed),
                                  np.array([[0.5, -0.5j], [0.5j, 0.5]]))
    assert decode_complex_matrix([[2**70, 0], [0, 1]])[0, 0] == 2.0**70


def test_cli_classical_nan_transition(tmp_path, capsys):
    sc = {"kind": "classical", "px": [0.5, 0.5], "xvals": [0.0, 1.0],
          "transition": [[float("nan"), 0.5], [0.5, 0.5]]}
    rc = main(["classical", "--input", _write(tmp_path, sc), "--quiet"])
    assert rc == 1
    assert "error: finite:" in capsys.readouterr().err


@pytest.mark.parametrize("rho, x", [
    ((np.eye(3) / 3).tolist(), np.eye(3).tolist()),
    ((np.eye(2) / 2).tolist(), np.ones((2, 3)).tolist()),
])
def test_cli_weak_value_dimension_mismatch(tmp_path, capsys, rho, x):
    sc = {"kind": "weak-value", "rho": rho, "x": x,
          "povm": {"effects": [np.diag([1.0, 0.0]).tolist(),
                               np.diag([0.0, 1.0]).tolist()]}}
    rc = main(["weak-value", "--input", _write(tmp_path, sc), "--quiet"])
    assert rc == 1
    assert "error: shape:" in capsys.readouterr().err


POVM_EFFECTS = [np.diag([1.0, 0.0]).tolist(), np.diag([0.0, 1.0]).tolist()]


@pytest.mark.parametrize("channel, message", [
    ({"classical": "abc"}, "'classical'"),
    ({"depolarizing": [2]}, "'depolarizing'"),
    ({"identity": "x"}, "'identity'"),
    ({"kraus": 5}, "'kraus'"),
    ({"povm": {"effects": POVM_EFFECTS, "labels": 3}}, "'labels'"),
])
def test_cli_channel_spec_wrong_type(tmp_path, capsys, channel, message):
    sc = personick_scenario()
    sc["channel"] = channel
    rc = main(["personick", "--input", _write(tmp_path, sc), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parse:") and message in err


def test_cli_classical_non_numeric_xvals(tmp_path, capsys):
    sc = {"kind": "classical", "px": [0.5, 0.5], "xvals": ["a", 1.0],
          "transition": [[0.5, 0.5], [0.5, 0.5]]}
    rc = main(["classical", "--input", _write(tmp_path, sc), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parse:") and "'xvals'" in err


@pytest.mark.parametrize("sweep, message", [
    (5, "'sweep'"),
    ({"count": "x"}, "'count'"),
    ({"count": 0}, "'count'"),
    ({"dims": [0]}, "'dims'"),
    ({"dims": []}, "'dims'"),
    ({"dims": 3}, "'dims'"),
])
def test_cli_qfi_sweep_spec_boundary(tmp_path, capsys, sweep, message):
    sc = {"kind": "qfi-mono", "seed": 1, "sweep": sweep}
    rc = main(["qfi-mono", "--input", _write(tmp_path, sc), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parse:") and message in err


@pytest.mark.parametrize("scenario, invariant", [
    # the state and the effect barely overlap
    ({**gaussian_scenario(VACUUM, VACUUM), "effect": {"mean": [100.0, 0.0],
                                                      "covariance": VACUUM}}, "overlap"),
    # ρ(0) = diag(1, 0) and its derivative diag(−1, 1) leaves the support
    ({"kind": "qfi-mono", "family": {"type": "diagonal_line", "p0": [1.0, 0.0],
                                     "slope": [-1.0, 1.0]},
      "channel": {"depolarizing": 2}}, "rank"),
])
def test_cli_domain_errors_exit_cleanly(tmp_path, capsys, scenario, invariant):
    rc = main([scenario["kind"], "--input", _write(tmp_path, scenario), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {invariant}:")


def test_cli_has_no_tolerance_scale_option():
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--tol-scale", "2"])
    assert exc.value.code == 2


def test_residual_warning_is_recorded_once(monkeypatch):
    # warnings.warn is the one path: the estimator warns once, the report
    # lists the message once, and results carry no copy of it
    monkeypatch.setattr(estimators, "RESIDUAL_WARN", -1.0)
    sc = personick_scenario()
    args = (decode_complex_matrix(sc["rho"]), decode_complex_matrix(sc["x"]),
            decode_channel(sc["channel"]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        estimators.personick_estimator(*args)
    assert len(caught) == 1
    assert str(caught[0].message).startswith("normal-equation residual")
    report = run_scenario(sc)
    assert report["diagnostics"]["warnings"] == [str(caught[0].message)]
    assert "warning" not in report["results"]


def test_cli_scenario_not_an_object(tmp_path, capsys):
    rc = main(["personick", "--input", _write(tmp_path, [1, 2]), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: parse:")


def test_complex_results_keys():
    sc = dict(personick_scenario(), kind="complex")
    assert sorted(run_scenario(sc)["results"]) == ["estimator", "min_risk", "residual"]


SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_report_file_is_one_line_of_strict_json(tmp_path, path):
    kind = json.loads(path.read_text())["kind"]
    texts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main([kind, "--input", str(path), "--output", str(out), "--quiet"]) == 0
        texts.append(out.read_text())
    reports = []
    for text in texts:
        assert text.endswith("\n") and text.count("\n") == 1
        report = json.loads(text, parse_constant=_reject_constant)
        assert serialize_report(report) + "\n" == text
        assert report["scenario"] == json.loads(path.read_text())
        reports.append(report)
    first, second = (json.dumps(r["results"], sort_keys=True) for r in reports)
    assert first == second
    assert all(r["diagnostics"]["elapsed_s"] >= 0 for r in reports)


PROVENANCE = {"qretro": qretro.__version__, "numpy": np.__version__,
              "python": "%d.%d.%d" % sys.version_info[:3]}


def test_scenario_reports_record_provenance():
    assert run_scenario(personick_scenario())["diagnostics"]["provenance"] == PROVENANCE


def test_selftest_diagnostics_time_each_check():
    report = run_selftest(seed=1)
    diagnostics = report["diagnostics"]
    assert diagnostics["provenance"] == PROVENANCE
    names = [check["name"] for check in report["results"]["checks"]]
    elapsed = diagnostics["check_elapsed_s"]
    assert list(elapsed) == names
    assert all(t >= 0 for t in elapsed.values())
    assert sum(elapsed.values()) <= diagnostics["elapsed_s"]
    assert "elapsed" not in json.dumps(report["results"])
