import hashlib
import inspect
import json
import struct
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import qretro
from qretro import channels, estimators, fisher, selftest
from qretro import operator_core as core
from qretro.cli import main
from qretro.operator_core import ValidationError
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
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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
    ("x", "coeffs", [float("nan"), 0.0]),  # was filed under `shape`
])
def test_gaussian_scenario_rejects_non_finite_input(part, field, value):
    # a scenario file cannot hold NaN or Infinity; a scenario built in Python can
    sc = gaussian_scenario(VACUUM, VACUUM)
    sc[part][field] = value
    with pytest.raises(ValidationError, match="^finite:"):
        run_scenario(sc)


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


def test_gaussian_scenario_builds_the_product_once(monkeypatch):
    calls, product = [], qretro.gaussian.gaussian_product

    def counting_product(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(qretro.gaussian, "gaussian_product", counting_product)
    sc = gaussian_scenario(VACUUM, VACUUM)
    sc["numeric_check"] = False
    run_scenario(sc)
    assert len(calls) == 1


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


def test_selftest_seed_variation_passes():
    for seed in (1, 2, 3):
        report = run_selftest(seed=seed)
        assert report["results"]["all_passed"]
        assert report["diagnostics"]["warnings"] == []


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_selftest_fails_a_nan_figure(tmp_path, monkeypatch, capsys):
    # the builtin max drops a NaN; the selftest must not
    monkeypatch.setattr(selftest, "schrodinger_risk", lambda *args: float("nan"))
    out = tmp_path / "report.json"
    rc = main(["selftest", "--seed", "0", "--output", str(out)])
    assert rc == 3
    report = _strict_json(out.read_text())
    checks = {check["name"]: check for check in report["results"]["checks"]}
    for name in ("personick_optimality", "dilation_bridge"):
        assert not checks[name]["passed"] and checks[name]["worst"] is None
    assert not report["results"]["all_passed"]
    assert "FAIL  dilation_bridge: worst not finite" in capsys.readouterr().err


# --- planted faults: the selftest fails each one, and raises for none ----------------

def _mutant(fn, old, new):
    """`fn` compiled again from its source, with `old`, which occurs once, as `new`."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, old
    namespace = dict(fn.__globals__)
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]


# name: (module, attribute, (old source, new source) or a new value)
FAULTS = {
    "jordan-without-half": (core, "_jordan", ("(a @ b + b @ a) / 2", "(a @ b + b @ a)")),
    "transpose-for-dagger": (channels, "apply_channel",
                             ("t @ dagger(a)", "t @ a.swapaxes(-1, -2)")),
    "support-tol-1e-3": (core, "SUPPORT_TOL", 1e-3),
    "complex-rhs-rho-x": (estimators, "complex_estimator",
                          ("apply_channel(k, x @ rho)", "apply_channel(k, rho @ x)")),
    "povm-kraus-unconjugated": (channels, "channel_from_povm", ("vecs.conj()", "vecs")),
    "pushed-derivative-scaled": (fisher, "_channel_side",
                                 ("apply_channel(k, drho)",
                                  "(1 + 1e-7) * apply_channel(k, drho)")),
    "bayes-numerator-scaled": (estimators, "classical_conditional_expectation",
                               ("c.transition @ (px * xvals)",
                                "(1 + 1e-9) * c.transition @ (px * xvals)")),
    "environment-vectors-conjugated": (channels, "channel_from_dilation",
                                       ("vecs[:, :, None]", "vecs.conj()[:, :, None]")),
    "complex-weak-value-e-rho-x": (estimators, "complex_weak_value",
                                   ("p.effects @ x @ rho", "p.effects @ rho @ x")),
    "support-tol-0": (core, "SUPPORT_TOL", 0.0),
    "solve-jordan-every-nonzero-denominator": (
        core, "solve_jordan", ("keep = denom > SUPPORT_TOL * spectrum.wmax[..., None, None]",
                               "keep = denom != 0")),
    "cq-ensemble-vectors-conjugated": (channels, "channel_from_cq_ensemble",
                                       ("roots[:, None] * vecs", "roots[:, None] * vecs.conj()")),
    "sld-rank-change-unchecked": (fisher, "sld", ("leak > 1e-8 * scale", "leak > np.inf")),
}


def _plant(monkeypatch, fault):
    """Plant a fault in its module and in every qretro module that imported it by name."""
    module, name, change = FAULTS[fault]
    original = getattr(module, name)
    planted = _mutant(original, *change) if isinstance(change, tuple) else change
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "qretro" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, planted)


@pytest.mark.parametrize("fault", FAULTS)
def test_selftest_fails_a_planted_fault(monkeypatch, fault):
    _plant(monkeypatch, fault)
    report = run_selftest(seed=0)
    assert not report["results"]["all_passed"]


def test_selftest_check_that_raises_fails_and_the_rest_run(tmp_path, monkeypatch, capsys):
    _plant(monkeypatch, "jordan-without-half")
    out = tmp_path / "report.json"
    assert main(["selftest", "--seed", "0", "--output", str(out)]) == 3
    checks = {check["name"]: check for check in _strict_json(out.read_text())["results"]["checks"]}
    assert list(checks) == list(selftest.CHECKS)
    raised = {name for name, check in checks.items() if "error" in check}
    assert raised and all(not checks[n]["passed"] and checks[n]["worst"] is None
                          for n in raised)
    assert "raised ValidationError: risk: negative risk" in capsys.readouterr().err


def test_selftest_reports_its_warnings(monkeypatch):
    monkeypatch.setattr(estimators, "RESIDUAL_WARN", -1.0)
    warned = run_selftest(seed=0)["diagnostics"]["warnings"]
    assert warned and all("normal-equation residual" in w for w in warned)


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


def test_cli_integer_past_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    # json.load raises a plain ValueError, neither a JSONDecodeError nor `reject`'s
    path = tmp_path / "long.json"
    path.write_text('{"kind": "personick", "identity": 1' + "0" * 5000 + "}")
    rc = main(["personick", "--input", str(path), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: parse: {path}: Exceeds the limit")


def test_cli_scenario_nested_past_the_recursion_limit_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    rc = main(["personick", "--input", str(path), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: parse: {path}: nested too deeply to parse\n"


def test_report_nested_past_the_recursion_limit_is_a_parse_error():
    # a scenario that loads can still nest too deeply to encode: its report
    # holds the echo one level further down
    deep = []
    for _ in range(sys.getrecursionlimit()):
        deep = [deep]
    with pytest.raises(ValidationError, match="^parse: the report nests too deeply"):
        serialize_report({"scenario": {"note": deep}})


def test_cli_weak_value_reads_a_deeply_nested_label(tmp_path):
    # a label nested 600 deep loads, passes the label checks and is echoed
    label = "a"
    for _ in range(600):
        label = [label]
    sc = {"kind": "weak-value", "rho": (np.eye(2) / 2).tolist(),
          "x": np.diag([1.0, -1.0]).tolist(),
          "povm": {"effects": POVM_EFFECTS, "labels": [label, 1]}}
    out = tmp_path / "report.json"
    rc = main(["weak-value", "--input", _write(tmp_path, sc), "--output", str(out),
               "--quiet"])
    assert rc == 0
    assert json.loads(out.read_text())["results"]["outcomes"][0]["label"] == label


def test_selftest_tower_check_rejects_a_perturbed_stage_risk(monkeypatch):
    # the check holds r₂ = r₁ + r_stage to 1e-9; an r_stage taken from a state
    # 1e-6 away from κ₁(ρ) breaks the identity
    check, thresholds = selftest.CHECKS["postcomposition_monotone"]
    tower = lambda: selftest.figures(thresholds, check(qretro.sampling.rng(0)))["tower gap"]
    worst, threshold = tower()
    assert worst <= threshold
    apply = selftest.apply_channel

    def perturbed(chan, rho):
        out = apply(chan, rho)
        return (1 - 1e-6) * out + 1e-6 * np.eye(out.shape[-1]) / out.shape[-1]

    monkeypatch.setattr(selftest, "apply_channel", perturbed)
    worst, threshold = tower()
    assert worst > threshold


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
    ({"dilation": {"u": np.eye(2).tolist(), "env": [[1.0]], "dims": [2, 1]}}, "kept"),
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
    [[True, False], [False, True]],  # bools alone are not numbers
])
def test_cli_matrix_parse_errors(tmp_path, capsys, rho):
    sc = personick_scenario()
    sc["rho"] = rho
    rc = main(["personick", "--input", _write(tmp_path, sc), "--quiet"])
    assert rc == 1
    # as_array reads the matrix: an integer no float holds is `finite`, the rest `shape`
    invariant = "finite" if rho == [[10**400, 0], [0, 1]] else "shape"
    assert capsys.readouterr().err.startswith(f"error: {invariant}: rho ")


@pytest.mark.parametrize("channel, message", [
    ({"kraus": [IDENTITY_2, [[0.5, 0.0], [0.0, "0.5"]]]}, "shape: kraus[1] must be"),
    ({"povm": {"effects": [[[[0.5, 0.0, 0.0]]], IDENTITY_2]}}, "shape: effect[0] must be"),
])
def test_decoded_matrix_errors_name_their_entry(channel, message):
    with pytest.raises(ValidationError) as caught:
        decode_channel(channel)
    assert str(caught.value).startswith(message)


def test_decode_real_and_pair_matrices_agree():
    real = [[0.5, -1.0], [2, 0.25]]
    pairs = [[[0.5, 0.0], [-1.0, 0.0]], [[2, 0], [0.25, 0.0]]]
    np.testing.assert_array_equal(decode_complex_matrix(real), np.array(real, complex))
    np.testing.assert_array_equal(decode_complex_matrix(pairs), np.array(real, complex))
    # a bool is not a number: bools alone are refused, as in every numeric field
    with pytest.raises(ValidationError, match=r"^shape: matrix must be a rectangular array"):
        decode_complex_matrix([[True, False], [False, True]])


def _complex_entrywise(rows) -> np.ndarray:
    """The matrix as Python's `complex` reads it entry by entry."""
    return np.array([[complex(v) if isinstance(v, (int, float)) else complex(*v) for v in row]
                     for row in rows], dtype=complex)


def test_decode_mixed_and_wide_integer_matrices():
    # a real diagonal beside [re, im] pairs, the natural form of a Hermitian matrix
    mixed = [[0.5, [0.0, -0.5]], [[0.0, 0.5], 0.5]]
    np.testing.assert_array_equal(decode_complex_matrix(mixed),
                                  np.array([[0.5, -0.5j], [0.5j, 0.5]]))
    assert decode_complex_matrix([[2**70, 0], [0, 1]])[0, 0] == 2.0**70
    # every value reads bitwise as `complex` reads it, so each zero keeps its sign
    for rows in ([[0.5, -1.0], [2, 0.25]],
                 [[[0.5, 0.0], [-1.0, 2.5]], [[2, -3], [0.25, 1e-300]]],
                 mixed,
                 [[2**70, [0, -2**70]], [[2**53 + 1, 1], 3]],
                 [[-0.0, [0.0, -0.0]], [[-0.0, -0.0], 0]],
                 [[(0.5, -0.5), 1.0], [[1, 0], (-0.0, 2)]],
                 [[]]):
        got, want = decode_complex_matrix(rows), _complex_entrywise(rows)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_cli_classical_nan_transition():
    # a scenario file cannot hold NaN; a scenario built in Python can
    sc = {"kind": "classical", "px": [0.5, 0.5], "xvals": [0.0, 1.0],
          "transition": [[float("nan"), 0.5], [0.5, 0.5]]}
    with pytest.raises(ValidationError, match="^finite:"):
        run_scenario(sc)


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


def _overflowing(name, field):
    """A golden scenario with one entry of `field` set to 1e308, which
    overflows its result to NaN."""
    sc = json.loads((SCENARIO_DIR / name).read_text())
    sc[field][0][0] = [1e308, 0.0]
    return sc


def _assert_error(err, message):
    """A decoder's own error, on the JSON structure, is a `parse` error that
    holds `message`; a number is the library's to refuse, so a message that
    starts with an invariant, as `size: …`, starts the error."""
    assert err.startswith(f"error: {message}" if ": " in message else "error: parse:")
    assert message in err


@pytest.mark.parametrize("channel, message", [
    ({"classical": "abc"}, "shape: transition must be a rectangular array"),
    ({"depolarizing": [2]}, "size: depolarizing dimension must be an integer"),
    ({"identity": "x"}, "size: identity dimension must be an integer"),
    ({"kraus": 5}, "'kraus'"),
    ({"povm": {"effects": POVM_EFFECTS, "labels": 3}}, "labels: need a list of 2 labels"),
    (5, "channel must be an object"),
    ({"unknown": 1}, "unrecognized channel spec"),
])
def test_cli_channel_spec_wrong_type(tmp_path, capsys, channel, message):
    sc = personick_scenario()
    sc["channel"] = channel
    rc = main(["personick", "--input", _write(tmp_path, sc), "--quiet"])
    assert rc == 1
    _assert_error(capsys.readouterr().err, message)


@pytest.mark.parametrize("channel", [{"identity": 2, "depolarizing": 2},
                                     {"kraus": [IDENTITY_2], "identity": 2}],
                         ids=["identity-depolarizing", "kraus-identity"])
def test_channel_spec_names_one_form(channel):
    # the first form an if-chain matches would otherwise run, the other unread
    with pytest.raises(ValidationError, match=r"^parse: channel spec names 2 forms \["):
        decode_channel(channel)


@pytest.mark.parametrize("channel, limit", [
    ({"identity": 10**30}, 4096),
    ({"identity": 4097}, 4096),
    ({"depolarizing": 10**30}, 64),
    ({"depolarizing": 65}, 64),
    ({"partial_trace": {"dims": [2, 10**30], "keep": [0]}}, 4096),
    ({"partial_trace": {"dims": [64, 65], "keep": [0]}}, 4096),
], ids=["identity-1e30", "identity-4097", "depolarizing-1e30", "depolarizing-65",
        "partial-trace-1e30", "partial-trace-64x65"])
def test_channel_sizes_are_checked_before_allocation(channel, limit):
    sc = {**personick_scenario(), "channel": channel}
    with pytest.raises(ValidationError, match=f"^size: .* exceeds {limit}:"):
        run_scenario(sc)


@pytest.mark.parametrize("sweep, message", [
    ({"count": 10**30}, "sweep count 10"),
    ({"count": 100_001}, "sweep count 100001 exceeds 100000"),
    ({"dims": [10**30]}, "sweep dims entry exceeds 256"),
    ({"dims": [2, 3, 257]}, "sweep dims entry exceeds 256"),
], ids=["count-1e30", "count-100001", "dims-1e30", "dims-257"])
def test_sweep_sizes_are_checked_before_any_draw(monkeypatch, sweep, message):
    def draws(*args):
        raise AssertionError("a problem was drawn")

    monkeypatch.setattr(qretro.scenario, "_sweep_draws", draws)
    with pytest.raises(ValidationError, match=f"^size: {message}"):
        run_scenario({"kind": "qfi-mono", "seed": 1, "sweep": sweep})


def test_cli_classical_non_numeric_xvals(tmp_path, capsys):
    sc = {"kind": "classical", "px": [0.5, 0.5], "xvals": ["a", 1.0],
          "transition": [[0.5, 0.5], [0.5, 0.5]]}
    rc = main(["classical", "--input", _write(tmp_path, sc), "--quiet"])
    assert rc == 1
    _assert_error(capsys.readouterr().err, "shape: xvals must be a rectangular array")


@pytest.mark.parametrize("sweep, message", [
    (5, "'sweep'"),
    ({"count": "x"}, "'count'"),
    ({"count": 0}, "'count'"),
    ({"dims": [0]}, "size: sweep dims entry must be an integer"),
    ({"dims": []}, "'dims'"),
    ({"dims": 3}, "'dims'"),
])
def test_cli_qfi_sweep_spec_boundary(tmp_path, capsys, sweep, message):
    sc = {"kind": "qfi-mono", "seed": 1, "sweep": sweep}
    rc = main(["qfi-mono", "--input", _write(tmp_path, sc), "--quiet"])
    assert rc == 1
    _assert_error(capsys.readouterr().err, message)


@pytest.mark.parametrize("scenario, invariant", [
    # the state and the effect barely overlap
    ({**gaussian_scenario(VACUUM, VACUUM), "effect": {"mean": [100.0, 0.0],
                                                      "covariance": VACUUM}}, "overlap"),
    # ρ(0) = diag(1, 0) and its derivative diag(−1, 1) leaves the support
    ({"kind": "qfi-mono", "family": {"type": "diagonal_line", "p0": [1.0, 0.0],
                                     "slope": [-1.0, 1.0]},
      "channel": {"depolarizing": 2}}, "rank"),
    # x is checked against the channel like rho
    ({**personick_scenario(), "x": np.eye(3).tolist()}, "shape"),
    ({**personick_scenario(), "channel": {"partial_trace": {"dims": "ab", "keep": [0]}}},
     "size"),
    ({**personick_scenario(), "channel": {"partial_trace": {"dims": [-2, -1],
                                                            "keep": [0]}}}, "size"),
    ({**personick_scenario(), "channel": {"partial_trace": {"dims": [2, 0],
                                                            "keep": [0]}}}, "size"),
    ({"kind": "qfi-mono", "family": {"type": "diagonal_line", "p0": [0.5, 0.5],
                                     "slope": [0.1, 0.0, -0.1]},
      "channel": {"depolarizing": 2}}, "shape"),
    ({"kind": "qfi-mono", "family": {"type": "diagonal_exponential", "p0": [0.5, 0.5],
                                     "weights": [1.0]},
      "channel": {"depolarizing": 2}}, "shape"),
    # two outcomes labelled 0 could not be told apart in the report
    ({"kind": "weak-value", "rho": (np.eye(2) / 2).tolist(),
      "x": np.diag([1.0, -1.0]).tolist(),
      "povm": {"effects": POVM_EFFECTS, "labels": [0, 0]}}, "labels"),
    # rho is checked even where every outcome falls below the probability floor
    ({"kind": "weak-value", "rho": np.zeros((2, 2)).tolist(),
      "x": np.diag([1.0, -1.0]).tolist(), "povm": {"effects": POVM_EFFECTS}}, "trace"),
    ({"kind": "qfi-mono", "family": {"type": "nope"}, "channel": {"depolarizing": 2}},
     "parse"),
    ({"kind": "qfi-mono", "family": {"type": "diagonal_line", "p0": [0.5, 0.5],
                                     "slope": [0.1, -0.1]},
      "channel": {"depolarizing": 2}, "theta": "a"}, "shape"),
    # an operator with a zero dimension
    ({**personick_scenario(), "channel": {"classical": [[], []]}}, "shape"),
    ({**personick_scenario(), "channel": {"kraus": [[[]]]}}, "kraus"),
    # a report that would hold NaN: JSON cannot
    (_overflowing("risk_identity.json", "xcheck"), "range"),
    (_overflowing("weak_value_qubit.json", "x"), "range"),
    # json.dumps writes the NaN, Infinity and -Infinity tokens; JSON has none
    ({"kind": "weak-value", "rho": (np.eye(2) / 2).tolist(),
      "x": np.diag([1.0, -1.0]).tolist(),
      "povm": {"effects": POVM_EFFECTS, "labels": [float("nan"), 1]}}, "parse"),
    ({"kind": "weak-value", "rho": (np.eye(2) / 2).tolist(),
      "x": np.diag([1.0, -1.0]).tolist(),
      "povm": {"effects": POVM_EFFECTS, "labels": [float("inf"), -float("inf")]}}, "parse"),
    # a rotation generator of another dimension than its state
    ({"kind": "qfi-mono", "family": {"type": "unitary_rotation",
                                     "rho0": (np.eye(3) / 3).tolist(),
                                     "h": np.diag([1.0, -1.0]).tolist()},
      "channel": {"depolarizing": 3}}, "shape"),
    # a bool is neither a size nor an index
    ({**personick_scenario(), "channel": {"partial_trace": {"dims": [2, True],
                                                            "keep": [0]}}}, "size"),
    ({**personick_scenario(), "channel": {"partial_trace": {"dims": [2, 2],
                                                            "keep": [True]}}}, "dims"),
])
def test_cli_domain_errors_exit_cleanly(tmp_path, capsys, scenario, invariant):
    rc = main([scenario["kind"], "--input", _write(tmp_path, scenario), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {invariant}:")


def test_non_finite_report_leaves_no_file(tmp_path, capsys):
    # serialized before the temporary file is opened, so neither is left
    out = tmp_path / "report.json"
    sc = _overflowing("risk_identity.json", "xcheck")
    rc = main(["risk", "--input", _write(tmp_path, sc), "--output", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: range:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


def test_cli_serializes_a_report_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counted(report):
        calls.append(report)
        return serialize_report(report)

    for module in (qretro.cli, qretro.scenario):
        monkeypatch.setattr(module, "serialize_report", counted)
    out = tmp_path / "report.json"
    rc = main(["personick", "--input", _write(tmp_path, personick_scenario()),
               "--output", str(out)])
    assert rc == 0 and len(calls) == 1
    assert out.read_text() == capsys.readouterr().out


def test_cli_weak_value_zero_probability_outcome(tmp_path):
    # ρ = diag(1, 0) never gives the outcome diag(0, 1): that outcome reports
    # its probability and `undefined`, and the other keeps its weak values
    sc = {"kind": "weak-value", "rho": np.diag([1.0, 0.0]).tolist(),
          "x": [[2.0, 1.0], [1.0, -1.0]], "povm": {"effects": POVM_EFFECTS}}
    out = tmp_path / "report.json"
    rc = main(["weak-value", "--input", _write(tmp_path, sc), "--output", str(out),
               "--quiet"])
    assert rc == 0
    seen, never = json.loads(out.read_text())["results"]["outcomes"]
    assert seen["probability"] == 1.0 and seen["weak_value"] == pytest.approx(2.0)
    assert seen["complex_weak_value"] == pytest.approx([2.0, 0.0])
    assert never == {"label": 1, "undefined": True, "probability": 0.0}


@pytest.mark.parametrize("x, accepted", [
    ([[1e4, 0.0], [1e-8, -1e4]], True),  # 1e-8 off at scale 1e4: repaired
    ([[1.0, 0.0], [1e-8, -1.0]], False),  # 1e-8 off at scale 1: not Hermitian
])
def test_weak_value_scenario_follows_as_hermitian(x, accepted):
    # the scenario reports a real weak value exactly when as_hermitian accepts x
    if accepted:
        core.as_hermitian(np.array(x, dtype=complex))
    else:
        with pytest.raises(ValidationError, match="^hermiticity:"):
            core.as_hermitian(np.array(x, dtype=complex))
    outcomes = run_scenario({"kind": "weak-value", "rho": (np.eye(2) / 2).tolist(),
                             "x": x, "povm": {"effects": POVM_EFFECTS}})["results"]["outcomes"]
    assert [("weak_value" in entry) for entry in outcomes] == [accepted, accepted]
    assert all("complex_weak_value" in entry for entry in outcomes)
    if accepted:
        assert [entry["weak_value"] for entry in outcomes] == [1e4, -1e4]


def test_cli_has_no_tolerance_scale_option():
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--tol-scale", "2"])
    assert exc.value.code == 2


def test_scenario_subcommands_take_no_seed(tmp_path):
    # a sweep's seed lives in its scenario file; --seed is selftest's alone
    with pytest.raises(SystemExit) as exc:
        main(["personick", "--seed", "3", "--input", _write(tmp_path, personick_scenario())])
    assert exc.value.code == 2


def test_residual_warning_is_recorded_once(monkeypatch):
    # warnings.warn is the one path: the estimator warns once, the report
    # lists the message once, and results carry no copy of it
    monkeypatch.setattr(estimators, "RESIDUAL_WARN", -1.0)
    sc = personick_scenario()
    args = (decode_complex_matrix(sc["rho"]), decode_complex_matrix(sc["x"]),
            decode_channel(sc["channel"])[0])
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


@pytest.mark.parametrize("argv, invariant", [
    (["personick", "--input", "{dir}"], "parse"),
    (["personick", "--input", "{dir}/latin1.json"], "parse"),
    (["personick", "--input", "{dir}/missing.json"], "parse"),
    (["selftest", "--seed", "-1"], "seed"),
    (["selftest", "--output", "{dir}"], "output"),
], ids=["input-directory", "input-not-utf8", "input-missing", "negative-seed",
        "output-directory"])
def test_cli_unreadable_files_and_bad_seeds_exit_cleanly(tmp_path, capsys, argv, invariant):
    (tmp_path / "latin1.json").write_bytes('{"kind": "personick", "x": "é"}'.encode("latin-1"))
    rc = main([arg.format(dir=tmp_path) for arg in argv] + ["--quiet"])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith(f"error: {invariant}:") and err.count("\n") == 1
    assert not Path(f"{tmp_path}.tmp").exists()  # no half-written report is left


def test_complex_results_keys():
    sc = dict(personick_scenario(), kind="complex")
    assert sorted(run_scenario(sc)["results"]) == ["estimator", "min_risk", "residual"]


SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


MATRIX_FIELDS = {"rho", "x", "xcheck", "u", "env", "rho0", "h"}  # when they hold a list
MATRIX_LIST_FIELDS = {"kraus", "effects"}


def _digest(obj) -> dict:
    """The echo of a matrix field, recomputed from its decoded array: SHA-256
    over its entries as little-endian doubles (re, im) in row order, -0.0 as 0.0."""
    m = decode_complex_matrix(obj)
    parts = [c + 0.0 for z in m.flat for c in (z.real, z.imag)]
    blob = struct.pack(f"<{len(parts)}d", *parts)
    return {"sha256": hashlib.sha256(blob).hexdigest(), "shape": list(m.shape)}


def _expected_echo(obj):
    """A scenario as its report echoes it: each matrix field by its digest,
    every other field as given."""
    if not isinstance(obj, dict):
        return obj
    echo = {}
    for field, value in obj.items():
        if field in MATRIX_FIELDS and isinstance(value, list):
            echo[field] = _digest(value)
        elif field in MATRIX_LIST_FIELDS:
            echo[field] = [_digest(m) for m in value]
        else:
            echo[field] = _expected_echo(value)
    return echo


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
        assert report["scenario"] == _expected_echo(json.loads(path.read_text()))
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


def test_report_times_each_stage():
    report = run_scenario(personick_scenario())
    diagnostics = report["diagnostics"]
    stages = diagnostics["stages"]
    assert list(stages) == ["decode_s", "solve_s", "encode_s"]
    assert all(t >= 0 for t in stages.values())
    assert sum(stages.values()) <= diagnostics["elapsed_s"] + 1e-12
    assert "decode_s" not in json.dumps(report["results"])


def test_matrix_digest_is_canonical_by_value():
    # 1, [1, 0] and [1, -0.0] are one complex number; so are 0, [0, 0] and [-0.0, -0.0]
    spellings = [
        [[1, 0], [0, -1]],
        [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
        [[[1, -0.0], [-0.0, -0.0]], [[0, -0.0], [-1, -0.0]]],
    ]
    echoes = [run_scenario(dict(personick_scenario(), x=x))["scenario"]["x"]
              for x in spellings]
    assert echoes[0] == echoes[1] == echoes[2] == _digest(spellings[0])
    assert echoes[0]["shape"] == [2, 2]
    moved = run_scenario(dict(personick_scenario(), x=[[1, 0], [0, -0.5]]))["scenario"]["x"]
    assert moved["sha256"] != echoes[0]["sha256"]


def test_kraus_list_echoes_one_digest_per_operator():
    half = [[np.sqrt(0.5), 0.0], [0.0, np.sqrt(0.5)]]
    flip = [[0.0, np.sqrt(0.5)], [np.sqrt(0.5), 0.0]]
    sc = dict(personick_scenario(), channel={"kraus": [half, flip], "note": "bit flip"})
    echo = run_scenario(sc)["scenario"]["channel"]
    assert echo == {"kraus": [_digest(half), _digest(flip)], "note": "bit flip"}
    assert echo["kraus"][0] != echo["kraus"][1]


def test_echo_digests_nested_matrix_fields():
    # a dilation's u and env, and a family's rho0 and h inside a mixture's base
    swap = np.eye(4)[[0, 2, 1, 3]].tolist()
    dilation = {"u": swap, "env": [[0.5, 0.0], [0.0, 0.5]], "dims": [2, 2], "kept": [0]}
    sc = dict(personick_scenario(), channel={"dilation": dilation})
    assert run_scenario(sc)["scenario"] == _expected_echo(sc)
    assert run_scenario(sc)["scenario"]["channel"]["dilation"]["u"] == _digest(swap)
    base = {"type": "unitary_rotation", "rho0": [[0.7, 0.0], [0.0, 0.3]],
            "h": [[0.0, 1.0], [1.0, 0.0]]}
    sc = {"kind": "qfi-mono", "theta": 0.1, "channel": {"depolarizing": 2},
          "family": {"type": "depolarizing_mixture", "p": 0.2, "base": base}}
    echo = run_scenario(sc)["scenario"]
    assert echo == _expected_echo(sc)
    assert echo["family"]["base"]["h"] == _digest(base["h"])


def test_dense_kraus_report_does_not_carry_its_matrices():
    gen = np.random.default_rng(5)
    d, n_kraus = 64, 4
    g = gen.standard_normal((n_kraus * d, d)) + 1j * gen.standard_normal((n_kraus * d, d))
    iso = np.linalg.qr(g)[0]
    rho = np.diag(gen.random(d) + 0.1)
    sc = {"kind": "personick", "rho": encode_complex_matrix(rho / np.trace(rho)),
          "x": encode_complex_matrix(np.diag(np.arange(d, dtype=float))),
          "channel": {"kraus": [encode_complex_matrix(iso[i * d:(i + 1) * d])
                                for i in range(n_kraus)]}}
    report = run_scenario(sc)
    assert len(json.dumps(report["scenario"], sort_keys=True)) < 2048
    assert len(report["scenario"]["channel"]["kraus"]) == n_kraus


def test_import_does_not_load_hashlib():
    code = "import sys, qretro; print('hashlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "False"
