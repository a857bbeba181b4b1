"""Scenario files, reports, and the dispatch from one to the other.

A scenario is a single JSON document with a `kind` field naming the
computation.  Complex numbers are two-element [re, im] arrays; matrices are
row-major nested arrays.  Reports echo the scenario, carry the computed
quantities with every float fixed to 17 significant digits (lossless for
doubles, so serialization is byte-deterministic), and list diagnostics.
"""

from __future__ import annotations

import json
import time
import warnings

import numpy as np

from . import fisher, gaussian
from .channels import (
    ClassicalChannel,
    Povm,
    QuantumChannel,
    channel_from_classical,
    channel_from_dilation,
    channel_from_povm,
    depolarizing_channel,
    identity_channel,
    partial_trace_channel,
)
from .estimators import (
    classical_conditional_expectation,
    complex_estimator,
    complex_weak_value,
    personick_estimator,
    schrodinger_risk,
    weak_value,
)
from .operator_core import ValidationError
from .sampling import random_channel, random_density, random_hermitian, rng

KINDS = ("personick", "complex", "weak-value", "classical", "qfi-mono",
         "gaussian", "risk")


# --- encoding ---------------------------------------------------------------

def encode_complex(z: complex):
    return [_f17(z.real), _f17(z.imag)]


# The array encoders hand tolist()'s Python floats over unchanged: _f17 is
# the identity on doubles, so the JSON bytes match a per-element _f17.

def encode_complex_matrix(m: np.ndarray):
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def encode_real_vector(v):
    return np.asarray(v, dtype=float).tolist()


def encode_real_matrix(m):
    return np.asarray(m, dtype=float).tolist()


def _f17(v: float) -> float:
    # 17 significant digits round-trip doubles exactly
    return float(f"{v:.17g}")


def decode_complex_matrix(obj, name: str = "matrix") -> np.ndarray:
    try:
        rows = []
        for row in obj:
            entries = []
            for v in row:
                if isinstance(v, (int, float)):
                    entries.append(complex(v))
                else:
                    re, im = v
                    entries.append(complex(re, im))
            rows.append(entries)
        m = np.asarray(rows, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError("parse", f"field {name!r}: {exc}") from exc
    if m.ndim != 2:
        raise ValidationError("parse", f"field {name!r} is not a matrix")
    return m


def _require(scenario: dict, field: str):
    if not isinstance(scenario, dict):
        raise ValidationError("parse", f"expected an object holding {field!r}")
    if field not in scenario:
        raise ValidationError("parse", f"missing required field {field!r}")
    return scenario[field]


def decode_channel(obj) -> QuantumChannel:
    if not isinstance(obj, dict):
        raise ValidationError("parse", "channel must be an object")
    if "kraus" in obj:
        kraus = [decode_complex_matrix(k, "kraus") for k in obj["kraus"]]
        return QuantumChannel(kraus, labels=obj.get("labels"))
    if "classical" in obj:
        return channel_from_classical(
            ClassicalChannel(np.asarray(obj["classical"], dtype=float))
        )
    if "povm" in obj:
        return channel_from_povm(decode_povm(obj["povm"]))
    if "partial_trace" in obj:
        spec = obj["partial_trace"]
        return partial_trace_channel(_require(spec, "dims"), _require(spec, "keep"))
    if "dilation" in obj:
        spec = obj["dilation"]
        return channel_from_dilation(
            decode_complex_matrix(_require(spec, "u"), "u"),
            decode_complex_matrix(_require(spec, "env"), "env"),
            _require(spec, "dims"),
            _require(spec, "traced"),
            _require(spec, "kept"),
        )
    if "depolarizing" in obj:
        return depolarizing_channel(int(obj["depolarizing"]))
    if "identity" in obj:
        return identity_channel(int(obj["identity"]))
    raise ValidationError("parse", f"unrecognized channel spec: {sorted(obj)}")


def decode_povm(obj) -> Povm:
    effects = [decode_complex_matrix(e, "effect") for e in _require(obj, "effects")]
    return Povm(effects, labels=obj.get("labels"))


def decode_family(obj) -> fisher.StateFamily:
    kind = _require(obj, "type")
    if kind == "diagonal_line":
        return fisher.diagonal_line_family(obj["p0"], obj["slope"])
    if kind == "diagonal_exponential":
        return fisher.diagonal_exponential_family(obj["p0"], obj["weights"])
    if kind == "unitary_rotation":
        return fisher.unitary_rotation_family(
            decode_complex_matrix(obj["rho0"], "rho0"),
            decode_complex_matrix(obj["h"], "h"),
        )
    if kind == "depolarizing_mixture":
        return fisher.depolarizing_mixture_family(
            decode_family(obj["base"]), float(obj["p"])
        )
    raise ValidationError("parse", f"unknown family type {kind!r}")


# --- dispatch ---------------------------------------------------------------

def run_scenario(scenario: dict, tol_scale: float = 1.0) -> dict:
    """Execute one scenario and return its report as a plain dict."""
    if not isinstance(scenario, dict):
        raise ValidationError("parse", "scenario must be a JSON object")
    kind = _require(scenario, "kind")
    if kind not in KINDS:
        raise ValidationError("parse", f"unknown kind {kind!r}; expected one of {KINDS}")
    start = time.perf_counter()
    caught: list[str] = []
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        results = _DISPATCH[kind](scenario, tol_scale)
        caught = [str(w.message) for w in wlist]
    elapsed = time.perf_counter() - start
    return {
        "scenario": scenario,
        "results": results,
        "diagnostics": {"warnings": caught, "elapsed_s": _f17(elapsed)},
    }


def _run_risk(sc, tol_scale):
    k = decode_channel(_require(sc, "channel"))
    value = schrodinger_risk(
        decode_complex_matrix(_require(sc, "rho"), "rho"),
        decode_complex_matrix(_require(sc, "x"), "x"),
        k,
        decode_complex_matrix(_require(sc, "xcheck"), "xcheck"),
    )
    return {"risk": _f17(value)}


def _run_personick(sc, tol_scale):
    result = personick_estimator(
        decode_complex_matrix(_require(sc, "rho"), "rho"),
        decode_complex_matrix(_require(sc, "x"), "x"),
        decode_channel(_require(sc, "channel")),
    )
    return {
        "estimator": encode_complex_matrix(result.estimator),
        "min_risk": _f17(result.min_risk),
        "residual": _f17(result.residual),
        "support_rank": result.support_rank,
        "warning": result.warning,
    }


def _run_complex(sc, tol_scale):
    result = complex_estimator(
        decode_complex_matrix(_require(sc, "rho"), "rho"),
        decode_complex_matrix(_require(sc, "x"), "x"),
        decode_channel(_require(sc, "channel")),
    )
    return {
        "estimator": encode_complex_matrix(result.estimator),
        "min_risk": _f17(result.min_risk),
        "residual": _f17(result.residual),
    }


def _run_weak_value(sc, tol_scale):
    rho = decode_complex_matrix(_require(sc, "rho"), "rho")
    x = decode_complex_matrix(_require(sc, "x"), "x")
    povm = decode_povm(_require(sc, "povm"))
    if rho.shape != (povm.dim, povm.dim) or x.shape != rho.shape:
        raise ValidationError(
            "shape", f"rho/x shapes {rho.shape}/{x.shape} != POVM dim {povm.dim}"
        )
    hermitian = float(np.abs(x - x.conj().T).max()) <= 1e-10
    outcomes = []
    for label in povm.labels:
        prob = float(np.trace(povm.effect(label) @ rho).real)
        entry = {"label": label, "probability": _f17(prob)}
        if prob > 1e-12:
            if hermitian:
                entry["weak_value"] = _f17(weak_value(rho, x, povm, label))
            entry["complex_weak_value"] = encode_complex(
                complex_weak_value(rho, x, povm, label)
            )
        else:
            entry["undefined"] = True
        outcomes.append(entry)
    return {"outcomes": outcomes}


def _run_classical(sc, tol_scale):
    chan = ClassicalChannel(np.asarray(_require(sc, "transition"), dtype=float))
    estimates, defined = classical_conditional_expectation(
        _require(sc, "px"), chan, _require(sc, "xvals")
    )
    return {
        "estimates": [(_f17(v) if ok else None) for v, ok in zip(estimates, defined)],
        "defined": [bool(b) for b in defined],
    }


def _run_qfi_mono(sc, tol_scale):
    if "sweep" in sc:
        return _run_qfi_sweep(sc, tol_scale)
    family = decode_family(_require(sc, "family"))
    k = decode_channel(_require(sc, "channel"))
    report = fisher.monotonicity_check(family, k, float(sc.get("theta", 0.0)))
    return {
        "j_in": _f17(report.j_in),
        "j_out": _f17(report.j_out),
        "slack": _f17(report.slack),
        "personick_risk": _f17(report.personick_risk),
        "support_rank": report.support_rank,
    }


def _run_qfi_sweep(sc, tol_scale):
    spec = sc["sweep"]
    count = int(spec.get("count", 200))
    dims = [int(d) for d in spec.get("dims", [2, 3, 4])]
    gen = rng(int(sc.get("seed", 0)))
    slack_tol = 1e-8 * tol_scale
    rows = []
    worst_slack = np.inf
    worst_gap = 0.0
    for i in range(count):
        d_in = int(gen.choice(dims))
        d_out = int(gen.choice(dims))
        family = fisher.unitary_rotation_family(
            random_density(gen, d_in), random_hermitian(gen, d_in)
        )
        k = random_channel(gen, d_in, d_out)
        theta = float(gen.uniform(-0.5, 0.5))
        rep = fisher.monotonicity_check(family, k, theta)
        gap = abs(rep.slack - rep.personick_risk)
        worst_slack = min(worst_slack, rep.slack)
        worst_gap = max(worst_gap, gap)
        rows.append({
            "j_in": _f17(rep.j_in),
            "j_out": _f17(rep.j_out),
            "slack": _f17(rep.slack),
        })
    return {
        "count": count,
        "min_slack": _f17(worst_slack),
        "max_risk_gap": _f17(worst_gap),
        "all_monotone": bool(worst_slack >= -slack_tol),
        "rows": rows,
    }


def _decode_gaussian(obj, name) -> gaussian.GaussianWigner:
    return gaussian.GaussianWigner(
        mean=np.asarray(_require(obj, "mean"), dtype=float),
        covariance=np.asarray(_require(obj, "covariance"), dtype=float),
        weight=float(obj.get("weight", 1.0)),
    )


def _run_gaussian(sc, tol_scale):
    wr = _decode_gaussian(_require(sc, "state"), "state")
    we = _decode_gaussian(_require(sc, "effect"), "effect")
    xspec = _require(sc, "x")
    x = gaussian.LinearQuadrature(
        coeffs=np.asarray(_require(xspec, "coeffs"), dtype=float),
        offset=float(xspec.get("offset", 0.0)),
    )
    product = gaussian.gaussian_product(wr, we)
    estimate = gaussian.quadrature_estimator(wr, we, x)
    results = {
        "estimate": _f17(estimate),
        "product": {
            "mean": encode_real_vector(product.mean),
            "covariance": encode_real_matrix(product.covariance),
            "weight": _f17(product.weight),
        },
    }
    if sc.get("numeric_check"):
        numer = gaussian.numeric_wigner_integral([wr, we], x)
        denom = gaussian.numeric_wigner_integral([wr, we])
        results["numeric_estimate"] = _f17(numer / denom)
        results["numeric_gap"] = _f17(abs(numer / denom - estimate))
    return results


_DISPATCH = {
    "risk": _run_risk,
    "personick": _run_personick,
    "complex": _run_complex,
    "weak-value": _run_weak_value,
    "classical": _run_classical,
    "qfi-mono": _run_qfi_mono,
    "gaussian": _run_gaussian,
}


# --- file I/O ---------------------------------------------------------------

def load_scenario(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError("parse", f"{path}:{exc.lineno}: {exc.msg}") from exc


def serialize_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def write_report(report: dict, path) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(serialize_report(report) + "\n")
    import os

    os.replace(tmp, path)
