"""Scenario files, reports, and the dispatch from one to the other.

A scenario is a single JSON document with a `kind` field naming the
computation.  Complex numbers are two-element [re, im] arrays; matrices are
row-major nested arrays.  Reports echo the scenario, carry the computed
quantities with every float in shortest round-trip float form (Python's
`repr`, lossless for doubles, so serialization is byte-deterministic), and
list diagnostics.
"""

from __future__ import annotations

import json
import os
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
    WEAKVALUE_FLOOR,
    classical_conditional_expectation,
    complex_estimator,
    complex_weak_value,
    personick_estimator,
    schrodinger_risk,
    weak_value,
)
from .operator_core import HERMITICITY_TOL, ValidationError
from .sampling import random_channel, random_density, random_hermitian, rng

KINDS = ("personick", "complex", "weak-value", "classical", "qfi-mono",
         "gaussian", "risk")


# --- encoding ---------------------------------------------------------------

def encode_complex(z: complex):
    return [z.real, z.imag]


def encode_complex_matrix(m: np.ndarray):
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def encode_real_vector(v):
    return np.asarray(v, dtype=float).tolist()


def encode_real_matrix(m):
    return np.asarray(m, dtype=float).tolist()


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


def _list(obj, name: str) -> list:
    if not isinstance(obj, list):
        raise ValidationError("parse", f"field {name!r} must be a list, got {obj!r}")
    return obj


def _int(obj, name: str, minimum: int = 1) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int) or obj < minimum:
        raise ValidationError(
            "parse", f"field {name!r} must be an integer >= {minimum}, got {obj!r}"
        )
    return obj


def _number(obj, name: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValidationError("parse", f"field {name!r} must be a number, got {obj!r}")
    return float(obj)


def _reals(obj: dict, field: str) -> np.ndarray:
    """A required field holding a number or nested lists of numbers."""
    value = _require(obj, field)
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError("parse", f"field {field!r}: {exc}") from exc


def decode_channel(obj) -> QuantumChannel:
    if not isinstance(obj, dict):
        raise ValidationError("parse", "channel must be an object")
    if "kraus" in obj:
        kraus = [decode_complex_matrix(k, "kraus")
                 for k in _list(obj["kraus"], "kraus")]
        return QuantumChannel(kraus)
    if "classical" in obj:
        return channel_from_classical(ClassicalChannel(_reals(obj, "classical")))
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
        return depolarizing_channel(_int(obj["depolarizing"], "depolarizing"))
    if "identity" in obj:
        return identity_channel(_int(obj["identity"], "identity"))
    raise ValidationError("parse", f"unrecognized channel spec: {sorted(obj)}")


def _labels(obj):
    labels = obj.get("labels")
    return None if labels is None else _list(labels, "labels")


def decode_povm(obj) -> Povm:
    effects = [decode_complex_matrix(e, "effect")
               for e in _list(_require(obj, "effects"), "effects")]
    return Povm(effects, labels=_labels(obj))


def decode_family(obj) -> fisher.StateFamily:
    kind = _require(obj, "type")
    if kind == "diagonal_line":
        return fisher.diagonal_line_family(_reals(obj, "p0"), _reals(obj, "slope"))
    if kind == "diagonal_exponential":
        return fisher.diagonal_exponential_family(_reals(obj, "p0"),
                                                  _reals(obj, "weights"))
    if kind == "unitary_rotation":
        return fisher.unitary_rotation_family(
            decode_complex_matrix(_require(obj, "rho0"), "rho0"),
            decode_complex_matrix(_require(obj, "h"), "h"),
        )
    if kind == "depolarizing_mixture":
        return fisher.depolarizing_mixture_family(
            decode_family(_require(obj, "base")), _number(_require(obj, "p"), "p")
        )
    raise ValidationError("parse", f"unknown family type {kind!r}")


# --- dispatch ---------------------------------------------------------------

def run_scenario(scenario: dict) -> dict:
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
        if kind == "qfi-mono" and "sweep" in scenario:
            results = _run_qfi_sweep(scenario)
        else:
            results = _DISPATCH[kind](scenario)
        caught = [str(w.message) for w in wlist]
    elapsed = time.perf_counter() - start
    return {
        "scenario": scenario,
        "results": results,
        "diagnostics": {"warnings": caught, "elapsed_s": elapsed},
    }


def _run_risk(sc):
    k = decode_channel(_require(sc, "channel"))
    value = schrodinger_risk(
        decode_complex_matrix(_require(sc, "rho"), "rho"),
        decode_complex_matrix(_require(sc, "x"), "x"),
        k,
        decode_complex_matrix(_require(sc, "xcheck"), "xcheck"),
    )
    return {"risk": value}


def _run_personick(sc):
    result = personick_estimator(
        decode_complex_matrix(_require(sc, "rho"), "rho"),
        decode_complex_matrix(_require(sc, "x"), "x"),
        decode_channel(_require(sc, "channel")),
    )
    return {
        "estimator": encode_complex_matrix(result.estimator),
        "min_risk": result.min_risk,
        "residual": result.residual,
        "support_rank": result.support_rank,
    }


def _run_complex(sc):
    result = complex_estimator(
        decode_complex_matrix(_require(sc, "rho"), "rho"),
        decode_complex_matrix(_require(sc, "x"), "x"),
        decode_channel(_require(sc, "channel")),
    )
    return {
        "estimator": encode_complex_matrix(result.estimator),
        "min_risk": result.min_risk,
        "residual": result.residual,
    }


def _run_weak_value(sc):
    rho = decode_complex_matrix(_require(sc, "rho"), "rho")
    x = decode_complex_matrix(_require(sc, "x"), "x")
    povm = decode_povm(_require(sc, "povm"))
    if rho.shape != (povm.dim, povm.dim) or x.shape != rho.shape:
        raise ValidationError(
            "shape", f"rho/x shapes {rho.shape}/{x.shape} != POVM dim {povm.dim}"
        )
    hermitian = float(np.abs(x - x.conj().T).max()) <= HERMITICITY_TOL
    outcomes = []
    for label in povm.labels:
        prob = float(np.trace(povm.effect(label) @ rho).real)
        entry = {"label": label, "probability": prob}
        if prob > WEAKVALUE_FLOOR:
            if hermitian:
                entry["weak_value"] = weak_value(rho, x, povm, label)
            entry["complex_weak_value"] = encode_complex(
                complex_weak_value(rho, x, povm, label)
            )
        else:
            entry["undefined"] = True
        outcomes.append(entry)
    return {"outcomes": outcomes}


def _run_classical(sc):
    chan = ClassicalChannel(_reals(sc, "transition"))
    estimates, defined = classical_conditional_expectation(_reals(sc, "px"), chan,
                                                           _reals(sc, "xvals"))
    return {
        "estimates": [(float(v) if ok else None) for v, ok in zip(estimates, defined)],
        "defined": [bool(b) for b in defined],
    }


def _run_qfi_mono(sc):
    family = decode_family(_require(sc, "family"))
    k = decode_channel(_require(sc, "channel"))
    theta = _number(sc.get("theta", 0.0), "theta")
    report = fisher.monotonicity_check(family, k, theta)
    return {
        "j_in": report.j_in,
        "j_out": report.j_out,
        "slack": report.slack,
        "personick_risk": report.personick_risk,
        "support_rank": report.support_rank,
    }


def _run_qfi_sweep(sc):
    spec = sc["sweep"]
    if not isinstance(spec, dict):
        raise ValidationError("parse", f"field 'sweep' must be an object, got {spec!r}")
    count = _int(spec.get("count", 200), "count")
    dims = [_int(d, "dims") for d in _list(spec.get("dims", [2, 3, 4]), "dims")]
    if not dims:
        raise ValidationError("parse", "field 'dims' must not be empty")
    gen = rng(_int(sc.get("seed", 0), "seed", minimum=0))
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
            "j_in": rep.j_in,
            "j_out": rep.j_out,
            "slack": rep.slack,
        })
    return {
        "count": count,
        "min_slack": worst_slack,
        "max_risk_gap": worst_gap,
        "all_monotone": bool(worst_slack >= -1e-8),
        "rows": rows,
    }


def _decode_gaussian(obj) -> gaussian.GaussianWigner:
    return gaussian.GaussianWigner(
        mean=_reals(obj, "mean"),
        covariance=_reals(obj, "covariance"),
        weight=_number(obj.get("weight", 1.0), "weight"),
    )


def _require_uncertainty(w: gaussian.GaussianWigner, name: str) -> None:
    # V + iΩ/2 ≥ 0 (ħ = 1, vacuum I/2); a positive Gaussian effect is a
    # multiple of a Gaussian state, so it obeys the relation too
    n = w.n_modes
    omega = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(n))
    lam = float(np.linalg.eigvalsh(w.covariance + 0.5j * omega)[0])
    if lam < -1e-12 * max(1.0, float(np.linalg.norm(w.covariance, 2))):
        raise ValidationError(
            "uncertainty",
            f"{name} covariance violates V + iΩ/2 ≥ 0: smallest eigenvalue {lam:.3e}",
        )


def _run_gaussian(sc):
    wr = _decode_gaussian(_require(sc, "state"))
    we = _decode_gaussian(_require(sc, "effect"))
    _require_uncertainty(wr, "state")
    _require_uncertainty(we, "effect")
    xspec = _require(sc, "x")
    x = gaussian.LinearQuadrature(
        coeffs=_reals(xspec, "coeffs"),
        offset=_number(xspec.get("offset", 0.0), "offset"),
    )
    product = gaussian.gaussian_product(wr, we)
    estimate = gaussian.quadrature_estimator(wr, we, x)
    results = {
        "estimate": estimate,
        "product": {
            "mean": encode_real_vector(product.mean),
            "covariance": encode_real_matrix(product.covariance),
            "weight": product.weight,
        },
    }
    if sc.get("numeric_check"):
        numer = gaussian.numeric_wigner_integral([wr, we], x)
        denom = gaussian.numeric_wigner_integral([wr, we])
        results["numeric_estimate"] = numer / denom
        results["numeric_gap"] = abs(numer / denom - estimate)
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
    os.replace(tmp, path)
