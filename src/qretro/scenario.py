"""Scenario files, reports, and the dispatch from one to the other.

A scenario is a single JSON document with a `kind` field naming the
computation.  Complex numbers are two-element [re, im] arrays; matrices are
row-major nested arrays.  Reports are one line of compact JSON with sorted
keys: they echo the scenario, each complex matrix as the SHA-256 and shape
of its decoded array rather than its entries, carry the computed quantities
with every float in shortest round-trip float form (Python's `repr`,
lossless for doubles, so serialization is byte-deterministic), and list
diagnostics.
"""

from __future__ import annotations

import json
import os
import sys
import time
import warnings
from contextlib import contextmanager

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
from .operator_core import ValidationError, hermitian_part
from .sampling import channel_draw, finish_channel, finish_density, ginibre, rng


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
    except (TypeError, ValueError, OverflowError) as exc:
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


def _bool(obj, name: str) -> bool:
    if not isinstance(obj, bool):
        raise ValidationError("parse", f"field {name!r} must be true or false, got {obj!r}")
    return obj


def _reals(obj: dict, field: str) -> np.ndarray:
    """A required field holding a number or nested lists of numbers."""
    value = _require(obj, field)
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError("parse", f"field {field!r}: {exc}") from exc


def _digest(m: np.ndarray) -> dict:
    """A decoded matrix as its report echoes it: the SHA-256 of its entries
    as little-endian complex128 in C order, signed zeros made +0.0 (so the
    digest depends on the value alone), and its shape."""
    import hashlib  # on first use: importing qretro need not load it

    canonical = (m + 0.0).astype("<c16", copy=False)  # -0.0 + 0.0 is +0.0
    return {"sha256": hashlib.sha256(canonical.tobytes()).hexdigest(),
            "shape": list(m.shape)}


def _matrices(obj: dict, *fields: str) -> tuple[list, dict]:
    """Required complex-matrix fields: their matrices, and `obj` echoed with
    each field's digest in its place."""
    ms = [decode_complex_matrix(_require(obj, field), field) for field in fields]
    return ms, dict(obj, **{field: _digest(m) for field, m in zip(fields, ms)})


def decode_channel(obj) -> tuple[QuantumChannel, dict]:
    """A channel spec: the channel, and the spec as a report echoes it."""
    if not isinstance(obj, dict):
        raise ValidationError("parse", "channel must be an object")
    if "kraus" in obj:
        kraus = [decode_complex_matrix(k, "kraus")
                 for k in _list(obj["kraus"], "kraus")]
        return QuantumChannel(kraus), dict(obj, kraus=[_digest(k) for k in kraus])
    if "classical" in obj:
        return channel_from_classical(ClassicalChannel(_reals(obj, "classical"))), obj
    if "povm" in obj:
        povm, echo = decode_povm(obj["povm"])
        return channel_from_povm(povm), dict(obj, povm=echo)
    if "partial_trace" in obj:
        spec = obj["partial_trace"]
        return partial_trace_channel(_require(spec, "dims"), _require(spec, "keep")), obj
    if "dilation" in obj:
        spec = obj["dilation"]
        (u, env), echo = _matrices(spec, "u", "env")
        chan = channel_from_dilation(u, env, _require(spec, "dims"), _require(spec, "kept"))
        return chan, dict(obj, dilation=echo)
    if "depolarizing" in obj:
        return depolarizing_channel(_int(obj["depolarizing"], "depolarizing")), obj
    if "identity" in obj:
        return identity_channel(_int(obj["identity"], "identity")), obj
    raise ValidationError("parse", f"unrecognized channel spec: {sorted(obj)}")


def _labels(obj):
    labels = obj.get("labels")
    return None if labels is None else _list(labels, "labels")


def decode_povm(obj) -> tuple[Povm, dict]:
    effects = [decode_complex_matrix(e, "effect")
               for e in _list(_require(obj, "effects"), "effects")]
    echo = dict(obj, effects=[_digest(e) for e in effects])
    return Povm(effects, labels=_labels(obj)), echo


def decode_family(obj) -> tuple[fisher.StateFamily, dict]:
    kind = _require(obj, "type")
    if kind == "diagonal_line":
        return fisher.diagonal_line_family(_reals(obj, "p0"), _reals(obj, "slope")), obj
    if kind == "diagonal_exponential":
        return fisher.diagonal_exponential_family(_reals(obj, "p0"),
                                                  _reals(obj, "weights")), obj
    if kind == "unitary_rotation":
        (rho0, h), echo = _matrices(obj, "rho0", "h")
        return fisher.unitary_rotation_family(rho0, h), echo
    if kind == "depolarizing_mixture":
        base, echo = decode_family(_require(obj, "base"))
        p = _number(_require(obj, "p"), "p")
        return fisher.depolarizing_mixture_family(base, p), dict(obj, base=echo)
    raise ValidationError("parse", f"unknown family type {kind!r}")


# --- dispatch ---------------------------------------------------------------

def run_scenario(scenario: dict) -> dict:
    """Execute one scenario and return its report as a plain dict.

    A kind runs in three stages, each timed once into `diagnostics.stages`:
    decode (the scenario's checked inputs, and its echo made from the same
    decoded arrays), solve, and encode (the result as the `results` dict).
    """
    kind = _require(scenario, "kind")
    if kind not in KINDS:
        raise ValidationError("parse", f"unknown kind {kind!r}; expected one of {KINDS}")
    sweep = kind == "qfi-mono" and "sweep" in scenario
    decode, solve, encode = _QFI_SWEEP if sweep else _STAGES[kind]
    with recorded_warnings() as caught:
        start = time.perf_counter()
        inputs, echo = decode(scenario)
        decoded = time.perf_counter()
        result = solve(*inputs)
        solved = time.perf_counter()
        results = encode(result)
        encoded = time.perf_counter()
    stages = {"decode_s": decoded - start, "solve_s": solved - decoded,
              "encode_s": encoded - solved}
    return {
        "scenario": echo,
        "results": results,
        "diagnostics": {"warnings": caught, "elapsed_s": encoded - start,
                        "stages": stages, "provenance": provenance()},
    }


@contextmanager
def recorded_warnings():
    """Yield a list that receives the message of each warning raised inside."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield caught
        caught[:] = [str(w.message) for w in caught]


def provenance() -> dict:
    """The qretro, numpy and Python versions that produced a report."""
    from . import __version__  # set once the package has finished importing

    return {
        "qretro": __version__,
        "numpy": np.__version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
    }


# Each kind is (decode, solve, encode): decode(scenario) -> (solve's
# arguments, echo), solve(*arguments) -> result, encode(result) -> results.
# A solve that is one library call is a lambda, so the call looks the
# function up in this module when it runs and a wrapper installed on the
# module (a profiler's, say) sees it.

def _decode_estimator(sc):
    (rho, x), echo = _matrices(sc, "rho", "x")
    k, echo["channel"] = decode_channel(_require(sc, "channel"))
    return (rho, x, k), echo


def _complex_results(result):
    return {
        "estimator": encode_complex_matrix(result.estimator),
        "min_risk": result.min_risk,
        "residual": result.residual,
    }


def _personick_results(result):
    return dict(_complex_results(result), support_rank=result.support_rank)


def _decode_risk(sc):
    k, channel = decode_channel(_require(sc, "channel"))
    (rho, x, xcheck), echo = _matrices(sc, "rho", "x", "xcheck")
    return (rho, x, k, xcheck), dict(echo, channel=channel)


def _decode_weak_value(sc):
    (rho, x), echo = _matrices(sc, "rho", "x")
    povm, echo["povm"] = decode_povm(_require(sc, "povm"))
    return (rho, x, povm), echo


def _solve_weak_value(rho, x, povm):
    """Per outcome: its probability and, where the estimators define them, its
    complex weak value and its real weak value (for x that `as_hermitian` accepts)."""
    values, defined = complex_weak_value(rho, x, povm)
    columns = {"complex_weak_value": values.tolist()}
    try:
        columns["weak_value"] = weak_value(rho, x, povm)[0].tolist()
    except ValidationError as exc:  # after complex_weak_value only x can fail here
        if exc.invariant != "hermiticity":
            raise
    outcomes = []
    for i, (label, e) in enumerate(zip(povm.labels, povm.effects)):
        entry = ({name: column[i] for name, column in columns.items()} if defined[i]
                 else {"undefined": True})
        outcomes.append(dict(entry, label=label, probability=float(np.trace(e @ rho).real)))
    return outcomes


def _weak_value_results(outcomes):
    return {"outcomes": [
        dict(entry, complex_weak_value=encode_complex(entry["complex_weak_value"]))
        if "complex_weak_value" in entry else entry
        for entry in outcomes
    ]}


def _decode_classical(sc):
    chan = ClassicalChannel(_reals(sc, "transition"))
    return (_reals(sc, "px"), chan, _reals(sc, "xvals")), sc


def _classical_results(result):
    estimates, defined = result
    return {
        "estimates": [(float(v) if ok else None) for v, ok in zip(estimates, defined)],
        "defined": [bool(b) for b in defined],
    }


def _decode_qfi_check(sc):
    family, family_echo = decode_family(_require(sc, "family"))
    k, channel = decode_channel(_require(sc, "channel"))
    theta = _number(sc.get("theta", 0.0), "theta")
    return (family, k, theta), dict(sc, family=family_echo, channel=channel)


def _qfi_check_results(report):
    return {
        "j_in": report.j_in,
        "j_out": report.j_out,
        "slack": report.slack,
        "personick_risk": report.personick_risk,
        "support_rank": report.support_rank,
    }


HELD_DRAW_BYTES = 1 << 20  # rotation_checks solves what it holds past this


def rotation_checks(problems) -> np.ndarray:
    """`monotonicity_check` on drawn rotation-family problems, in one stacked
    call per (d_in, d_out) of the problems held.

    A problem is (ρ₀ draw, H draw, d_out, channel draw, θ), the draws made
    by `ginibre` and `channel_draw` as `random_density`, `random_hermitian`
    and `random_channel` make them.  Problems are taken in order and held
    until their draws pass HELD_DRAW_BYTES, so memory does not grow with
    their number.  Returns one row (j_in, j_out, slack, personick_risk) per
    problem, in the order given.
    """
    rows, held, nbytes = [], [], 0
    for problem in problems:
        g_rho, g_h, _, g_k, _ = problem
        held.append(problem)
        nbytes += g_rho.nbytes + g_h.nbytes + g_k.nbytes
        if nbytes >= HELD_DRAW_BYTES:
            rows.append(_solve_held(held))
            held, nbytes = [], 0
    return np.concatenate(rows + [_solve_held(held)])


def _solve_held(problems) -> np.ndarray:
    groups: dict[tuple, list] = {}
    for i, (g_rho, _, d_out, _, _) in enumerate(problems):
        groups.setdefault((g_rho.shape[-1], d_out), []).append(i)
    rows = np.empty((len(problems), 4))
    for (_, d_out), idx in groups.items():
        g_rho, g_h, _, g_k, theta = map(np.array, zip(*(problems[i] for i in idx)))
        family = fisher.unitary_rotation_family(finish_density(g_rho),
                                                hermitian_part(g_h))
        rep = fisher.monotonicity_check(family, finish_channel(g_k, d_out), theta)
        rows[idx] = np.column_stack([rep.j_in, rep.j_out, rep.slack, rep.personick_risk])
    return rows


def _sweep_draws(gen, dims, count):
    """The sweep's problems, drawn one by one in generator order."""
    for _ in range(count):
        # gen.integers(n) draws exactly what gen.choice(dims) draws, faster
        d_in = dims[int(gen.integers(len(dims)))]
        d_out = dims[int(gen.integers(len(dims)))]
        yield (ginibre(gen, d_in, d_in), ginibre(gen, d_in, d_in), d_out,
               channel_draw(gen, d_in, d_out), float(gen.uniform(-0.5, 0.5)))


def _decode_qfi_sweep(sc):
    spec = sc["sweep"]
    if not isinstance(spec, dict):
        raise ValidationError("parse", f"field 'sweep' must be an object, got {spec!r}")
    count = _int(spec.get("count", 200), "count")
    dims = [_int(d, "dims") for d in _list(spec.get("dims", [2, 3, 4]), "dims")]
    if not dims:
        raise ValidationError("parse", "field 'dims' must not be empty")
    return (_int(sc.get("seed", 0), "seed", minimum=0), dims, count), sc


def _solve_qfi_sweep(seed, dims, count):
    return rotation_checks(_sweep_draws(rng(seed), dims, count))


def _qfi_sweep_results(rows):
    slack, gap = rows[:, 2], abs(rows[:, 2] - rows[:, 3])
    return {
        "count": len(rows),
        "min_slack": float(slack.min()),
        "max_risk_gap": float(gap.max()),
        "all_monotone": bool(slack.min() >= -1e-8),
        "rows": [{"j_in": j_in, "j_out": j_out, "slack": slack}
                 for j_in, j_out, slack in rows[:, :3].tolist()],
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


def _decode_gaussian_scenario(sc):
    wr = _decode_gaussian(_require(sc, "state"))
    we = _decode_gaussian(_require(sc, "effect"))
    _require_uncertainty(wr, "state")
    _require_uncertainty(we, "effect")
    xspec = _require(sc, "x")
    x = gaussian.LinearQuadrature(
        coeffs=_reals(xspec, "coeffs"),
        offset=_number(xspec.get("offset", 0.0), "offset"),
    )
    return (wr, we, x, _bool(sc.get("numeric_check", False), "numeric_check")), sc


def _solve_gaussian(wr, we, x, numeric_check):
    """(product, estimate, the grid oracle's (∫ΠW, ∫ΠW·X) or None)."""
    product = gaussian.gaussian_product(wr, we)
    return product, x.at(product.mean), (gaussian.numeric_wigner_integral([wr, we], x)
                                         if numeric_check else None)


def _gaussian_results(result):
    product, estimate, integrals = result
    results = {
        "estimate": estimate,
        "product": {
            "mean": encode_real_vector(product.mean),
            "covariance": encode_real_matrix(product.covariance),
            "weight": product.weight,
        },
    }
    if integrals is not None:
        denom, numer = integrals
        results["numeric_estimate"] = numer / denom
        results["numeric_gap"] = abs(numer / denom - estimate)
    return results


_STAGES = {
    "personick": (_decode_estimator, lambda *a: personick_estimator(*a), _personick_results),
    "complex": (_decode_estimator, lambda *a: complex_estimator(*a), _complex_results),
    "weak-value": (_decode_weak_value, _solve_weak_value, _weak_value_results),
    "classical": (_decode_classical, lambda *a: classical_conditional_expectation(*a),
                  _classical_results),
    "qfi-mono": (_decode_qfi_check, lambda *a: fisher.monotonicity_check(*a),
                 _qfi_check_results),
    "gaussian": (_decode_gaussian_scenario, _solve_gaussian, _gaussian_results),
    "risk": (_decode_risk, lambda *a: schrodinger_risk(*a), lambda risk: {"risk": risk}),
}
_QFI_SWEEP = (_decode_qfi_sweep, _solve_qfi_sweep, _qfi_sweep_results)  # qfi-mono with `sweep`
KINDS = tuple(_STAGES)


# --- file I/O ---------------------------------------------------------------

def load_scenario(path) -> dict:
    """A scenario file's JSON, without the NaN, Infinity and -Infinity tokens
    that `json.load` would otherwise read as floats."""
    def reject(token):
        raise ValidationError("parse", f"{path}: {token} is not a JSON number")

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ValidationError("parse", f"{path}:{exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError("parse", f"{path}: byte {exc.start} is not UTF-8") from exc
    except OSError as exc:
        raise ValidationError("parse", f"{path}: {exc.strerror}") from exc


def serialize_report(report: dict) -> str:
    """One line of compact JSON; `python -m json.tool` pretty-prints it.

    Without an indent, `json.dumps` runs on CPython's C encoder: a d=64
    report encodes about twice as fast and half as large as with one.  A
    NaN or infinite number, which JSON cannot hold, is a `range` error.
    """
    try:
        return json.dumps(report, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValidationError("range", f"report holds a non-finite number: {exc}") from exc


def write_report(report: dict, path) -> None:
    text = serialize_report(report) + "\n"  # before the temporary file exists
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise ValidationError("output", f"{path}: {exc.strerror}") from exc
