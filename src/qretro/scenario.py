"""Scenario files, reports, and the dispatch from one to the other.

A scenario is a single JSON document with a `kind` field naming the
computation.  A matrix is a row-major nested array of numbers and [re, im]
pairs; its numbers, like every other field's, are read by `as_array`.
Reports are one line of compact JSON with sorted keys: they echo the
scenario, each complex matrix as the SHA-256 and shape of its decoded array
rather than its entries, carry the computed quantities with every float in
shortest round-trip float form (Python's `repr`, lossless for doubles, so
serialization is byte-deterministic), and list diagnostics.
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
from .operator_core import (ValidationError, as_array, hermitian_part, require_fit,
                            require_size, trace)
from .sampling import _complex_draws, _kraus_rows, finish_channel, finish_density, rng


# --- encoding ---------------------------------------------------------------

def encode_complex(z: complex):
    return [z.real, z.imag]


def encode_complex_matrix(m: np.ndarray):
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def encode_real_vector(v):
    return np.asarray(v).tolist()  # a Gaussian's mean, checked real where it entered


def encode_real_matrix(m):
    return np.asarray(m).tolist()


def decode_complex_matrix(obj, name: str = "matrix") -> np.ndarray:
    """Rows of numbers and [re, im] pairs as a complex matrix: each bare number
    is paired with a zero of its type (bools stay bool-only), `as_array` reads
    the (r, c, 2) nesting, and each pair is viewed, bitwise, as complex(re, im).
    Rows without entries make an (r, 0) matrix, for its operator's check."""
    if isinstance(obj, list):  # most entries are [re, im] lists, taken as they are
        obj = [[v if type(v) is list else _paired(v) for v in row]
               if isinstance(row, list) else row for row in obj]
    m = as_array(obj, float, name)
    if m.shape[1:] == (0,):
        m = m.reshape(*m.shape, 2)
    if m.ndim != 3 or m.shape[2] != 2:
        raise ValidationError("shape", f"{name} must be a matrix of numbers and [re, im] "
                                       f"pairs, got shape {m.shape}")
    return m.view(complex)[..., 0]


def _paired(v):
    return [v, type(v)(0)] if isinstance(v, (int, float)) else v


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


def _bool(obj, name: str) -> bool:
    if not isinstance(obj, bool):
        raise ValidationError("parse", f"field {name!r} must be true or false, got {obj!r}")
    return obj


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


_CHANNEL_FORMS = ("kraus", "classical", "povm", "partial_trace", "dilation", "depolarizing",
                  "identity")


def decode_channel(obj) -> tuple[QuantumChannel, dict]:
    """A channel spec, which names exactly one of the `_CHANNEL_FORMS`: the
    channel, and the spec as a report echoes it."""
    if not isinstance(obj, dict):
        raise ValidationError("parse", "channel must be an object")
    if len(forms := [form for form in _CHANNEL_FORMS if form in obj]) > 1:
        raise ValidationError("parse", f"channel spec names {len(forms)} forms {forms}; "
                                       "expected one")
    if "kraus" in obj:
        kraus = [decode_complex_matrix(k, f"kraus[{i}]")
                 for i, k in enumerate(_list(obj["kraus"], "kraus"))]
        return QuantumChannel(kraus), dict(obj, kraus=[_digest(k) for k in kraus])
    if "classical" in obj:
        return channel_from_classical(ClassicalChannel(obj["classical"])), obj
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
        return depolarizing_channel(obj["depolarizing"]), obj
    if "identity" in obj:
        return identity_channel(obj["identity"]), obj
    raise ValidationError("parse", f"unrecognized channel spec: {sorted(obj)}")


def decode_povm(obj) -> tuple[Povm, dict]:
    effects = [decode_complex_matrix(e, f"effect[{i}]")
               for i, e in enumerate(_list(_require(obj, "effects"), "effects"))]
    echo = dict(obj, effects=[_digest(e) for e in effects])
    return Povm(effects, labels=obj.get("labels")), echo


def decode_family(obj) -> tuple[fisher.StateFamily, dict]:
    kind = _require(obj, "type")
    if kind == "diagonal_line":
        return fisher.diagonal_line_family(_require(obj, "p0"), _require(obj, "slope")), obj
    if kind == "diagonal_exponential":
        return fisher.diagonal_exponential_family(_require(obj, "p0"),
                                                  _require(obj, "weights")), obj
    if kind == "unitary_rotation":
        (rho0, h), echo = _matrices(obj, "rho0", "h")
        return fisher.unitary_rotation_family(rho0, h), echo
    if kind == "depolarizing_mixture":
        base, echo = decode_family(_require(obj, "base"))
        return fisher.depolarizing_mixture_family(base, _require(obj, "p")), dict(obj, base=echo)
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
    probs = trace(povm.effects @ rho).real.tolist()  # of the decoded ρ
    outcomes = []
    for i, label in enumerate(povm.labels):
        entry = ({name: column[i] for name, column in columns.items()} if defined[i]
                 else {"undefined": True})
        outcomes.append(dict(entry, label=label, probability=probs[i]))
    return outcomes


def _weak_value_results(outcomes):
    return {"outcomes": [
        dict(entry, complex_weak_value=encode_complex(entry["complex_weak_value"]))
        if "complex_weak_value" in entry else entry
        for entry in outcomes
    ]}


def _decode_classical(sc):
    chan = ClassicalChannel(_require(sc, "transition"))
    return (_require(sc, "px"), chan, _require(sc, "xvals")), sc


def _classical_results(result):
    estimates, defined = result
    return {
        "estimates": [(float(v) if ok else None) for v, ok in zip(estimates, defined)],
        "defined": [bool(b) for b in defined],
    }


def _decode_qfi_check(sc):
    family, family_echo = decode_family(_require(sc, "family"))
    k, channel = decode_channel(_require(sc, "channel"))
    theta = as_array(sc.get("theta", 0.0), float, "theta")
    require_fit(theta=(theta, ()))  # one check, not a stack
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
SWEEP_COUNT_MAX = 100_000  # about 3 s of problems at dims [2, 3, 4]


def rotation_checks(problems) -> np.ndarray:
    """`monotonicity_check` on drawn rotation-family problems, its three
    stages each run once per dimension it depends on.

    A problem is (normals, d_in, d_out, θ), as `_sweep_draws` yields it: the
    normals are the (2, d_in, d_in) blocks of the ρ₀ and H draws and the
    (2, K·d_out, d_in) block of the channel draw, in that order and flat.
    Of the problems held, the family side runs once per d_in, the push
    through the channels once per (d_in, d_out), and the image side once per
    d_out, on the pushed stacks of every d_in together.  The draws of one
    shape are stacked, made complex once and finished as `random_density`,
    `random_hermitian` and `random_channel` finish them.  Problems are taken
    in order and held until their normals pass HELD_DRAW_BYTES, so memory
    does not grow with their number.  Returns one row (j_in, j_out, slack,
    personick_risk) per problem, in the order given.
    """
    rows, held, nbytes = [], [], 0
    for problem in problems:
        held.append(problem)
        nbytes += problem[0].nbytes
        if nbytes >= HELD_DRAW_BYTES:
            rows.append(_solve_held(held))
            held, nbytes = [], 0
    return np.concatenate(rows + [_solve_held(held)])


def _solve_held(problems) -> np.ndarray:
    by_in: dict[int, list] = {}
    for i, (_, d_in, _, _) in enumerate(problems):
        by_in.setdefault(d_in, []).append(i)
    by_out: dict[int, list] = {}  # d_out: (rows, pushed arrays, tr ρS², θ) per d_in
    for d, idx in by_in.items():
        idx = np.array(idx)
        theta, (rho, drho, s_in, j_in) = _held_family_side(problems, idx, d)
        d_outs = np.array([problems[i][2] for i in idx])
        for d_out in dict.fromkeys(d_outs.tolist()):
            at = np.flatnonzero(d_outs == d_out)
            tails = np.array([problems[i][0][4 * d * d:] for i in idx[at]])  # past ρ₀, H
            k = finish_channel(_complex_draws(tails.reshape(len(at), 2, -1, d)), d_out)
            pushed = fisher._channel_side(k, rho[at], drho[at], s_in[at])
            by_out.setdefault(d_out, []).append((idx[at], *pushed, j_in[at], theta[at]))
    rows = np.empty((len(problems), 4))
    while by_out:  # popped, so each d_out's parts are freed once joined
        at, krho, kdrho, kjordan, j_in, theta = map(np.concatenate, zip(*by_out.popitem()[1]))
        rep = fisher._image_side((krho, kdrho, kjordan), j_in, theta)
        rows[at] = np.column_stack([rep.j_in, rep.j_out, rep.slack, rep.personick_risk])
    return rows


def _held_family_side(problems, idx, d):
    """θ and `fisher._family_side` of the problems at idx, all with d_in = d;
    the draws and the family are freed on return."""
    n, cut = len(idx), 2 * d * d
    heads = np.array([problems[i][0][:2 * cut] for i in idx])
    g_rho = _complex_draws(heads[:, :cut].reshape(n, 2, d, d))
    g_h = _complex_draws(heads[:, cut:].reshape(n, 2, d, d))
    theta = np.array([problems[i][3] for i in idx])
    family = fisher.unitary_rotation_family(finish_density(g_rho), hermitian_part(g_h))
    return theta, fisher._family_side(family, theta)


def _sweep_draws(gen, dims, count):
    """The sweep's problems, (normals, d_in, d_out, θ), drawn one by one in
    generator order.

    Each problem draws d_in, d_out, its normals in one `standard_normal`
    call, and θ.  The normals are those `ginibre` draws for ρ₀ and for H and
    `channel_draw` for the channel, one after another, so the stream is that
    of `random_density`, `random_hermitian` and `random_channel` in turn.
    """
    for _ in range(count):
        # gen.integers(n) draws exactly what gen.choice(dims) draws, faster
        d_in = dims[int(gen.integers(len(dims)))]
        d_out = dims[int(gen.integers(len(dims)))]
        size = 2 * d_in * (2 * d_in + _kraus_rows(d_in, d_out))
        yield gen.standard_normal(size), d_in, d_out, float(gen.uniform(-0.5, 0.5))


def _decode_qfi_sweep(sc):
    spec = sc["sweep"]
    if not isinstance(spec, dict):
        raise ValidationError("parse", f"field 'sweep' must be an object, got {spec!r}")
    count = _int(spec.get("count", 200), "count")
    if count > SWEEP_COUNT_MAX:
        raise ValidationError("size", f"sweep count {count} exceeds {SWEEP_COUNT_MAX}")
    dims = _list(spec.get("dims", [2, 3, 4]), "dims")
    if not dims:
        raise ValidationError("parse", "field 'dims' must not be empty")
    for d in dims:  # a channel draw holds d_in²·d_out entries
        require_size("sweep dims entry", d, 3)
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
        mean=_require(obj, "mean"),
        covariance=_require(obj, "covariance"),
        weight=obj.get("weight", 1.0),
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
        coeffs=_require(xspec, "coeffs"),
        offset=xspec.get("offset", 0.0),
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
    except ValidationError:  # `reject`'s, a ValueError like the two below
        raise
    except RecursionError:
        raise ValidationError("parse", f"{path}: nested too deeply to parse") from None
    except ValueError as exc:  # an integer longer than int()'s digit limit; drop
        # the advice to raise that limit, which a scenario file cannot take
        raise ValidationError("parse", f"{path}: {str(exc).partition(';')[0]}") from exc


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
    except RecursionError:  # a scenario nested nearly as deep as `load_scenario` reads
        raise ValidationError("parse", "the report nests too deeply to encode") from None


def write_report(text: str, path) -> None:
    """Write a report serialized by `serialize_report`, and a newline, to `path`."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise ValidationError("output", f"{path}: {exc.strerror}") from exc
