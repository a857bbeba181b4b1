"""Built-in invariant suite, runnable from the CLI with a fixed seed.

Each check exercises one invariant on seeded random fixtures and returns
its figures, each a worst case with its pinned threshold.  A check draws
only inside its loop, so k calls on one generator draw what a loop of k
times the draws would: the acceptance criteria run these checks that way,
on their own seeds.  The suite is deterministic given the seed.
"""

from __future__ import annotations

import time

import numpy as np

from . import gaussian, operator_core as core, sampling
from .channels import (
    apply_channel,
    channel_from_classical,
    channel_from_dilation,
    channel_from_povm,
    depolarizing_channel,
    partial_trace_channel,
    validate_cptp,
)
from .estimators import (
    classical_conditional_expectation,
    complex_estimator,
    complex_weak_value,
    heisenberg_risk,
    personick_estimator,
    schrodinger_risk,
    weak_value,
)
from .operator_core import ValidationError
from .scenario import _sweep_draws, provenance, recorded_warnings, rotation_checks


def _largest(*values) -> float:
    """The largest value, NaN if any is NaN, which the builtin `max` can drop."""
    return float(np.max(values))


def _check_jordan_hermitian(gen):
    worst = 0.0
    for _ in range(50):
        d = int(gen.integers(2, 9))
        a = sampling.random_hermitian(gen, d)
        b = sampling.random_hermitian(gen, d)
        j = core.jordan_product(a, b)
        scale = max(1.0, float(np.abs(j).max()))
        worst = _largest(worst, float(np.abs(j - j.conj().T).max()) / scale)
    return {"anti-Hermitian part": (worst, 1e-13)}


def _check_jordan_trace_identity(gen):
    worst = 0.0
    for _ in range(200):
        d = int(gen.integers(2, 9))
        x, y, z = (sampling.random_hermitian(gen, d) for _ in range(3))
        scale = np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z)
        worst = _largest(worst, core.jordan_trace_gap(x, y, z) / scale)
    return {"trace identity gap": (worst, 1e-12)}


def _check_partial_trace(gen):
    worst = 0.0
    for _ in range(20):
        da, db = int(gen.integers(2, 4)), int(gen.integers(2, 4))
        a = sampling.random_density(gen, da)
        b = sampling.random_hermitian(gen, db)
        prod = core.tensor(a, b)
        worst = _largest(worst, float(np.abs(
            core.partial_trace(prod, [da, db], {0}) - a * np.trace(b)
        ).max()))
        m = sampling.random_density(gen, da * db)
        worst = _largest(worst, abs(
            np.trace(core.partial_trace(m, [da, db], {1})) - np.trace(m)
        ))
    return {"partial trace gap": (float(worst), 1e-12)}


def _check_solve_jordan(gen):
    worst = 0.0
    for _ in range(20):
        d = int(gen.integers(2, 7))
        a = sampling.random_psd(gen, d) + 0.1 * np.eye(d)
        b = sampling.random_hermitian(gen, d)
        x, residual = core.solve_jordan(a, b)
        worst = _largest(worst, residual / max(1.0, float(np.linalg.norm(b))))
        worst = _largest(worst, float(np.abs(x - x.conj().T).max()))
    return {"residual": (worst, 1e-10)}


def _check_penrose(gen):
    worst = 0.0
    for _ in range(20):
        d = int(gen.integers(3, 7))
        rank = int(gen.integers(1, d))
        h = sampling.random_psd(gen, d, rank=rank)
        p = core.support_projector(h)
        hplus = core.pseudo_inverse_psd(h)
        worst = _largest(worst, float(np.abs(p @ p - p).max()))
        worst = _largest(worst, float(np.abs(h @ hplus - p).max()))
        worst = _largest(worst, float(np.abs(h @ hplus @ h - h).max())
                         / max(1.0, float(np.abs(h).max())))
    return {"Penrose gap": (worst, 1e-10)}


def _random_channels(gen):
    d = int(gen.integers(2, 5))
    yield d, sampling.random_channel(gen, d, int(gen.integers(2, 5)))
    yield d, channel_from_classical(sampling.random_classical_channel(gen, d, d + 1))
    yield d, channel_from_povm(sampling.random_povm(gen, d, 3))
    yield 2 * d, partial_trace_channel([2, d], {1})
    yield d, depolarizing_channel(d)


def _check_channel_cptp(gen):
    worst = 0.0
    for _ in range(5):
        for dim_in, chan in _random_channels(gen):
            report = validate_cptp(chan)
            worst = _largest(worst, report.tp_deviation, -report.choi_min_eigenvalue)
            rho = sampling.random_density(gen, dim_in)
            out = apply_channel(chan, rho)
            worst = _largest(worst, abs(np.trace(out) - 1.0))
            worst = _largest(worst, -float(np.linalg.eigvalsh(
                core.hermitian_part(out)).min()))
    return {"CPTP deviation": (float(worst), 1e-10)}


def _check_dilation_bridge(gen):
    worst = 0.0
    for _ in range(20):
        da, db = int(gen.integers(2, 4)), int(gen.integers(2, 4))
        u = sampling.random_unitary(gen, da * db)
        env = sampling.random_density(gen, db)
        kept = int(gen.integers(0, 2))
        chan = channel_from_dilation(u, env, [da, db], [kept])
        rho = sampling.random_density(gen, da)
        x = sampling.random_hermitian(gen, da)
        xcheck = sampling.random_hermitian(gen, [da, db][kept])
        hs = heisenberg_risk(core.tensor(rho, env), x, xcheck, u, [da, db], [kept])
        ss = schrodinger_risk(rho, x, chan, xcheck)
        worst = _largest(worst, abs(hs - ss) / max(1.0, abs(ss)))
        # the Kraus form must also match the explicit dilation formula
        direct = core.partial_trace(
            u @ core.tensor(rho, env) @ u.conj().T, [da, db], {kept}
        )
        worst = _largest(worst, float(np.abs(apply_channel(chan, rho) - direct).max()))
    return {"picture gap": (worst, 1e-10)}


def _check_personick_optimality(gen):
    slack = decomposition = 0.0
    for _ in range(5):
        d_in, d_out = int(gen.integers(2, 7)), int(gen.integers(2, 7))
        rho = sampling.random_density(gen, d_in)
        x = sampling.random_hermitian(gen, d_in)
        chan = sampling.random_channel(gen, d_in, d_out)
        result = personick_estimator(rho, x, chan)
        direct = schrodinger_risk(rho, x, chan, result.estimator)
        decomposition = _largest(decomposition, abs(direct - result.min_risk))
        for _ in range(50):
            o = sampling.random_hermitian(gen, d_out, scale=float(gen.uniform(0.01, 1.0)))
            perturbed = schrodinger_risk(rho, x, chan, result.estimator + o)
            slack = _largest(slack, result.min_risk - perturbed)
    return {"perturbation slack": (slack, 1e-9),
            "risk decomposition gap": (decomposition, 1e-9)}


def _check_classical_reduction(gen):
    bayes_gap = off_diagonal = 0.0
    for _ in range(10):
        n_in, n_out = int(gen.integers(2, 7)), int(gen.integers(2, 7))
        px = sampling.random_probability_vector(gen, n_in)
        xvals = gen.standard_normal(n_in)
        c = sampling.random_classical_channel(gen, n_in, n_out)
        est, defined = classical_conditional_expectation(px, c, xvals)
        # brute-force Bayes enumeration; the draws keep every P(y) above 1e-4
        for y in range(n_out):
            py = sum(c.transition[y, x] * px[x] for x in range(n_in))
            bayes = sum(c.transition[y, x] * px[x] * xvals[x] for x in range(n_in)) / py
            bayes_gap = _largest(bayes_gap, abs(est[y] - bayes) if defined[y] else np.inf)
        # and the quantum embedding must agree
        m = personick_estimator(np.diag(px.astype(complex)), np.diag(xvals.astype(complex)),
                                channel_from_classical(c)).estimator
        off_diagonal = _largest(off_diagonal, float(np.abs(m - np.diag(np.diag(m))).max()))
        bayes_gap = _largest(bayes_gap,
                             float(np.abs(np.diag(m).real[defined] - est[defined]).max()))
    return {"Bayes gap": (bayes_gap, 1e-10), "off-diagonal": (off_diagonal, 1e-10)}


def _check_weak_values(gen):
    diagonal = complex_real = complex_diagonal = 0.0
    for _ in range(20):
        d = int(gen.integers(2, 4))
        rho = sampling.random_density(gen, d)
        x = sampling.random_hermitian(gen, d)
        povm = sampling.random_povm(gen, d, int(gen.integers(2, 5)))
        chan = channel_from_povm(povm)
        est = personick_estimator(rho, x, chan).estimator
        wv, cwv = weak_value(rho, x, povm)[0], complex_weak_value(rho, x, povm)[0]
        diagonal = _largest(diagonal, *abs(np.diag(est).real - wv))
        complex_real = _largest(complex_real, *abs(cwv.real - wv))
        # tr E(y)Xρ, not tr E(y)ρX: their real parts agree, their imaginary parts do not
        cest = complex_estimator(rho, x, chan).estimator
        complex_diagonal = _largest(complex_diagonal, *abs(np.diag(cest) - cwv))
    return {"estimator-diagonal gap": (diagonal, 1e-10),
            "complex-real gap": (complex_real, 1e-12),
            "complex-estimator-diagonal gap": (complex_diagonal, 1e-10)}


def _check_complex_vs_hermitian(gen):
    worst = 0.0
    for _ in range(20):
        d_in, d_out = int(gen.integers(2, 5)), int(gen.integers(2, 5))
        rho = sampling.random_density(gen, d_in)
        x = sampling.random_hermitian(gen, d_in)
        chan = sampling.random_channel(gen, d_in, d_out)
        herm = personick_estimator(rho, x, chan).min_risk
        cplx = complex_estimator(rho, x, chan).min_risk
        worst = _largest(worst, cplx - herm)
    return {"complex risk excess": (worst, 1e-9)}


def _check_postcomposition(gen):
    worst = 0.0
    for _ in range(20):
        d = int(gen.integers(2, 4))
        rho = sampling.random_density(gen, d)
        x = sampling.random_hermitian(gen, d)
        first = sampling.random_channel(gen, d, d)
        second = sampling.random_channel(gen, d, int(gen.integers(2, 4)))
        # the tower property: retrodicting through first then second adds the
        # risk of retrodicting E_first(X) through second from first(rho)
        stage = personick_estimator(rho, x, first)
        r2 = personick_estimator(rho, x, first.then(second)).min_risk
        r_stage = personick_estimator(apply_channel(first, rho), stage.estimator,
                                      second).min_risk
        worst = _largest(worst, abs(r2 - stage.min_risk - r_stage))
    return {"tower gap": (worst, 1e-9)}


def _check_qfi_monotonicity(gen):
    slack, risk = rotation_checks(_sweep_draws(gen, [2, 3, 4], 50))[:, 2:].T
    return {"slack deficit": (float(-slack.min()), 1e-8),
            "risk gap": (float(abs(slack - risk).max()), 1e-8)}


def _gaussian_oracle_gaps(gen, n_modes, draws):
    """The closed-form estimate and product weight against the grid oracle."""
    estimate = weight = 0.0
    for _ in range(draws):
        wr = sampling.random_gaussian_wigner(gen, n_modes)
        we = sampling.random_gaussian_wigner(gen, n_modes,
                                             weight=float(gen.uniform(0.3, 2.0)))
        x = sampling.random_linear_quadrature(gen, n_modes)
        closed = gaussian.quadrature_estimator(wr, we, x)
        product_weight = gaussian.gaussian_product(wr, we).weight
        denom, numer = gaussian.numeric_wigner_integral([wr, we], x)
        estimate = _largest(estimate, abs(numer / denom - closed))
        weight = _largest(weight, abs(denom - product_weight) / product_weight)
    return {"oracle gap": (estimate, 1e-6), "product weight gap": (weight, 1e-6)}


def _check_gaussian_oracle(gen):
    return _gaussian_oracle_gaps(gen, 1, 5)


CHECKS = [
    ("jordan_hermitian", _check_jordan_hermitian),
    ("jordan_trace_identity", _check_jordan_trace_identity),
    ("partial_trace", _check_partial_trace),
    ("solve_jordan_roundtrip", _check_solve_jordan),
    ("penrose_identities", _check_penrose),
    ("channel_cptp", _check_channel_cptp),
    ("dilation_bridge", _check_dilation_bridge),
    ("personick_optimality", _check_personick_optimality),
    ("classical_reduction", _check_classical_reduction),
    ("weak_values", _check_weak_values),
    ("complex_vs_hermitian", _check_complex_vs_hermitian),
    ("postcomposition_monotone", _check_postcomposition),
    ("qfi_monotonicity", _check_qfi_monotonicity),
    ("gaussian_oracle", _check_gaussian_oracle),
]


def _verdict(figures):
    """The largest figure, each over its own threshold if the thresholds
    differ; None, which fails, if any figure is NaN or infinite."""
    values, thresholds = zip(*figures.values())
    if len(set(thresholds)) > 1:
        values, thresholds = [v / t for v, t in figures.values()], [1.0]
    return (_largest(*values) if np.isfinite(values).all() else None), thresholds[0]


def run_selftest(seed: int = 0) -> dict:
    """Run every invariant check with one seed; failures are the output."""
    if seed < 0:
        raise ValidationError("seed", f"seed must be a non-negative integer, got {seed}")
    start = time.perf_counter()
    checks = []
    check_elapsed = {}
    with recorded_warnings() as caught:
        for index, (name, fn) in enumerate(CHECKS):
            # one deterministic substream per check, stable across processes
            gen = sampling.rng((seed << 16) + index)
            check_start = time.perf_counter()
            worst, threshold = _verdict(fn(gen))
            check_elapsed[name] = time.perf_counter() - check_start
            checks.append({
                "name": name,
                "passed": worst is not None and worst <= threshold,
                "worst": worst,
                "threshold": threshold,
            })
    return {
        "scenario": {"kind": "selftest", "seed": seed},
        "results": {"checks": checks,
                    "all_passed": all(check["passed"] for check in checks)},
        "diagnostics": {
            "warnings": caught,
            "elapsed_s": time.perf_counter() - start,
            "check_elapsed_s": check_elapsed,
            "provenance": provenance(),
        },
    }
