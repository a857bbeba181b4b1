"""Built-in invariant suite, runnable from the CLI with a fixed seed.

Each check exercises one module-level invariant on seeded random fixtures
and reports its worst-case slack against the pinned threshold.  The suite
is deterministic given the seed.
"""

from __future__ import annotations

import time

import numpy as np

from . import fisher, gaussian, operator_core as core, sampling
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

def _check_jordan_hermitian(gen):
    worst = 0.0
    for _ in range(50):
        d = int(gen.integers(2, 9))
        a = sampling.random_hermitian(gen, d)
        b = sampling.random_hermitian(gen, d)
        j = core.jordan_product(a, b)
        scale = max(1.0, float(np.abs(j).max()))
        worst = max(worst, float(np.abs(j - j.conj().T).max()) / scale)
    return worst, 1e-13


def _check_jordan_trace_identity(gen):
    worst = 0.0
    for _ in range(200):
        d = int(gen.integers(2, 9))
        x, y, z = (sampling.random_hermitian(gen, d) for _ in range(3))
        scale = np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z)
        worst = max(worst, core.jordan_trace_gap(x, y, z) / scale)
    return worst, 1e-12


def _check_partial_trace(gen):
    worst = 0.0
    for _ in range(20):
        da, db = int(gen.integers(2, 4)), int(gen.integers(2, 4))
        a = sampling.random_density(gen, da)
        b = sampling.random_hermitian(gen, db)
        prod = core.tensor(a, b)
        worst = max(worst, float(np.abs(
            core.partial_trace(prod, [da, db], {0}) - a * np.trace(b)
        ).max()))
        m = sampling.random_density(gen, da * db)
        worst = max(worst, abs(
            np.trace(core.partial_trace(m, [da, db], {1})) - np.trace(m)
        ))
    return float(worst), 1e-12


def _check_solve_jordan(gen):
    worst = 0.0
    for _ in range(20):
        d = int(gen.integers(2, 7))
        a = sampling.random_psd(gen, d) + 0.1 * np.eye(d)
        b = sampling.random_hermitian(gen, d)
        x, residual = core.solve_jordan(a, b)
        worst = max(worst, residual / max(1.0, float(np.linalg.norm(b))))
        worst = max(worst, float(np.abs(x - x.conj().T).max()))
    return worst, 1e-10


def _check_penrose(gen):
    worst = 0.0
    for _ in range(20):
        d = int(gen.integers(3, 7))
        rank = int(gen.integers(1, d))
        h = sampling.random_psd(gen, d, rank=rank)
        p = core.support_projector(h)
        hplus = core.pseudo_inverse_psd(h)
        worst = max(worst, float(np.abs(p @ p - p).max()))
        worst = max(worst, float(np.abs(h @ hplus - p).max()))
        worst = max(worst, float(np.abs(h @ hplus @ h - h).max())
                    / max(1.0, float(np.abs(h).max())))
    return worst, 1e-10


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
            worst = max(worst, report.tp_deviation, -report.choi_min_eigenvalue)
            rho = sampling.random_density(gen, dim_in)
            out = apply_channel(chan, rho)
            worst = max(worst, abs(np.trace(out) - 1.0))
            worst = max(worst, -float(np.linalg.eigvalsh(
                core.hermitian_part(out)).min()))
    return float(worst), 1e-10


def _check_dilation_bridge(gen):
    worst = 0.0
    for _ in range(20):
        da, db = int(gen.integers(2, 4)), int(gen.integers(2, 4))
        u = sampling.random_unitary(gen, da * db)
        env = sampling.random_density(gen, db)
        kept = int(gen.integers(0, 2))
        traced = [i for i in (0, 1) if i != kept]
        chan = channel_from_dilation(u, env, [da, db], traced, [kept])
        rho = sampling.random_density(gen, da)
        x = sampling.random_hermitian(gen, da)
        xcheck = sampling.random_hermitian(gen, [da, db][kept])
        hs = heisenberg_risk(core.tensor(rho, env), x, xcheck, u, [da, db],
                             x_factor=0, xcheck_factor=kept)
        ss = schrodinger_risk(rho, x, chan, xcheck)
        worst = max(worst, abs(hs - ss) / max(1.0, abs(ss)))
        # the Kraus form must also match the explicit dilation formula
        direct = core.partial_trace(
            u @ core.tensor(rho, env) @ u.conj().T, [da, db], {kept}
        )
        worst = max(worst, float(np.abs(apply_channel(chan, rho) - direct).max()))
    return worst, 1e-10


def _check_personick_optimality(gen):
    worst = 0.0
    for _ in range(20):
        d_in, d_out = int(gen.integers(2, 5)), int(gen.integers(2, 5))
        rho = sampling.random_density(gen, d_in)
        x = sampling.random_hermitian(gen, d_in)
        chan = sampling.random_channel(gen, d_in, d_out)
        result = personick_estimator(rho, x, chan)
        base = schrodinger_risk(rho, x, chan, result.estimator)
        worst = max(worst, abs(base - result.min_risk))
        for _ in range(10):
            o = sampling.random_hermitian(gen, d_out)
            eps = float(gen.choice([-0.1, -1e-3, 1e-3, 0.1]))
            perturbed = schrodinger_risk(rho, x, chan, result.estimator + eps * o)
            worst = max(worst, base - perturbed)
    return worst, 1e-9


def _check_classical_reduction(gen):
    worst = 0.0
    for _ in range(10):
        n = int(gen.integers(2, 7))
        px = sampling.random_probability_vector(gen, n)
        xvals = gen.standard_normal(n)
        cchan = sampling.random_classical_channel(gen, n, int(gen.integers(2, 7)))
        est, defined = classical_conditional_expectation(px, cchan, xvals)
        qresult = personick_estimator(
            np.diag(px.astype(complex)), np.diag(xvals.astype(complex)),
            channel_from_classical(cchan),
        )
        m = qresult.estimator
        worst = max(worst, float(np.abs(m - np.diag(np.diag(m))).max()))
        worst = max(worst, float(np.abs(np.diag(m).real[defined] - est[defined]).max()))
    return worst, 1e-10


def _check_weak_values(gen):
    worst = 0.0
    for _ in range(20):
        d = int(gen.integers(2, 4))
        rho = sampling.random_density(gen, d)
        x = sampling.random_hermitian(gen, d)
        povm = sampling.random_povm(gen, d, 3)
        chan = channel_from_povm(povm)
        est = personick_estimator(rho, x, chan).estimator
        for i, label in enumerate(povm.labels):
            wv = weak_value(rho, x, povm, label)
            worst = max(worst, abs(est[i, i].real - wv) / 1e-10)
            cwv = complex_weak_value(rho, x, povm, label)
            worst = max(worst, abs(cwv.real - wv) / 1e-12)
    # normalized slack: each metric divided by its own tolerance
    return worst, 1.0


def _check_complex_vs_hermitian(gen):
    worst = 0.0
    for _ in range(20):
        d_in, d_out = int(gen.integers(2, 5)), int(gen.integers(2, 5))
        rho = sampling.random_density(gen, d_in)
        x = sampling.random_hermitian(gen, d_in)
        chan = sampling.random_channel(gen, d_in, d_out)
        herm = personick_estimator(rho, x, chan).min_risk
        cplx = complex_estimator(rho, x, chan).min_risk
        worst = max(worst, cplx - herm)
    return worst, 1e-9


def _check_postcomposition(gen):
    worst = 0.0
    for _ in range(20):
        d = int(gen.integers(2, 4))
        rho = sampling.random_density(gen, d)
        x = sampling.random_hermitian(gen, d)
        first = sampling.random_channel(gen, d, d)
        second = sampling.random_channel(gen, d, int(gen.integers(2, 4)))
        r1 = personick_estimator(rho, x, first).min_risk
        r2 = personick_estimator(rho, x, first.then(second)).min_risk
        worst = max(worst, r1 - r2)
    return worst, 1e-9


def _check_qfi_monotonicity(gen):
    worst = 0.0
    for _ in range(50):
        d_in = int(gen.integers(2, 5))
        family = fisher.unitary_rotation_family(
            sampling.random_density(gen, d_in), sampling.random_hermitian(gen, d_in)
        )
        chan = sampling.random_channel(gen, d_in, int(gen.integers(2, 5)))
        rep = fisher.monotonicity_check(family, chan, float(gen.uniform(-0.5, 0.5)))
        worst = max(worst, -rep.slack, abs(rep.slack - rep.personick_risk))
    return worst, 1e-8


def _check_gaussian_oracle(gen):
    worst = 0.0
    for _ in range(5):
        wr = sampling.random_gaussian_wigner(gen, 1)
        we = sampling.random_gaussian_wigner(gen, 1, weight=float(gen.uniform(0.2, 3.0)))
        x = sampling.random_linear_quadrature(gen, 1)
        closed = gaussian.quadrature_estimator(wr, we, x)
        numer = gaussian.numeric_wigner_integral([wr, we], x)
        denom = gaussian.numeric_wigner_integral([wr, we])
        worst = max(worst, abs(numer / denom - closed) / 1e-6)
        product = gaussian.gaussian_product(wr, we)
        worst = max(worst, abs(denom - product.weight) / product.weight / 1e-6)
    # normalized slack: each metric divided by its own tolerance
    return worst, 1.0


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


def run_selftest(seed: int = 0) -> dict:
    """Run every invariant check with one seed; failures are the output."""
    start = time.perf_counter()
    checks = []
    all_passed = True
    for index, (name, fn) in enumerate(CHECKS):
        # one deterministic substream per check, stable across processes
        gen = sampling.rng((seed << 16) + index)
        worst, threshold = fn(gen)
        passed = bool(worst <= threshold)
        all_passed = all_passed and passed
        checks.append({
            "name": name,
            "passed": passed,
            "worst": float(worst),
            "threshold": threshold,
        })
    return {
        "scenario": {"kind": "selftest", "seed": seed},
        "results": {"checks": checks, "all_passed": all_passed},
        "diagnostics": {
            "warnings": [],
            "elapsed_s": time.perf_counter() - start,
        },
    }
