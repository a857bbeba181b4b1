"""Built-in invariant suite, runnable from the CLI with a fixed seed.

Each check exercises one invariant on seeded random fixtures and yields
its figures as (figure, value) pairs; `CHECKS` holds each figure's pinned
threshold, and `figures` folds the pairs into each figure's worst case.
A check draws only while it is iterated, so k runs chained on one
generator draw what a loop of k times the draws would: the acceptance
criteria run these checks that way, on their own seeds.  The suite is
deterministic given the seed.
"""

from __future__ import annotations

import time

import numpy as np

from . import fisher, gaussian, operator_core as core, sampling
from .channels import (
    apply_channel,
    channel_from_classical,
    channel_from_cq_ensemble,
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
from .operator_core import NumericalFailure, ValidationError
from .scenario import _sweep_draws, provenance, recorded_warnings, rotation_checks


def _largest(*values) -> float:
    """The largest value, NaN if any is NaN, which the builtin `max` can drop."""
    return float(np.max(values))


def _check_jordan_hermitian(gen):
    for _ in range(50):
        d = int(gen.integers(2, 9))
        a = sampling.random_hermitian(gen, d)
        b = sampling.random_hermitian(gen, d)
        j = core.jordan_product(a, b)
        scale = max(1.0, float(np.abs(j).max()))
        yield "anti-Hermitian part", float(np.abs(j - j.conj().T).max()) / scale


def _check_jordan_trace_identity(gen):
    for _ in range(200):
        d = int(gen.integers(2, 9))
        x, y, z = (sampling.random_hermitian(gen, d) for _ in range(3))
        scale = np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z)
        yield "trace identity gap", core.jordan_trace_gap(x, y, z) / scale


def _check_partial_trace(gen):
    for _ in range(20):
        da, db = int(gen.integers(2, 4)), int(gen.integers(2, 4))
        a = sampling.random_density(gen, da)
        b = sampling.random_hermitian(gen, db)
        prod = core.tensor(a, b)
        yield "partial trace gap", np.abs(
            core.partial_trace(prod, [da, db], {0}) - a * np.trace(b)
        )
        m = sampling.random_density(gen, da * db)
        yield "partial trace gap", abs(
            np.trace(core.partial_trace(m, [da, db], {1})) - np.trace(m)
        )


def _check_solve_jordan(gen):
    for _ in range(20):
        d = int(gen.integers(2, 7))
        a = sampling.random_psd(gen, d) + 0.1 * np.eye(d)
        b = sampling.random_hermitian(gen, d)
        x, residual = core.solve_jordan(a, b)
        yield "residual", residual / max(1.0, float(np.linalg.norm(b)))
        yield "residual", np.abs(x - x.conj().T)


def _check_penrose(gen):
    for _ in range(20):
        d = int(gen.integers(3, 7))
        rank = int(gen.integers(1, d))
        h = sampling.random_psd(gen, d, rank=rank)
        p = core.support_projector(h)
        hplus = core.pseudo_inverse_psd(h)
        yield "Penrose gap", np.abs(p @ p - p)
        yield "Penrose gap", np.abs(h @ hplus - p)
        yield "Penrose gap", (float(np.abs(h @ hplus @ h - h).max())
                              / max(1.0, float(np.abs(h).max())))


def _random_channels(gen):
    d = int(gen.integers(2, 5))
    yield d, sampling.random_channel(gen, d, int(gen.integers(2, 5)))
    yield d, channel_from_classical(sampling.random_classical_channel(gen, d, d + 1))
    yield d, channel_from_povm(sampling.random_povm(gen, d, 3))
    yield 2 * d, partial_trace_channel([2, d], {1})
    yield d, depolarizing_channel(d)


def _check_channel_cptp(gen):
    for _ in range(5):
        for dim_in, chan in _random_channels(gen):
            report = validate_cptp(chan)
            yield "CPTP deviation", (report.tp_deviation, -report.choi_min_eigenvalue)
            rho = sampling.random_density(gen, dim_in)
            out = apply_channel(chan, rho)
            yield "CPTP deviation", abs(np.trace(out) - 1.0)
            yield "CPTP deviation", -np.linalg.eigvalsh(core.hermitian_part(out))


def _check_dilation_bridge(gen):
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
        yield "picture gap", abs(hs - ss) / max(1.0, abs(ss))
        # the Kraus form must also match the explicit dilation formula
        direct = core.partial_trace(
            u @ core.tensor(rho, env) @ u.conj().T, [da, db], {kept}
        )
        yield "picture gap", np.abs(apply_channel(chan, rho) - direct)


def _check_personick_optimality(gen):
    for _ in range(5):
        d_in, d_out = int(gen.integers(2, 7)), int(gen.integers(2, 7))
        rho = sampling.random_density(gen, d_in)
        x = sampling.random_hermitian(gen, d_in)
        chan = sampling.random_channel(gen, d_in, d_out)
        result = personick_estimator(rho, x, chan)
        direct = schrodinger_risk(rho, x, chan, result.estimator)
        yield "risk decomposition gap", abs(direct - result.min_risk)
        for _ in range(50):
            o = sampling.random_hermitian(gen, d_out, scale=float(gen.uniform(0.01, 1.0)))
            perturbed = schrodinger_risk(rho, x, chan, result.estimator + o)
            yield "perturbation slack", result.min_risk - perturbed


def _check_classical_reduction(gen):
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
            yield "Bayes gap", abs(est[y] - bayes) if defined[y] else np.inf
        # and the quantum embedding must agree
        m = personick_estimator(np.diag(px.astype(complex)), np.diag(xvals.astype(complex)),
                                channel_from_classical(c)).estimator
        yield "off-diagonal", np.abs(m - np.diag(np.diag(m)))
        yield "Bayes gap", np.abs(np.diag(m).real[defined] - est[defined])


def _check_weak_values(gen):
    for _ in range(20):
        d = int(gen.integers(2, 4))
        rho = sampling.random_density(gen, d)
        x = sampling.random_hermitian(gen, d)
        povm = sampling.random_povm(gen, d, int(gen.integers(2, 5)))
        chan = channel_from_povm(povm)
        est = personick_estimator(rho, x, chan).estimator
        wv, cwv = weak_value(rho, x, povm)[0], complex_weak_value(rho, x, povm)[0]
        yield "estimator-diagonal gap", abs(np.diag(est).real - wv)
        yield "complex-real gap", abs(cwv.real - wv)
        # tr E(y)Xρ, not tr E(y)ρX: their real parts agree, their imaginary parts do not
        cest = complex_estimator(rho, x, chan).estimator
        yield "complex-estimator-diagonal gap", abs(np.diag(cest) - cwv)


def _check_complex_vs_hermitian(gen):
    for _ in range(20):
        d_in, d_out = int(gen.integers(2, 5)), int(gen.integers(2, 5))
        rho = sampling.random_density(gen, d_in)
        x = sampling.random_hermitian(gen, d_in)
        chan = sampling.random_channel(gen, d_in, d_out)
        herm = personick_estimator(rho, x, chan).min_risk
        cplx = complex_estimator(rho, x, chan).min_risk
        yield "complex risk excess", cplx - herm


def _check_postcomposition(gen):
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
        yield "tower gap", abs(r2 - stage.min_risk - r_stage)


def _check_qfi_monotonicity(gen):
    slack, risk = rotation_checks(_sweep_draws(gen, [2, 3, 4], 50))[:, 2:].T
    yield "slack deficit", -slack
    yield "risk gap", abs(slack - risk)


def _gaussian_oracle_gaps(gen, n_modes, draws):
    """The closed-form estimate and product weight against the grid oracle."""
    for _ in range(draws):
        wr = sampling.random_gaussian_wigner(gen, n_modes)
        we = sampling.random_gaussian_wigner(gen, n_modes,
                                             weight=float(gen.uniform(0.3, 2.0)))
        x = sampling.random_linear_quadrature(gen, n_modes)
        closed = gaussian.quadrature_estimator(wr, we, x)
        product_weight = gaussian.gaussian_product(wr, we).weight
        denom, numer = gaussian.numeric_wigner_integral([wr, we], x)
        yield "oracle gap", abs(numer / denom - closed)
        yield "product weight gap", abs(denom - product_weight) / product_weight


def _check_gaussian_oracle(gen):
    return _gaussian_oracle_gaps(gen, 1, 5)


def _hermitian_basis(d):
    """An orthonormal basis of the d×d Hermitian matrices under ⟨A, B⟩ = tr AB."""
    units = np.eye(d * d).reshape(d, d, d, d)  # units[j, k] = |j⟩⟨k|
    j, k = np.triu_indices(d, 1)
    return np.concatenate([units[range(d), range(d)],
                           (units[j, k] + units[k, j]) / np.sqrt(2),
                           1j * (units[j, k] - units[k, j]) / np.sqrt(2)])


def _heisenberg_optimum(rho0, x, u, dims, kept):
    """Ohki's optimum, solved on the dilated space alone: the X̌ on factor
    `kept` that minimizes tr ρ₀[X⊗I − U†(X̌ on kept)U]².

    With Y_j = U†(B_j on kept)U over an orthonormal Hermitian basis B_j, the
    coefficients of X̌ solve G c = h, G_ij = tr ρ₀(Y_i∘Y_j) and
    h_i = tr ρ₀(Y_i∘(X⊗I)).  G is the matrix of X̌ ↦ κ(ρ)∘X̌, because
    tr ρ₀(Y∘Y') = tr κ(ρ)(X̌∘X̌'): its eigenvalues are (λ_i + λ_j)/2 over
    κ(ρ)'s, so rcond = SUPPORT_TOL/2 drops what `solve_jordan` drops.  Its
    kernel is the X̌ supported on the kernel of κ(ρ), and the least-squares
    solution of minimum norm is orthogonal to that kernel, so it is zero
    there: Personick's canonical choice, which `solve_jordan` makes too.
    """
    basis = _hermitian_basis(dims[kept])
    y = u.conj().T @ np.array([core.embed(b, dims, kept) for b in basis]) @ u
    gram = core.trace(rho0 @ y[:, None] @ y).real
    h = core.trace(rho0 @ y @ core.embed(x, dims, 0)).real
    coeffs = np.linalg.lstsq(gram, h, rcond=core.SUPPORT_TOL / 2)[0]
    return np.tensordot(coeffs, basis, 1)


def _check_heisenberg_optimum(gen):
    for _ in range(20):
        for figure in ("full-rank gap", "rank-deficient gap"):
            full = figure == "full-rank gap"
            da, db, kept = int(gen.integers(2, 5)), int(gen.integers(2, 4)), int(gen.integers(2))
            u = sampling.random_unitary(gen, da * db)
            env = sampling.random_density(gen, db, rank=db if full else 1)
            rank = da if full else int(gen.integers(1, da + 1))
            rho = sampling.random_density(gen, da, rank=rank)
            x = sampling.random_hermitian(gen, da)
            ohki = _heisenberg_optimum(core.tensor(rho, env), x, u, [da, db], kept)
            chan = channel_from_dilation(u, env, [da, db], [kept])
            yield figure, np.abs(ohki - personick_estimator(rho, x, chan).estimator)


def _check_cq_ensemble(gen):
    for _ in range(20):
        n, d = int(gen.integers(2, 5)), int(gen.integers(2, 5))
        states = np.array([sampling.random_density(gen, d, rank=int(gen.integers(1, d + 1)))
                           for _ in range(n)])
        rho = sampling.random_density(gen, n)
        direct = np.tensordot(np.diag(rho).real, states, 1)  # Σ_x ⟨x|ρ|x⟩ ρ_x
        yield "ensemble gap", np.abs(apply_channel(channel_from_cq_ensemble(states), rho)
                                     - direct)


def _check_rank_change(gen):
    missed = 0
    for _ in range(20):
        d = int(gen.integers(2, 6))
        rho0 = sampling.random_density(gen, d, rank=int(gen.integers(1, d)))
        theta = float(gen.uniform(-1.0, 1.0))
        step = np.eye(d) / d - rho0  # toward I/d: it has weight on ρ₀'s kernel
        family = fisher.StateFamily(state_at=lambda t: rho0 + (t - theta) * step,
                                    derivative_at=lambda t: step)
        try:
            fisher.sld(family, theta)
            missed += 1
        except fisher.RankChangeError:
            pass
    yield "missed rank changes", missed


# name → (check, {figure: threshold}); a check's index seeds its substream
CHECKS = {
    "jordan_hermitian": (_check_jordan_hermitian, {"anti-Hermitian part": 1e-13}),
    "jordan_trace_identity": (_check_jordan_trace_identity, {"trace identity gap": 1e-12}),
    "partial_trace": (_check_partial_trace, {"partial trace gap": 1e-12}),
    "solve_jordan_roundtrip": (_check_solve_jordan, {"residual": 1e-10}),
    "penrose_identities": (_check_penrose, {"Penrose gap": 1e-10}),
    "channel_cptp": (_check_channel_cptp, {"CPTP deviation": 1e-10}),
    "dilation_bridge": (_check_dilation_bridge, {"picture gap": 1e-10}),
    "personick_optimality": (_check_personick_optimality,
                             {"perturbation slack": 1e-9, "risk decomposition gap": 1e-9}),
    "classical_reduction": (_check_classical_reduction,
                            {"Bayes gap": 1e-10, "off-diagonal": 1e-10}),
    "weak_values": (_check_weak_values, {"estimator-diagonal gap": 1e-10,
                                         "complex-real gap": 1e-12,
                                         "complex-estimator-diagonal gap": 1e-10}),
    "complex_vs_hermitian": (_check_complex_vs_hermitian, {"complex risk excess": 1e-9}),
    "postcomposition_monotone": (_check_postcomposition, {"tower gap": 1e-9}),
    "qfi_monotonicity": (_check_qfi_monotonicity, {"slack deficit": 1e-8, "risk gap": 1e-8}),
    "gaussian_oracle": (_check_gaussian_oracle,
                        {"oracle gap": 1e-6, "product weight gap": 1e-6}),
    # appended in order, so that adding one moved no other check's substream
    "heisenberg_optimum": (_check_heisenberg_optimum,
                           {"full-rank gap": 1e-10, "rank-deficient gap": 1e-9}),
    "cq_ensemble": (_check_cq_ensemble, {"ensemble gap": 1e-12}),
    "rank_change": (_check_rank_change, {"missed rank changes": 0.0}),
}


def figures(thresholds, pairs) -> dict:
    """{figure: (worst, threshold)}: each figure's largest value over the
    (figure, value) pairs, from 0.0, over every element of an array value,
    and NaN if any value is NaN."""
    worst = dict.fromkeys(thresholds, 0.0)
    for figure, value in pairs:
        worst[figure] = _largest(worst[figure], *np.ravel(value))
    return {figure: (worst[figure], threshold) for figure, threshold in thresholds.items()}


def _verdict(folded):
    """The largest figure, each over its own threshold if the thresholds
    differ; None, which fails, if any figure is NaN or infinite."""
    values, thresholds = zip(*folded.values())
    if len(set(thresholds)) > 1:
        values, thresholds = [v / t for v, t in folded.values()], [1.0]
    return (_largest(*values) if np.isfinite(values).all() else None), thresholds[0]


def run_selftest(seed: int = 0) -> dict:
    """Run every invariant check with one seed; failures are the output.

    A check that raises fails with `worst` None and the exception under
    `error`; the checks after it still run.
    """
    if seed < 0:
        raise ValidationError("seed", f"seed must be a non-negative integer, got {seed}")
    start = time.perf_counter()
    checks = []
    check_elapsed = {}
    with recorded_warnings() as caught:
        for index, (name, (check, thresholds)) in enumerate(CHECKS.items()):
            # one deterministic substream per check, stable across processes
            gen = sampling.rng((seed << 16) + index)
            check_start = time.perf_counter()
            error = None
            try:
                worst, threshold = _verdict(figures(thresholds, check(gen)))
            except (ValueError, ArithmeticError, NumericalFailure) as exc:
                # a check that raised fails; ValueError covers ValidationError
                # and numpy's LinAlgError
                worst, threshold = _verdict({f: (np.nan, t) for f, t in thresholds.items()})
                error = f"{type(exc).__name__}: {exc}"
            check_elapsed[name] = time.perf_counter() - check_start
            checks.append({
                "name": name,
                "passed": worst is not None and worst <= threshold,
                "worst": worst,
                "threshold": threshold,
            })
            if error is not None:
                checks[-1]["error"] = error
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
