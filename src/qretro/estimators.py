"""Minimum mean-square retrodiction estimators.

The Hermitian optimum solves the Jordan-product normal equation
κ(ρ)∘X̌ = κ(ρ∘X); its specializations (classical conditional expectation,
weak values per measurement outcome, the unconstrained complex estimator)
are provided alongside the Schrödinger- and Heisenberg-picture risk
functionals used to cross-check them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import operator_core as core
from .channels import ClassicalChannel, Povm, QuantumChannel, apply_channel, partial_trace_channel
from .operator_core import ValidationError

RISK_TOL = 1e-9  # two nested eigendecompositions accumulate error
WEAKVALUE_FLOOR = 1e-12
RESIDUAL_WARN = 1e-8


@dataclass(frozen=True)
class EstimationResult:
    """A minimum-risk estimator, Hermitian (Personick) or complex, or a stack of them."""

    estimator: np.ndarray
    min_risk: float
    residual: float  # ‖κ(ρ)∘X̌ − κ(ρ∘X)‖_F, or ‖X̌κ(ρ) − κ(Xρ)‖_F for complex
    support_rank: int  # rank of κ(ρ)

    def __post_init__(self):
        risk = np.asarray(self.min_risk)
        core.require(risk < -RISK_TOL, "risk", "negative risk", "{:.3e}", risk)


def _real(value, what: str, tol: float = 1e-12):
    value = np.asarray(value)
    core.require(~np.isfinite(value), "range", what, "is not finite: {}", value)
    core.require(abs(value.imag) > tol * np.maximum(1.0, abs(value)), "real", what,
                 "has imaginary part {:.3e}", value.imag)
    return core.scalar(value.real)


def schrodinger_risk(rho, x, k: QuantumChannel, xcheck) -> float:
    """tr ρX² − 2 tr X̌ κ(ρ∘X) + tr κ(ρ) X̌²."""
    rho, x = core.as_density(rho), core.as_hermitian(x, name="x")
    xcheck = core.as_hermitian(xcheck, name="xcheck")
    square = (k.dim_in, k.dim_in)
    core.require_fit(rho=(rho, square), x=(x, square), k=(k.kraus, k.kraus.shape[-3:]),
                     xcheck=(xcheck, (k.dim_out,) * 2))
    value = (
        np.trace(rho @ x @ x)
        - 2 * np.trace(xcheck @ apply_channel(k, core._jordan(rho, x)))
        + np.trace(apply_channel(k, rho) @ xcheck @ xcheck)
    )
    return _real(value, "risk")


def heisenberg_risk(rho0, x, xcheck, u, dims, kept) -> float:
    """tr ρ₀ [X − U†X̌U]² on the dilated space of `channel_from_dilation`.

    `x` lives on tensor factor 0 and `xcheck` on the factors in `kept`; the
    embedding is explicit, never inferred.
    """
    rho0 = core.as_density(rho0, name="rho0")
    dims, kept = core.as_keep(dims, kept)
    ptrace = partial_trace_channel(dims, kept)
    u = core.as_unitary(u, ptrace.dim_in)
    x, xcheck = core.as_hermitian(x, name="x"), core.as_hermitian(xcheck, name="xcheck")
    core.require_fit(rho0=(rho0, u.shape), x=(x, (dims[0],) * 2),
                     xcheck=(xcheck, (ptrace.dim_out,) * 2))
    x_emb = np.kron(x, np.eye(ptrace.dim_in // dims[0]))  # factor 0 is the slow index
    # X̌ on `kept`, identity on the traced factors: Σ P† X̌ P over the partial trace
    xc_emb = (core.dagger(ptrace.kraus) @ xcheck @ ptrace.kraus).sum(axis=0)
    diff = x_emb - u.conj().T @ xc_emb @ u
    return _real(np.trace(rho0 @ diff @ diff), "risk")


def personick_estimator(rho, x, k: QuantumChannel) -> EstimationResult:
    """Optimal Hermitian estimator of x through κ and its minimum risk.

    Solves κ(ρ)∘X̌ = κ(ρ∘X) on the support of κ(ρ) (zero on the kernel)
    and evaluates the minimum risk tr ρX² − tr κ(ρ)X̌², in one call for
    stacks of ρ, x or κ.
    """
    rho = core.as_density(rho)
    x = core.as_hermitian(x, name="x")
    square = (..., k.dim_in, k.dim_in)
    core.require_fit(rho=(rho, square), x=(x, square),
                     k=(k.kraus, (..., *k.kraus.shape[-3:])))
    krho = core.as_hermitian(apply_channel(k, rho))
    spec = core.Spectrum.of(krho)
    spec.require_psd("kappa(rho)")
    return _personick(krho, spec, apply_channel(k, core._jordan(rho, x)),
                      core.trace(rho @ x @ x))


def _personick(krho, spec, pushed, risk_in) -> EstimationResult:
    """Kernel of `personick_estimator`: the solve on checked κ(ρ) and its
    Spectrum, with `pushed` = κ(ρ∘X) and `risk_in` = tr ρX².  Its residual
    warning names the caller of the function that called it."""
    xopt, residual = core.solve_jordan(krho, core.hermitian_part(pushed), spectrum=spec)
    min_risk = _real(risk_in - core.trace(krho @ xopt @ xopt), "min risk", tol=RISK_TOL)
    res = np.asarray(residual)
    for i, name in core.failures(res > RESIDUAL_WARN, "normal-equation residual"):
        warnings.warn(f"{name} {res[i]:.3e} exceeds {RESIDUAL_WARN:g}", stacklevel=3)
    return EstimationResult(
        estimator=xopt,
        min_risk=min_risk,
        residual=residual,
        support_rank=spec.rank(),
    )


def _conditional(numer, prob):
    """(numer / prob, defined), NaN and False where prob ≤ WEAKVALUE_FLOOR, and
    a `range` error where a defined value is not finite.  Real and imaginary
    parts divide separately, each rounded once: numpy's complex division
    multiplies by a rounded reciprocal."""
    defined = prob > WEAKVALUE_FLOOR
    values = np.full(numer.shape, np.nan, dtype=numer.dtype)
    values.real[defined] = numer.real[defined] / prob[defined]
    if np.iscomplexobj(numer):
        values.imag[defined] = numer.imag[defined] / prob[defined]
    core.require(defined & ~np.isfinite(values), "range", "conditional expectation",
                 "is not finite: {}", values)
    return values, defined


def weak_value(rho, x, p: Povm):
    """Real weak values tr E(y)(ρ∘X) / tr E(y)ρ by outcome in label order, as
    (values, defined) like `classical_conditional_expectation`."""
    rho, x = core.as_density(rho), core.as_hermitian(x, name="x")
    core.require_fit(rho=(rho, (p.dim,) * 2), x=(x, (p.dim,) * 2))
    numer = _real(core.trace(p.effects @ core._jordan(rho, x)), "weak value")
    return _conditional(numer, core.trace(p.effects @ rho).real)


def classical_conditional_expectation(px, c: ClassicalChannel, xvals):
    """Bayesian conditional expectations E[X|Y=y] for a classical channel.

    Returns (estimates, defined): entries at outcomes with P_Y(y) below the
    probability floor are NaN and flagged False in `defined`.
    """
    px, xvals = core.as_array(px, float, "px"), core.as_array(xvals, float, "xvals")
    core.require_fit(px=(px, (c.n_in,)), xvals=(xvals, (c.n_in,)))
    if px.min() < 0 or abs(px.sum() - 1.0) > 1e-12:
        raise ValidationError("probability", "px must be a probability vector")
    return _conditional(c.transition @ (px * xvals), c.transition @ px)


def complex_estimator(rho, x, k: QuantumChannel) -> EstimationResult:
    """Unconstrained (possibly non-Hermitian) optimum X̌ κ(ρ) = κ(Xρ)."""
    rho, x = core.as_density(rho), core.as_square(x, name="x")
    square = (k.dim_in, k.dim_in)
    core.require_fit(rho=(rho, square), x=(x, square), k=(k.kraus, k.kraus.shape[-3:]))
    krho = core.as_hermitian(apply_channel(k, rho))
    spec = core.Spectrum.of(krho)
    spec.require_psd("kappa(rho)")
    rhs = apply_channel(k, x @ rho)
    xopt = rhs @ core.pseudo_inverse_psd(krho, spectrum=spec)
    residual = float(np.linalg.norm(xopt @ krho - rhs))
    min_risk = _real(
        np.trace(rho @ x.conj().T @ x) - np.trace(krho @ xopt.conj().T @ xopt),
        "min risk",
        tol=RISK_TOL,
    )
    return EstimationResult(
        estimator=xopt, min_risk=min_risk, residual=residual, support_rank=spec.rank()
    )


def complex_weak_value(rho, x, p: Povm):
    """Complex weak values tr E(y)Xρ / tr E(y)ρ by outcome, as (values, defined)."""
    rho, x = core.as_density(rho), core.as_square(x, name="x")
    core.require_fit(rho=(rho, (p.dim,) * 2), x=(x, (p.dim,) * 2))
    return _conditional(core.trace(p.effects @ x @ rho), core.trace(p.effects @ rho).real)
