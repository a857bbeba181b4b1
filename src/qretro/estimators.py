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
from .operator_core import ValidationError, jordan_product

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
    core.require(abs(value.imag) > tol * np.maximum(1.0, abs(value)), "real", what,
                 "has imaginary part {:.3e}", value.imag)
    return core.scalar(value.real)


def schrodinger_risk(rho, x, k: QuantumChannel, xcheck) -> float:
    """tr ρX² − 2 tr X̌ κ(ρ∘X) + tr κ(ρ) X̌²."""
    rho = core.as_density(rho)
    x = core.as_hermitian(x, name="x")
    xcheck = core.as_hermitian(xcheck, name="xcheck")
    if (rho.shape != (k.dim_in,) * 2 or x.shape != rho.shape
            or xcheck.shape != (k.dim_out,) * 2 or k.kraus.ndim != 3):
        raise ValidationError("shape", "operator dimensions inconsistent with channel")
    value = (
        np.trace(rho @ x @ x)
        - 2 * np.trace(xcheck @ apply_channel(k, jordan_product(rho, x)))
        + np.trace(apply_channel(k, rho) @ xcheck @ xcheck)
    )
    return _real(value, "risk")


def heisenberg_risk(rho0, x, xcheck, u, dims, kept) -> float:
    """tr ρ₀ [X − U†X̌U]² on the dilated space of `channel_from_dilation`.

    `x` lives on tensor factor 0 and `xcheck` on the factors in `kept`; the
    embedding is explicit, never inferred.
    """
    rho0 = core.as_density(rho0, name="rho0")
    ptrace = partial_trace_channel(dims, kept)
    u = core.as_unitary(u, ptrace.dim_in)
    if rho0.shape != u.shape:
        raise ValidationError("dims", f"rho0 shape {rho0.shape} != U shape {u.shape}")
    xcheck = core.as_hermitian(xcheck, name="xcheck")
    if xcheck.shape != (ptrace.dim_out,) * 2:
        raise ValidationError("dims", f"xcheck shape {xcheck.shape} != kept {ptrace.dim_out}")
    x_emb = core.embed(core.as_hermitian(x, name="x"), dims, 0)
    # X̌ on `kept`, identity on the traced factors: Σ P† X̌ P over the partial trace
    xc_emb = (core.dagger(ptrace.kraus) @ xcheck @ ptrace.kraus).sum(axis=0)
    diff = x_emb - u.conj().T @ xc_emb @ u
    return _real(np.trace(rho0 @ diff @ diff), "risk")


def personick_estimator(rho, x, k: QuantumChannel, *, image=None) -> EstimationResult:
    """Optimal Hermitian estimator of x through κ and its minimum risk.

    Solves κ(ρ)∘X̌ = κ(ρ∘X) on the support of κ(ρ) (zero on the kernel)
    and evaluates the minimum risk tr ρX² − tr κ(ρ)X̌², in one call for
    stacks of ρ, x or κ.  A caller that has checked ρ, x and κ(ρ) already
    passes `image` = (κ(ρ), its Spectrum); nothing is then validated,
    pushed through κ or decomposed again.
    """
    if image is None:
        rho = core.as_density(rho)
        x = core.as_hermitian(x, name="x")
        if not rho.shape[-1] == x.shape[-1] == k.dim_in:
            raise ValidationError("shape", "rho/x dimension != channel dim_in")
        core.stack_shape("rho and x", rho.shape[:-2], x.shape[:-2])
        krho = core.as_hermitian(apply_channel(k, rho))
        image = krho, core.Spectrum.of(krho)
        image[1].require_psd("kappa(rho)")
    krho, spec = image
    rhs = core.hermitian_part(apply_channel(k, core._jordan(rho, x)))
    xopt, residual = core.solve_jordan(krho, rhs, spectrum=spec)
    min_risk = _real(
        core.trace(rho @ x @ x) - core.trace(krho @ xopt @ xopt), "min risk", tol=1e-9
    )
    res = np.asarray(residual)
    for i, name in core.failures(res > RESIDUAL_WARN, "normal-equation residual"):
        warnings.warn(f"{name} {res[i]:.3e} exceeds {RESIDUAL_WARN:g}", stacklevel=2)
    return EstimationResult(
        estimator=xopt,
        min_risk=min_risk,
        residual=residual,
        support_rank=spec.rank(),
    )


def _conditional(numer, prob):
    """(numer / prob, defined), NaN and False where prob ≤ WEAKVALUE_FLOOR.  Real
    and imaginary parts divide separately, each rounded once: numpy's complex
    division multiplies by a rounded reciprocal."""
    defined = prob > WEAKVALUE_FLOOR
    values = np.full(numer.shape, np.nan, dtype=numer.dtype)
    values.real[defined] = numer.real[defined] / prob[defined]
    if np.iscomplexobj(numer):
        values.imag[defined] = numer.imag[defined] / prob[defined]
    return values, defined


def _probabilities(rho, x, p: Povm):
    """tr E(y)ρ by outcome, for checked ρ and x of the POVM's dimension."""
    if rho.shape != (p.dim, p.dim) or x.shape != rho.shape:
        raise ValidationError(
            "shape", f"rho/x shapes {rho.shape}/{x.shape} != POVM dim {p.dim}"
        )
    return np.array([np.trace(e @ rho).real for e in p.effects])


def weak_value(rho, x, p: Povm):
    """Real weak values tr E(y)(ρ∘X) / tr E(y)ρ by outcome in label order, as
    (values, defined) like `classical_conditional_expectation`."""
    rho = core.as_density(rho)
    x = core.as_hermitian(x, name="x")
    prob = _probabilities(rho, x, p)
    jordan = core._jordan(rho, x)
    numer = _real([np.trace(e @ jordan) for e in p.effects], "weak value")
    return _conditional(numer, prob)


def classical_conditional_expectation(px, c: ClassicalChannel, xvals):
    """Bayesian conditional expectations E[X|Y=y] for a classical channel.

    Returns (estimates, defined): entries at outcomes with P_Y(y) below the
    probability floor are NaN and flagged False in `defined`.
    """
    px = np.asarray(px, dtype=float)
    xvals = np.asarray(xvals, dtype=float)
    if px.shape != (c.n_in,) or xvals.shape != (c.n_in,):
        raise ValidationError("shape", "px/xvals length must equal channel n_in")
    if not (np.all(np.isfinite(px)) and np.all(np.isfinite(xvals))):
        raise ValidationError("finite", "px/xvals contain NaN or Inf entries")
    if px.min() < 0 or abs(px.sum() - 1.0) > 1e-12:
        raise ValidationError("probability", "px must be a probability vector")
    return _conditional(c.transition @ (px * xvals), c.transition @ px)


def complex_estimator(rho, x, k: QuantumChannel) -> EstimationResult:
    """Unconstrained (possibly non-Hermitian) optimum X̌ κ(ρ) = κ(Xρ)."""
    rho = core.as_density(rho)
    x = core.as_square(x, "x")
    if rho.shape != (k.dim_in, k.dim_in) or x.shape != rho.shape or k.kraus.ndim != 3:
        raise ValidationError("shape", "operator dimensions inconsistent with channel")
    krho = core.as_hermitian(apply_channel(k, rho))
    spec = core.Spectrum.of(krho)
    spec.require_psd("input")
    rhs = apply_channel(k, x @ rho)
    xopt = rhs @ core.pseudo_inverse_psd(krho, spectrum=spec)
    residual = float(np.linalg.norm(xopt @ krho - rhs))
    min_risk = _real(
        np.trace(rho @ x.conj().T @ x) - np.trace(krho @ xopt.conj().T @ xopt),
        "min risk",
        tol=1e-9,
    )
    return EstimationResult(
        estimator=xopt, min_risk=min_risk, residual=residual, support_rank=spec.rank()
    )


def complex_weak_value(rho, x, p: Povm):
    """Complex weak values tr E(y)Xρ / tr E(y)ρ by outcome, as (values, defined)."""
    rho = core.as_density(rho)
    x = core.as_square(x, "x")
    prob = _probabilities(rho, x, p)
    return _conditional(np.array([np.trace(e @ x @ rho) for e in p.effects]), prob)
