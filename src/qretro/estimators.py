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
from .channels import ClassicalChannel, Povm, QuantumChannel, apply_channel
from .operator_core import ValidationError, jordan_product

RISK_TOL = 1e-9  # two nested eigendecompositions accumulate error
WEAKVALUE_FLOOR = 1e-12
RESIDUAL_WARN = 1e-8


class ZeroProbabilityOutcome(ValidationError):
    """Conditional estimate requested at a (near-)zero-probability outcome."""


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
            or xcheck.shape != (k.dim_out,) * 2):
        raise ValidationError("shape", "operator dimensions inconsistent with channel")
    value = (
        np.trace(rho @ x @ x)
        - 2 * np.trace(xcheck @ apply_channel(k, jordan_product(rho, x)))
        + np.trace(apply_channel(k, rho) @ xcheck @ xcheck)
    )
    return _real(value, "risk")


def heisenberg_risk(rho0, x, xcheck, u, dims, x_factor: int = 0,
                    xcheck_factor: int | None = None) -> float:
    """tr ρ₀ [X − U†X̌U]² on the dilated space.

    `x` lives on tensor factor `x_factor` and `xcheck` on `xcheck_factor`;
    the embedding is explicit, never inferred.
    """
    dims = [int(d) for d in dims]
    rho0 = core.as_density(rho0, name="rho0")
    if xcheck_factor is None:
        xcheck_factor = len(dims) - 1
    d_total = int(np.prod(dims))
    u = core.as_square(u, "u")
    if u.shape != (d_total, d_total) or rho0.shape != u.shape:
        raise ValidationError("dims", "rho0/U inconsistent with dims")
    if float(np.abs(u.conj().T @ u - np.eye(d_total)).max()) > 1e-10:
        raise ValidationError("unitary", "U is not unitary within 1e-10")
    x_emb = core.embed(core.as_hermitian(x, name="x"), dims, x_factor)
    xc_emb = core.embed(core.as_hermitian(xcheck, name="xcheck"), dims, xcheck_factor)
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
        if rho.shape[-1] != k.dim_in:
            raise ValidationError("shape", "rho dimension != channel dim_in")
        krho = core.as_hermitian(apply_channel(k, rho))
        image = krho, core.Spectrum.of(krho)
        image[1].require_psd("kappa(rho)")
    krho, spec = image
    rhs = core.hermitian_part(apply_channel(k, core._jordan(rho, x)))
    xopt, residual = core.solve_jordan(krho, rhs, spectrum=spec)
    min_risk = _real(
        core.trace(rho @ x @ x) - core.trace(krho @ xopt @ xopt), "min risk", tol=1e-9
    )
    for k in np.argwhere(np.asarray(residual) > RESIDUAL_WARN):
        name = "normal-equation residual" + "".join(f"[{i}]" for i in k)
        msg = f"{name} {np.asarray(residual)[tuple(k)]:.3e} exceeds {RESIDUAL_WARN:g}"
        warnings.warn(msg, stacklevel=2)
    return EstimationResult(
        estimator=xopt,
        min_risk=min_risk,
        residual=residual,
        support_rank=spec.rank(),
    )


def _outcome(rho, x, p: Povm, y):
    """E(y) and tr E(y)ρ for checked ρ and x, above the probability floor."""
    if rho.shape != (p.dim, p.dim) or x.shape != rho.shape:
        raise ValidationError(
            "shape", f"rho/x shapes {rho.shape}/{x.shape} != POVM dim {p.dim}"
        )
    e = p.effect(y)
    prob = float(np.trace(e @ rho).real)
    if prob <= WEAKVALUE_FLOOR:
        raise ZeroProbabilityOutcome(
            "probability",
            f"outcome {y!r} has probability {prob:.3e}; conditional undefined"
        )
    return e, prob


def weak_value(rho, x, p: Povm, y) -> float:
    """Real weak value tr E(y)(ρ∘X) / tr E(y)ρ at outcome y."""
    rho = core.as_density(rho)
    x = core.as_hermitian(x, name="x")
    e, prob = _outcome(rho, x, p, y)
    return _real(np.trace(e @ core._jordan(rho, x)), "weak value") / prob


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
    py = c.transition @ px
    numer = c.transition @ (px * xvals)
    defined = py > WEAKVALUE_FLOOR
    estimates = np.full(c.n_out, np.nan)
    estimates[defined] = numer[defined] / py[defined]
    return estimates, defined


def complex_estimator(rho, x, k: QuantumChannel) -> EstimationResult:
    """Unconstrained (possibly non-Hermitian) optimum X̌ κ(ρ) = κ(Xρ)."""
    rho = core.as_density(rho)
    x = core.as_square(x, "x")
    if rho.shape != (k.dim_in, k.dim_in) or x.shape != rho.shape:
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


def complex_weak_value(rho, x, p: Povm, y) -> complex:
    """Complex weak value tr E(y)Xρ / tr E(y)ρ at outcome y."""
    rho = core.as_density(rho)
    x = core.as_square(x, "x")
    e, prob = _outcome(rho, x, p, y)
    return complex(np.trace(e @ x @ rho)) / prob
