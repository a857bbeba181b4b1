"""Symmetric logarithmic derivatives and quantum Fisher information.

The SLD is a Jordan-product solve ∂ρ/∂θ = ρ∘S, the Fisher information is
J = tr ρS², and its monotonicity under parameter-independent channels is
exposed as an executable check whose slack equals the minimum retrodiction
risk of S itself.

Validation happens where a state enters: ρ(θ) and ∂ρ(θ) are checked once
per evaluation of a family, ρ(θ) together with its one `eigh`.  `sld`,
`solve_jordan` and `personick_estimator` take those checked arrays and the
`Spectrum` of ρ(θ) or κ(ρ(θ)) from a caller that has them.
A stacked family, with θ an array, runs many checks in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import operator_core as core
from .channels import QuantumChannel, apply_channel
from .estimators import _real, personick_estimator
from .operator_core import ValidationError

FD_STEP = 1e-5  # central differences; ~1e-10 error suffices vs 1e-8 checks


class RankChangeError(ValidationError):
    """The family's rank changes at the queried point; the SLD is singular there."""


@dataclass
class StateFamily:
    """One-parameter family θ ↦ ρ(θ) with optional analytic derivative."""

    state_at: Callable[[float], np.ndarray]
    derivative_at: Optional[Callable[[float], np.ndarray]] = None

    def density(self, theta: float) -> np.ndarray:
        return core.as_density(self.state_at(theta), name=_rho_name(theta))

    def derivative(self, theta: float) -> np.ndarray:
        if self.derivative_at is not None:
            return _tangent(self.derivative_at(theta))
        h = FD_STEP
        return _tangent(
            (np.asarray(self.state_at(theta + h), dtype=complex)
             - np.asarray(self.state_at(theta - h), dtype=complex)) / (2 * h)
        )


def _rho_name(theta) -> str:
    """ρ's name at θ in a failure: `rho(0.4)`, or one name for a stacked θ."""
    return f"rho({theta})" if np.ndim(theta) == 0 else "rho(theta)"


def _tangent(d) -> np.ndarray:
    """Check a derivative of a state: Hermitian and traceless."""
    d = core.as_hermitian(d, name="drho")
    tr = abs(core.trace(d))
    core.require(tr > 1e-10 * np.maximum(1.0, np.abs(d).max(axis=(-2, -1))), "trace",
                 "∂ρ/∂θ", "has trace {:.3e}, expected 0", tr)
    return d


def _evaluate(family: StateFamily, theta):
    """(ρ(θ), its Spectrum, ∂ρ(θ)), each checked once."""
    rho, spec = core._density_with_spectrum(family.state_at(theta), name=_rho_name(theta))
    return rho, spec, family.derivative(theta)


def sld(family: StateFamily, theta: float, *, at=None) -> np.ndarray:
    """Hermitian S with ρ∘S = ∂ρ/∂θ, defined on the support of ρ.

    Families whose rank changes at θ (derivative leaking off the support)
    are rejected: the SLD does not exist there.  A caller that has already
    evaluated the family at θ passes `at` = (ρ(θ), its Spectrum, ∂ρ(θ)),
    checked, and the family is not read (it may be None).
    """
    rho, spec, drho = at or _evaluate(family, theta)
    comp = np.eye(rho.shape[-1]) - spec.projector()
    leak = np.linalg.norm(comp @ drho @ comp, axis=(-2, -1))
    scale = np.maximum(1.0, np.linalg.norm(drho, axis=(-2, -1)))
    if bad := next(core.failures(leak > 1e-8 * scale, _rho_name(theta)), None):
        raise RankChangeError(
            "rank",
            f"derivative has norm {leak[bad[0]]:.3e} off the support of {bad[1]}; "
            "the family changes rank at this point"
        )
    s, _residual = core.solve_jordan(rho, drho, spectrum=spec)
    return s


def _qfi(rho, s) -> float:
    return _real(core.trace(rho @ s @ s), "J")


def qfi(rho, s) -> float:
    """Fisher information J = tr ρS² for a given SLD."""
    rho = core.as_density(rho)
    s = core.as_hermitian(s, name="s")
    if rho.shape != s.shape:
        raise ValidationError("shape", "rho and s dimensions differ")
    return _qfi(rho, s)


def qfi_at(family: StateFamily, theta: float) -> float:
    at = _evaluate(family, theta)
    return _qfi(at[0], sld(family, theta, at=at))


def push_family(family: StateFamily, k: QuantumChannel) -> StateFamily:
    """The image family θ ↦ κ(ρ(θ)); the derivative pushes through κ linearly."""
    return StateFamily(
        state_at=lambda t: apply_channel(k, family.density(t)),
        derivative_at=lambda t: apply_channel(k, family.derivative(t)),
    )


@dataclass(frozen=True)
class PushforwardReport:
    """Both sides of κ(ρ)∘S_κ(ρ) = κ(ρ∘S_ρ) and their gap (per element of a stack)."""

    lhs: np.ndarray
    rhs: np.ndarray
    gap: float
    estimator_gap: float  # ‖S_κ(ρ) − Personick estimate of S_ρ‖_F


@dataclass(frozen=True)
class MonotonicityReport:  # for a stack, each field holds one entry per check
    j_in: float
    j_out: float
    slack: float  # J_in − J_out, nonnegative up to rounding
    personick_risk: float  # minimum risk of estimating S_ρ through κ
    support_rank: int


def _push(family: StateFamily, k: QuantumChannel, theta: float):
    """ρ, S_ρ, κ(ρ), S_κ(ρ) and the Personick estimate of S_ρ at θ: the family
    evaluated once, pushed through κ once, solved in one `eigh` of ρ and one
    of κ(ρ)."""
    rho, _, drho = at = _evaluate(family, theta)
    s_in = sld(family, theta, at=at)
    krho, kspec = core._density_with_spectrum(apply_channel(k, rho), f"kappa({_rho_name(theta)})")
    kat = krho, kspec, _tangent(apply_channel(k, drho))
    s_out = sld(None, theta, at=kat)  # S of the image family θ ↦ κ(ρ(θ))
    est = personick_estimator(rho, s_in, k, image=(krho, kspec))
    return rho, s_in, krho, s_out, est


def sld_pushforward_check(family: StateFamily, k: QuantumChannel,
                          theta: float) -> PushforwardReport:
    """Verify that the output SLD is the conditional expectation of the input SLD."""
    rho, s_in, krho, s_out, est = _push(family, k, theta)
    lhs = core._jordan(krho, s_out)
    rhs = core.hermitian_part(apply_channel(k, core._jordan(rho, s_in)))
    return PushforwardReport(
        lhs=lhs,
        rhs=rhs,
        gap=core.scalar(np.linalg.norm(lhs - rhs, axis=(-2, -1))),
        estimator_gap=core.scalar(np.linalg.norm(s_out - est.estimator, axis=(-2, -1))),
    )


def monotonicity_check(family: StateFamily, k: QuantumChannel,
                       theta: float) -> MonotonicityReport:
    """J(ρ) − J(κ(ρ)) ≥ 0, with the slack equal to a Personick minimum risk."""
    rho, s_in, krho, s_out, est = _push(family, k, theta)
    j_in, j_out = _qfi(rho, s_in), _qfi(krho, s_out)
    return MonotonicityReport(
        j_in=j_in,
        j_out=j_out,
        slack=j_in - j_out,
        personick_risk=est.min_risk,
        support_rank=est.support_rank,
    )


# --- named family constructors (reproducible fixtures) ---------------------

def _diagonal(p0, direction, name: str):
    """p0 and a direction beside it, as float vectors of one length."""
    p0, direction = np.asarray(p0, dtype=float), np.asarray(direction, dtype=float)
    if p0.ndim != 1 or direction.shape != p0.shape:
        raise ValidationError("shape", f"p0 {p0.shape} and {name} {direction.shape} differ")
    return p0, direction


def diagonal_line_family(p0, slope) -> StateFamily:
    """Diagonal family p(θ) = p0 + θ·slope; slope must sum to zero."""
    p0, slope = _diagonal(p0, slope, "slope")
    if abs(slope.sum()) > 1e-12:
        raise ValidationError("trace", "slope must sum to zero")
    return StateFamily(
        state_at=lambda t: np.diag((p0 + t * slope).astype(complex)),
        derivative_at=lambda t: np.diag(slope.astype(complex)),
    )


def diagonal_exponential_family(p0, weights) -> StateFamily:
    """Diagonal exponential family p(θ) ∝ p0 · exp(θ·weights)."""
    p0, weights = _diagonal(p0, weights, "weights")

    def probs(t):
        p = p0 * np.exp(t * weights)
        return p / p.sum()

    def deriv(t):
        p = probs(t)
        return np.diag((p * (weights - p @ weights)).astype(complex))

    return StateFamily(
        state_at=lambda t: np.diag(probs(t).astype(complex)),
        derivative_at=deriv,
    )


def unitary_rotation_family(rho0, h) -> StateFamily:
    """ρ(θ) = e^{−iθH} ρ₀ e^{iθH} with analytic derivative −i[H, ρ(θ)].

    H commutes with U(θ) = e^{−iθH}, so −i[H, ρ(θ)] = U(θ) D₀ U(θ)† with
    D₀ = −i[H, ρ₀] computed once here.  Stacks of ρ₀ and H give a family
    stacked over θ.
    """
    rho0 = core.as_density(rho0, name="rho0")
    h = core.as_hermitian(h, name="h")
    spec = core.Spectrum.of(h)
    v, vh = spec.eigenvectors, core.dagger(spec.eigenvectors)
    d0 = -1j * (h @ rho0 - rho0 @ h)

    def rotate(m, t):
        phases = np.exp(-1j * np.asarray(t, dtype=float)[..., None] * spec.eigenvalues)
        u = (v * phases[..., None, :]) @ vh
        return u @ m @ core.dagger(u)

    return StateFamily(state_at=lambda t: rotate(rho0, t),
                       derivative_at=lambda t: rotate(d0, t))


def depolarizing_mixture_family(family: StateFamily, p: float) -> StateFamily:
    """(1−p)ρ(θ) + p·I/d; contracts the Fisher information."""
    if not 0.0 <= p < 1.0:
        raise ValidationError("mixing", f"p must be in [0, 1), got {p}")

    def state(t):
        r = family.density(t)
        return (1 - p) * r + p * np.eye(r.shape[-1]) / r.shape[-1]

    return StateFamily(state_at=state,
                       derivative_at=lambda t: (1 - p) * family.derivative(t))
