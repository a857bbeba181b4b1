"""Symmetric logarithmic derivatives and quantum Fisher information.

The SLD is a Jordan-product solve ∂ρ/∂θ = ρ∘S, the Fisher information is
J = tr ρS², and its monotonicity under parameter-independent channels is
exposed as an executable check whose slack equals the minimum retrodiction
risk of S itself.

Validation happens where a state enters: ρ(θ) and ∂ρ(θ) are checked once
per evaluation of a family, and ρ(θ) and κ(ρ(θ)) each with its one `eigh`.
`sld`, `solve_jordan` and the Personick kernel take those checked arrays and
the `Spectrum` of ρ(θ) or κ(ρ(θ)) from a caller that has them.  A stacked
family, with θ an array, runs many checks in one call.  The check is three
stages, the family side, the push through κ and the image side, so that a
sweep over many (d_in, d_out) runs each once per dimension it depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import operator_core as core
from .channels import QuantumChannel, apply_channel
from .estimators import _personick, _real
from .operator_core import ValidationError


class RankChangeError(ValidationError):
    """The family's rank changes at the queried point; the SLD is singular there."""


@dataclass
class StateFamily:
    """One-parameter family θ ↦ ρ(θ) and its derivative ∂ρ/∂θ, both in closed form."""

    state_at: Callable[[float], np.ndarray]
    derivative_at: Callable[[float], np.ndarray]

    def density(self, theta: float) -> np.ndarray:
        return core.as_density(self.state_at(theta), name=_rho_name(theta))

    def derivative(self, theta: float) -> np.ndarray:
        return _tangent(self.derivative_at(theta))


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
    """(ρ(θ), its Spectrum, ∂ρ(θ)), each checked once, as θ is."""
    theta = core.as_array(theta, float, "theta")
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
    square = (..., rho.shape[-1], rho.shape[-1])
    core.require_fit(rho=(rho, square), s=(s, square))
    return _qfi(rho, s)


def push_family(family: StateFamily, k: QuantumChannel) -> StateFamily:
    """The image family θ ↦ κ(ρ(θ)); the derivative pushes through κ linearly."""
    return StateFamily(
        state_at=lambda t: apply_channel(k, family.density(t)),
        derivative_at=lambda t: apply_channel(k, family.derivative(t)),
    )


@dataclass(frozen=True)
class MonotonicityReport:  # for a stack, each field holds one entry per check
    j_in: float
    j_out: float
    slack: float  # J_in − J_out, nonnegative up to rounding
    personick_risk: float  # minimum risk of estimating S_ρ through κ
    support_rank: int


def monotonicity_check(family: StateFamily, k: QuantumChannel,
                       theta: float) -> MonotonicityReport:
    """J(ρ) − J(κ(ρ)) ≥ 0, with the slack equal to a Personick minimum risk, as
    S_κ(ρ) is the Personick estimate of S_ρ.  The family is evaluated once, pushed
    through κ once, and solved in one `eigh` of ρ and one of κ(ρ).

    Of its three stages, `_family_side` reads the family alone, `_channel_side`
    the channel, and `_image_side` the pushed arrays alone, so a sweep runs
    each once per dimension it depends on.
    """
    rho, drho, s_in, j_in = _family_side(family, theta)
    return _image_side(_channel_side(k, rho, drho, s_in), j_in, theta)


def _family_side(family: StateFamily, theta):
    """(ρ(θ), ∂ρ(θ), S_in, tr ρS_in²), the family evaluated and solved once.
    tr ρS_in² is both J_in and the first term of the Personick risk."""
    rho, _, drho = at = _evaluate(family, theta)
    s_in = sld(family, theta, at=at)
    return rho, drho, s_in, core.trace(rho @ s_in @ s_in)


def _channel_side(k: QuantumChannel, rho, drho, s_in):
    """(κ(ρ), κ(∂ρ), κ(ρ∘S_in)), the only stage that reads the channel."""
    return apply_channel(k, rho), apply_channel(k, drho), apply_channel(k, core._jordan(rho, s_in))


def _image_side(pushed, j_in, theta) -> MonotonicityReport:
    """The report from `_channel_side`'s arrays and tr ρS_in²: κ(ρ) checked
    with its one `eigh`, then the SLD of the image family θ ↦ κ(ρ(θ)) and
    the Personick estimate of S_in, both solved on that `Spectrum`."""
    krho, kdrho, kjordan = pushed
    krho, kspec = core._density_with_spectrum(krho, f"kappa({_rho_name(theta)})")
    s_out = sld(None, theta, at=(krho, kspec, _tangent(kdrho)))
    est = _personick(krho, kspec, kjordan, j_in)
    j_in, j_out = _real(j_in, "J"), _qfi(krho, s_out)
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
    p0, direction = core.as_array(p0, float, "p0"), core.as_array(direction, float, name)
    core.require_fit(p0=(p0, (p0.size,)), **{name: (direction, (p0.size,))})
    return p0, direction


def _thetas(t) -> np.ndarray:
    """θ as floats with a trailing axis, to scale (d,) probabilities."""
    return core.as_array(t, float, "theta")[..., None]


def _diagonal_matrices(p) -> np.ndarray:
    """(…, d) entries as (…, d, d) complex diagonal matrices."""
    d = p.shape[-1]
    m = np.zeros((*p.shape, d), dtype=complex)
    m[..., range(d), range(d)] = p
    return m


def diagonal_line_family(p0, slope) -> StateFamily:
    """Diagonal family p(θ) = p0 + θ·slope; slope must sum to zero."""
    p0, slope = _diagonal(p0, slope, "slope")
    if abs(slope.sum()) > 1e-12:
        raise ValidationError("trace", "slope must sum to zero")
    return StateFamily(
        state_at=lambda t: _diagonal_matrices(p0 + _thetas(t) * slope),
        derivative_at=lambda t: _diagonal_matrices(
            np.broadcast_to(slope, _thetas(t).shape[:-1] + slope.shape)),
    )


def diagonal_exponential_family(p0, weights) -> StateFamily:
    """Diagonal exponential family p(θ) ∝ p0 · exp(θ·weights)."""
    p0, weights = _diagonal(p0, weights, "weights")

    def probs(t):
        p = p0 * np.exp(_thetas(t) * weights)
        return p / p.sum(axis=-1, keepdims=True)

    def deriv(t):
        p = probs(t)
        return _diagonal_matrices(p * (weights - (p @ weights)[..., None]))

    return StateFamily(
        state_at=lambda t: _diagonal_matrices(probs(t)),
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
    square = (..., rho0.shape[-1], rho0.shape[-1])
    core.require_fit(rho0=(rho0, square), h=(h, square))
    spec = core.Spectrum.of(h)
    v, vh = spec.eigenvectors, core.dagger(spec.eigenvectors)
    d0 = -1j * (h @ rho0 - rho0 @ h)

    def rotate(m, t):
        t = core.as_array(t, float, "theta")
        core.require_fit(family=(d0, square), theta=(t, (...,)))
        phases = np.exp(-1j * t[..., None] * spec.eigenvalues)
        u = (v * phases[..., None, :]) @ vh
        return u @ m @ core.dagger(u)

    return StateFamily(state_at=lambda t: rotate(rho0, t),
                       derivative_at=lambda t: rotate(d0, t))


def depolarizing_mixture_family(family: StateFamily, p: float) -> StateFamily:
    """(1−p)ρ(θ) + p·I/d; contracts the Fisher information."""
    p = core.as_array(p, float, "p")
    core.require_fit(p=(p, ()))
    if not 0.0 <= p < 1.0:
        raise ValidationError("mixing", f"p must be in [0, 1), got {p}")

    def state(t):
        r = family.density(t)
        return (1 - p) * r + p * np.eye(r.shape[-1]) / r.shape[-1]

    return StateFamily(state_at=state,
                       derivative_at=lambda t: (1 - p) * family.derivative(t))
