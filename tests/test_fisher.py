import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SZ
from qretro import fisher, scenario
from qretro.channels import apply_channel, depolarizing_channel, identity_channel
from qretro.estimators import complex_estimator, personick_estimator
from qretro.fisher import (
    RankChangeError,
    StateFamily,
    depolarizing_mixture_family,
    diagonal_exponential_family,
    diagonal_line_family,
    monotonicity_check,
    push_family,
    qfi,
    sld,
    unitary_rotation_family,
)
from qretro.operator_core import ValidationError, hermitian_part, jordan_product
from qretro.sampling import random_channel, random_density, random_hermitian, rng

QUBIT_LINE = diagonal_line_family([0.5, 0.5], [0.5, -0.5])


def _qfi_at(family, theta):
    return qfi(family.density(theta), sld(family, theta))


def test_sld_constant_family(gen):
    rho = random_density(gen, 3)
    family = StateFamily(state_at=lambda t: rho, derivative_at=lambda t: np.zeros((3, 3)))
    np.testing.assert_allclose(sld(family, 0.3), np.zeros((3, 3)), atol=1e-10)


def test_sld_diagonal_family_hand_formula():
    # diagonal case: S_ii = (dp_i/dtheta)/p_i
    s = sld(QUBIT_LINE, 0.0)
    np.testing.assert_allclose(s, np.diag([1.0, -1.0]), atol=1e-10)
    s = sld(QUBIT_LINE, 0.5)
    np.testing.assert_allclose(s, np.diag([0.5 / 0.75, -0.5 / 0.25]), atol=1e-10)


def test_sld_solves_defining_equation(gen):
    family = unitary_rotation_family(random_density(gen, 3),
                                     random_hermitian(gen, 3))
    theta = 0.2
    s = sld(family, theta)
    lhs = jordan_product(family.density(theta), s)
    np.testing.assert_allclose(lhs, family.derivative(theta), atol=1e-8)


def test_sld_rejects_rank_change():
    family = diagonal_line_family([0.0, 1.0], [1.0, -1.0])
    with pytest.raises(RankChangeError):
        sld(family, 0.0)


def test_qfi_zero_sld(gen):
    assert qfi(random_density(gen, 2), np.zeros((2, 2))) == 0.0


@pytest.mark.parametrize("theta,expected", [(0.0, 1.0), (0.5, 1 / (1 - 0.25))])
def test_qfi_diagonal_family_classical_fisher(theta, expected):
    # classical Fisher information sum (p')^2/p, by hand: 1/(1 - theta^2)
    assert _qfi_at(QUBIT_LINE, theta) == pytest.approx(expected, abs=1e-8)


def test_qfi_matches_classical_for_diagonal_exponential(gen):
    p0 = gen.random(4) + 0.2
    p0 /= p0.sum()
    w = gen.standard_normal(4)
    family = diagonal_exponential_family(p0, w)
    theta = 0.3
    p = p0 * np.exp(theta * w)
    p /= p.sum()
    dp = p * (w - p @ w)
    classical = float(np.sum(dp**2 / p))
    assert _qfi_at(family, theta) == pytest.approx(classical, abs=1e-8)


def _pushforward(family, chan, theta):
    """κ(ρ)∘S_κ(ρ), κ(ρ∘S_ρ), S_κ(ρ) and the Personick estimate of S_ρ at θ."""
    rho, s_in = family.density(theta), sld(family, theta)
    pushed = push_family(family, chan)
    s_out = sld(pushed, theta)
    lhs = jordan_product(pushed.density(theta), s_out)
    rhs = hermitian_part(apply_channel(chan, jordan_product(rho, s_in)))
    return lhs, rhs, s_out, personick_estimator(rho, s_in, chan).estimator


def test_pushforward_identity_channel(gen):
    family = unitary_rotation_family(random_density(gen, 2),
                                     random_hermitian(gen, 2))
    lhs, rhs, s_out, est = _pushforward(family, identity_channel(2), 0.1)
    assert np.linalg.norm(lhs - rhs) <= 1e-10
    assert np.linalg.norm(s_out - est) <= 1e-8


def test_pushforward_constant_family(gen):
    rho = random_density(gen, 2)
    family = StateFamily(state_at=lambda t: rho, derivative_at=lambda t: np.zeros((2, 2)))
    lhs, rhs, _, _ = _pushforward(family, random_channel(gen, 2, 3), 0.0)
    assert np.abs(lhs).max() <= 1e-10
    assert np.abs(rhs).max() <= 1e-10


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d_in=st.sampled_from([2, 3, 4]), d_out=st.sampled_from([2, 3, 4]),
       seed=st.integers(0, 2**32 - 1), theta=st.floats(-0.5, 0.5))
def test_pushforward_is_the_personick_estimate_property(d_in, d_out, seed, theta):
    # the SLD of the image family is the Personick estimate of the SLD, so it
    # solves the normal equation κ(ρ)∘S_κ(ρ) = κ(ρ∘S_ρ)
    gen = rng(seed)
    family = unitary_rotation_family(random_density(gen, d_in),
                                     random_hermitian(gen, d_in))
    lhs, rhs, s_out, est = _pushforward(family, random_channel(gen, d_in, d_out), theta)
    assert np.linalg.norm(lhs - rhs) <= 1e-8
    assert np.linalg.norm(s_out - est) <= 1e-8


def test_monotonicity_identity_channel(gen):
    family = unitary_rotation_family(random_density(gen, 3),
                                     random_hermitian(gen, 3))
    report = monotonicity_check(family, identity_channel(3), 0.1)
    assert abs(report.slack) <= 1e-10


def test_monotonicity_depolarizing_channel(gen):
    family = unitary_rotation_family(random_density(gen, 2),
                                     random_hermitian(gen, 2))
    report = monotonicity_check(family, depolarizing_channel(2), 0.1)
    assert report.j_out <= 1e-10
    assert report.slack == pytest.approx(report.j_in, abs=1e-10)


def test_monotonicity_random_sweep(gen):
    for _ in range(50):
        d = int(gen.integers(2, 5))
        family = unitary_rotation_family(random_density(gen, d),
                                         random_hermitian(gen, d))
        chan = random_channel(gen, d, int(gen.integers(2, 5)))
        report = monotonicity_check(family, chan, float(gen.uniform(-0.5, 0.5)))
        assert report.slack >= -1e-8
        assert report.slack == pytest.approx(report.personick_risk, abs=1e-8)


def test_qfi_invariant_under_unitary_channels(gen):
    from qretro.channels import QuantumChannel
    from qretro.sampling import random_unitary

    family = unitary_rotation_family(random_density(gen, 3),
                                     random_hermitian(gen, 3))
    u_chan = QuantumChannel([random_unitary(gen, 3)])
    report = monotonicity_check(family, u_chan, 0.2)
    assert abs(report.slack) <= 1e-8


def test_depolarizing_mixture_contracts_information(gen):
    base = unitary_rotation_family(random_density(gen, 2), SZ)
    mixed = depolarizing_mixture_family(base, 0.5)
    assert _qfi_at(mixed, 0.1) <= _qfi_at(base, 0.1) + 1e-10


@pytest.mark.parametrize("p, message", [
    ("a", "shape: p must be a rectangular array of numbers"),
    ([0.1], r"shape: got p \(1,\); need p \(\)"),
    (None, "shape: p must be a rectangular array of numbers"),
    (np.nan, "finite: p contains NaN or Inf entries"),
    (1.0, r"mixing: p must be in \[0, 1\), got 1.0"),
])
def test_depolarizing_mixture_rejects_a_bad_weight(p, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        depolarizing_mixture_family(QUBIT_LINE, p)


def test_derivative_trace_check():
    # a state_at whose trace drifts with theta must be rejected
    family = StateFamily(state_at=lambda t: np.diag([0.5 + t, 0.5]).astype(complex),
                         derivative_at=lambda t: np.diag([1.0, 0.0]))
    with pytest.raises(Exception):
        family.derivative(0.0)


@pytest.fixture
def eigensolves(monkeypatch):
    """Counts calls of np.linalg.eigh and np.linalg.eigvalsh."""
    count = {"n": 0}
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            count["n"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return count


def test_eigensolve_budget(gen, eigensolves):
    # one eigh of rho and one of kappa(rho) per check; the SLD alone needs one.
    # A sweep makes one of rho0, H and rho(theta) per d_in (the rotation family
    # reads the first two) and one of kappa(rho) per d_out
    family = unitary_rotation_family(random_density(gen, 3), random_hermitian(gen, 3))
    chan = random_channel(gen, 3, 4)
    rho, x = random_density(gen, 3), random_hermitian(gen, 3)
    sweep = list(scenario._sweep_draws(rng(0), [2, 3, 4], 60))
    assert len({(d_in, d_out) for _, d_in, d_out, _ in sweep}) == 9
    for call, budget in [
        (lambda: monotonicity_check(family, chan, 0.2), 2),
        (lambda: personick_estimator(rho, x, chan), 2),
        (lambda: complex_estimator(rho, x, chan), 2),
        (lambda: sld(family, 0.2), 1),
        (lambda: scenario.rotation_checks(sweep), 3 * 3 + 3),
    ]:
        eigensolves["n"] = 0
        call()
        assert eigensolves["n"] == budget


def test_check_goes_through_the_public_solvers(gen, monkeypatch):
    # the check solves S_in, S_out and the Personick estimate through sld,
    # solve_jordan and the kernel of personick_estimator, not through a
    # second path
    from qretro import operator_core

    calls = {}
    for owner, name in [(fisher, "sld"), (operator_core, "solve_jordan"),
                        (fisher, "_personick")]:
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    family = unitary_rotation_family(random_density(gen, 3), random_hermitian(gen, 3))
    monotonicity_check(family, random_channel(gen, 3, 2), 0.4)
    assert calls == {"sld": 2, "solve_jordan": 3, "_personick": 1}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d_in=st.sampled_from([2, 3, 4]), d_out=st.sampled_from([2, 3, 4]),
       seed=st.integers(0, 2**32 - 1), theta=st.floats(-0.5, 0.5))
def test_monotonicity_matches_public_composition(d_in, d_out, seed, theta):
    # J(rho) - J(kappa(rho)) is the Personick risk of the SLD (Braunstein-Caves),
    # and the check agrees with sld, qfi and personick_estimator composed
    gen = rng(seed)
    family = unitary_rotation_family(random_density(gen, d_in),
                                     random_hermitian(gen, d_in))
    chan = random_channel(gen, d_in, d_out)
    report = monotonicity_check(family, chan, theta)
    assert report.slack >= -1e-8
    assert abs(report.slack - report.personick_risk) <= 1e-8

    s_in = sld(family, theta)
    pushed = push_family(family, chan)
    j_in = qfi(family.density(theta), s_in)
    j_out = qfi(pushed.density(theta), sld(pushed, theta))
    est = personick_estimator(family.density(theta), s_in, chan)
    assert report.j_in == pytest.approx(j_in, rel=0, abs=1e-12)
    assert report.j_out == pytest.approx(j_out, rel=0, abs=1e-12)
    assert report.slack == pytest.approx(j_in - j_out, rel=0, abs=1e-12)
    assert report.personick_risk == pytest.approx(est.min_risk, rel=0, abs=1e-12)
    assert report.support_rank == est.support_rank


def test_unitary_rotation_derivative_is_the_commutator(gen):
    rho0 = random_density(gen, 4)
    h = random_hermitian(gen, 4)
    family = unitary_rotation_family(rho0, h)
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code)

    for theta in (-0.4, 0.0, 0.3, 1.7):
        sys.setprofile(profile)
        try:
            drho = family.derivative_at(theta)
        finally:
            sys.setprofile(None)
        assert entered and family.state_at.__code__ not in entered
        rho = family.state_at(theta)
        np.testing.assert_allclose(drho, -1j * (h @ rho - rho @ h), rtol=0, atol=1e-12)
