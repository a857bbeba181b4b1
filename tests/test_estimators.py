import numpy as np
import pytest

from conftest import SX, SY, SZ
from qretro import operator_core as core
from qretro.channels import (
    Povm,
    channel_from_classical,
    channel_from_dilation,
    channel_from_povm,
    depolarizing_channel,
    identity_channel,
)
from qretro.channels import ClassicalChannel
from qretro.estimators import (
    ZeroProbabilityOutcome,
    classical_conditional_expectation,
    complex_estimator,
    complex_weak_value,
    heisenberg_risk,
    personick_estimator,
    schrodinger_risk,
    weak_value,
)
from qretro.operator_core import ValidationError
from qretro.sampling import (
    random_channel,
    random_density,
    random_hermitian,
    random_unitary,
)

PROJ_X = Povm([(np.eye(2) + SX) / 2, (np.eye(2) - SX) / 2], labels=["+", "-"])


def test_schrodinger_risk_perfect_estimate():
    rho = np.diag([1.0, 0.0])  # eigenstate of sigma_z
    assert schrodinger_risk(rho, SZ, identity_channel(2), SZ) == pytest.approx(0.0,
                                                                               abs=1e-12)


def test_schrodinger_risk_zero_estimator(gen):
    rho = random_density(gen, 3)
    x = random_hermitian(gen, 3)
    chan = random_channel(gen, 3, 2)
    expected = np.trace(rho @ x @ x).real
    assert schrodinger_risk(rho, x, chan, np.zeros((2, 2))) == pytest.approx(expected,
                                                                             abs=1e-12)


def test_heisenberg_trivials(gen):
    rho = random_density(gen, 2)
    env = random_density(gen, 2)
    rho0 = core.tensor(rho, env)
    x = random_hermitian(gen, 2)
    assert heisenberg_risk(rho0, x, x, np.eye(4), [2, 2], 0, 0) == pytest.approx(
        0.0, abs=1e-12)
    expected = np.trace(rho @ x @ x).real
    assert heisenberg_risk(rho0, x, np.zeros((2, 2)), np.eye(4), [2, 2], 0, 1) == \
        pytest.approx(expected, abs=1e-12)


def test_pictures_agree_on_random_dilations(gen):
    for _ in range(20):
        u = random_unitary(gen, 4)
        rho = random_density(gen, 2)
        env = random_density(gen, 2)
        x = random_hermitian(gen, 2)
        xcheck = random_hermitian(gen, 2)
        chan = channel_from_dilation(u, env, [2, 2], traced=[0], kept=[1])
        hs = heisenberg_risk(core.tensor(rho, env), x, xcheck, u, [2, 2], 0, 1)
        ss = schrodinger_risk(rho, x, chan, xcheck)
        assert hs == pytest.approx(ss, abs=1e-10 * max(1.0, abs(ss)))


def test_personick_identity_channel(gen):
    rho = random_density(gen, 3)  # full rank a.s.
    x = random_hermitian(gen, 3)
    result = personick_estimator(rho, x, identity_channel(3))
    np.testing.assert_allclose(result.estimator, x, atol=1e-9)
    assert result.min_risk == pytest.approx(0.0, abs=1e-9)
    assert result.support_rank == 3


def test_personick_depolarizing_channel(gen):
    rho = random_density(gen, 3)
    x = random_hermitian(gen, 3)
    result = personick_estimator(rho, x, depolarizing_channel(3))
    prior_mean = np.trace(rho @ x).real
    np.testing.assert_allclose(result.estimator, prior_mean * np.eye(3), atol=1e-10)
    variance = np.trace(rho @ x @ x).real - prior_mean**2
    assert result.min_risk == pytest.approx(variance, abs=1e-10)


def test_personick_incompatible_measurement():
    # measuring sigma_x on the maximally mixed state says nothing about sigma_z
    result = personick_estimator(np.eye(2) / 2, SZ, channel_from_povm(PROJ_X))
    np.testing.assert_allclose(result.estimator, np.zeros((2, 2)), atol=1e-12)
    assert result.min_risk == pytest.approx(1.0, abs=1e-12)
    for label in ("+", "-"):
        assert weak_value(np.eye(2) / 2, SZ, PROJ_X, label) == pytest.approx(
            0.0, abs=1e-12)


def test_weak_value_trivial_povm(gen):
    rho = random_density(gen, 2)
    x = random_hermitian(gen, 2)
    povm = Povm([np.eye(2)], labels=["all"])
    assert weak_value(rho, x, povm, "all") == pytest.approx(
        np.trace(rho @ x).real, abs=1e-12)


def test_weak_value_eigenstate():
    rho = np.diag([0.0, 1.0])  # eigenstate of sigma_z, eigenvalue -1
    povm = Povm([np.diag([0.3, 0.7]), np.diag([0.7, 0.3])], labels=[0, 1])
    for y in (0, 1):
        assert weak_value(rho, SZ, povm, y) == pytest.approx(-1.0, abs=1e-12)


def test_weak_value_plus_outcome():
    rho = np.diag([1.0, 0.0])
    assert weak_value(rho, SX, PROJ_X, "+") == pytest.approx(1.0, abs=1e-12)


def test_weak_value_zero_probability_outcome():
    rho = np.diag([1.0, 0.0])
    povm = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=["a", "b"])
    with pytest.raises(ZeroProbabilityOutcome):
        weak_value(rho, SZ, povm, "b")


def test_weak_values_reject_dimension_mismatch():
    rho = np.eye(3) / 3
    with pytest.raises(ValidationError, match="shape"):
        weak_value(rho, np.eye(3), PROJ_X, "+")
    with pytest.raises(ValidationError, match="shape"):
        complex_weak_value(rho, np.eye(3), PROJ_X, "+")
    with pytest.raises(ValidationError, match="shape"):
        complex_weak_value(np.eye(2) / 2, np.eye(3), PROJ_X, "+")


def test_classical_rejects_non_finite():
    with pytest.raises(ValidationError, match="finite"):
        ClassicalChannel([[np.nan, 0.5], [0.5, 0.5]])
    c = ClassicalChannel(np.eye(2))
    with pytest.raises(ValidationError, match="finite"):
        classical_conditional_expectation([np.nan, 0.5], c, [0.0, 1.0])
    with pytest.raises(ValidationError, match="finite"):
        classical_conditional_expectation([0.5, 0.5], c, [0.0, np.inf])


def test_classical_conditional_expectation_noiseless():
    est, defined = classical_conditional_expectation(
        [0.3, 0.7], ClassicalChannel(np.eye(2)), [2.0, 5.0])
    np.testing.assert_allclose(est, [2.0, 5.0])
    assert defined.all()


def test_classical_conditional_expectation_uninformative():
    c = ClassicalChannel([[0.5, 0.5], [0.5, 0.5]])
    est, _ = classical_conditional_expectation([0.2, 0.8], c, [1.0, 3.0])
    prior = 0.2 * 1.0 + 0.8 * 3.0
    np.testing.assert_allclose(est, [prior, prior], atol=1e-14)


def test_classical_bsc_example():
    bsc = ClassicalChannel([[0.8, 0.2], [0.2, 0.8]])
    est, _ = classical_conditional_expectation([0.5, 0.5], bsc, [0.0, 1.0])
    assert est[0] == pytest.approx(0.2, abs=1e-12)
    assert est[1] == pytest.approx(0.8, abs=1e-12)


def test_classical_zero_probability_flagged():
    c = ClassicalChannel([[1.0, 1.0], [0.0, 0.0]])
    est, defined = classical_conditional_expectation([0.4, 0.6], c, [1.0, 2.0])
    assert defined[0] and not defined[1]
    assert np.isnan(est[1])


def test_classical_reduction_matches_personick(gen):
    for _ in range(10):
        n = int(gen.integers(2, 7))
        px = gen.random(n) + 0.05
        px /= px.sum()
        xvals = gen.standard_normal(n)
        t = gen.random((int(gen.integers(2, 7)), n)) + 0.05
        c = ClassicalChannel(t / t.sum(axis=0, keepdims=True))
        est, defined = classical_conditional_expectation(px, c, xvals)
        result = personick_estimator(np.diag(px.astype(complex)),
                                     np.diag(xvals.astype(complex)),
                                     channel_from_classical(c))
        m = result.estimator
        assert np.abs(m - np.diag(np.diag(m))).max() <= 1e-10
        np.testing.assert_allclose(np.diag(m).real[defined], est[defined], atol=1e-10)


def test_complex_estimator_identity_channel(gen):
    rho = random_density(gen, 3)
    x = random_hermitian(gen, 3) + 1j * random_hermitian(gen, 3)
    result = complex_estimator(rho, x, identity_channel(3))
    np.testing.assert_allclose(result.estimator, x, atol=1e-9)
    assert result.min_risk == pytest.approx(0.0, abs=1e-9)


def test_complex_estimator_depolarizing(gen):
    rho = random_density(gen, 2)
    x = SX + 1j * SY
    result = complex_estimator(rho, x, depolarizing_channel(2))
    np.testing.assert_allclose(result.estimator,
                               np.trace(x @ rho) * np.eye(2), atol=1e-10)


def test_complex_estimator_support_rank_matches_personick(gen):
    rho = random_density(gen, 3)
    x = random_hermitian(gen, 3)
    for chan in (random_channel(gen, 3, 2), depolarizing_channel(3),
                 channel_from_povm(Povm([np.diag([1.0, 0, 0]), np.diag([0, 1.0, 1.0])]))):
        cplx = complex_estimator(rho, x, chan)
        herm = personick_estimator(rho, x, chan)
        assert cplx.support_rank == herm.support_rank


def test_povm_label_count_must_match_effects():
    with pytest.raises(ValidationError, match="labels"):
        Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=["only"])


def test_complex_estimator_matches_complex_weak_values(gen):
    rho = random_density(gen, 2)
    x = SX + 1j * SY
    povm = Povm([(np.eye(2) + SZ) / 2, (np.eye(2) - SZ) / 2], labels=[0, 1])
    chan = channel_from_povm(povm)
    result = complex_estimator(rho, x, chan)
    for y in (0, 1):
        expected = complex_weak_value(rho, x, povm, y)
        assert result.estimator[y, y] == pytest.approx(expected, abs=1e-10)


def test_complex_weak_value_trivial(gen):
    rho = random_density(gen, 2)
    x = SX + 1j * SY
    povm = Povm([np.eye(2)], labels=["all"])
    assert complex_weak_value(rho, x, povm, "all") == pytest.approx(
        complex(np.trace(x @ rho)), abs=1e-12)


def test_complex_weak_value_real_part_matches_hermitian(gen):
    for _ in range(20):
        rho = random_density(gen, 2)
        x = random_hermitian(gen, 2)
        povm = Povm([(np.eye(2) + SX) / 2, (np.eye(2) - SX) / 2], labels=[0, 1])
        for y in (0, 1):
            cwv = complex_weak_value(rho, x, povm, y)
            assert cwv.real == pytest.approx(weak_value(rho, x, povm, y), abs=1e-12)


def test_complex_weak_value_purely_imaginary():
    rho = np.diag([1.0, 0.0])
    assert complex_weak_value(rho, SY, PROJ_X, "+") == pytest.approx(1j, abs=1e-12)


def test_personick_optimality_and_stationarity(gen):
    for _ in range(25):
        d_in = int(gen.integers(2, 7))
        d_out = int(gen.integers(2, 7))
        rho = random_density(gen, d_in)
        x = random_hermitian(gen, d_in)
        chan = random_channel(gen, d_in, d_out)
        result = personick_estimator(rho, x, chan)
        base = schrodinger_risk(rho, x, chan, result.estimator)
        assert base == pytest.approx(result.min_risk, abs=1e-9)
        for _ in range(5):
            o = random_hermitian(gen, d_out)
            for eps in (-0.1, -1e-3, 1e-3, 0.1):
                assert schrodinger_risk(rho, x, chan, result.estimator + eps * o) \
                    >= base - 1e-9
            h = 1e-4  # central-difference stationarity at the optimum
            deriv = (schrodinger_risk(rho, x, chan, result.estimator + h * o)
                     - schrodinger_risk(rho, x, chan, result.estimator - h * o)) / (2 * h)
            assert abs(deriv) <= 1e-8


def test_complex_risk_never_exceeds_hermitian(gen):
    for _ in range(20):
        d_in = int(gen.integers(2, 5))
        rho = random_density(gen, d_in)
        x = random_hermitian(gen, d_in)
        chan = random_channel(gen, d_in, int(gen.integers(2, 5)))
        herm = personick_estimator(rho, x, chan).min_risk
        cplx = complex_estimator(rho, x, chan).min_risk
        assert cplx <= herm + 1e-9


def test_min_risk_monotone_under_postcomposition(gen):
    for _ in range(50):
        d = int(gen.integers(2, 4))
        rho = random_density(gen, d)
        x = random_hermitian(gen, d)
        first = random_channel(gen, d, d)
        second = random_channel(gen, d, int(gen.integers(2, 4)))
        r1 = personick_estimator(rho, x, first).min_risk
        r2 = personick_estimator(rho, x, first.then(second)).min_risk
        assert r2 >= r1 - 1e-9


def test_personick_at_dimension_256(gen):
    # the desk-scale claim: a full-rank d=256 solve through 4 Kraus operators
    d = 256
    rho = random_density(gen, d)
    x = random_hermitian(gen, d)
    chan = random_channel(gen, d, d, n_kraus=4)
    result = personick_estimator(rho, x, chan)
    krho = sum(k @ rho @ k.conj().T for k in chan.kraus)
    rhs = sum(k @ core.jordan_product(rho, x) @ k.conj().T for k in chan.kraus)
    xopt = result.estimator
    assert result.support_rank == d
    residual = np.linalg.norm(core.jordan_product(krho, xopt) - rhs)
    assert residual <= 1e-9 * np.linalg.norm(rhs)
    second_moment = np.trace(rho @ x @ x).real
    expected_risk = second_moment - np.trace(krho @ xopt @ xopt).real
    assert result.min_risk == pytest.approx(expected_risk, abs=1e-9 * second_moment)
    variance = second_moment - np.trace(rho @ x).real ** 2
    assert 0.0 <= result.min_risk <= variance


def test_personick_with_handed_image_matches_its_own(gen):
    # a caller that holds kappa(rho) and its Spectrum gets the same bytes
    rho = core.as_density(random_density(gen, 3, rank=2))
    x = core.as_hermitian(random_hermitian(gen, 3))
    chan = random_channel(gen, 3, 4)
    plain = personick_estimator(rho, x, chan)
    krho = core.as_hermitian(chan(rho))
    handed = personick_estimator(rho, x, chan, image=(krho, core.eig_hermitian(krho)))
    assert np.array_equal(plain.estimator, handed.estimator)
    assert (plain.min_risk, plain.residual, plain.support_rank) == \
        (handed.min_risk, handed.residual, handed.support_rank)
