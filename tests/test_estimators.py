import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import SX, SY, SZ
from qretro import estimators, fisher
from qretro import operator_core as core
from qretro import selftest
from qretro.channels import (
    Povm,
    QuantumChannel,
    apply_channel,
    channel_from_cq_ensemble,
    channel_from_dilation,
    channel_from_povm,
    depolarizing_channel,
    identity_channel,
    validate_cptp,
)
from qretro.channels import ClassicalChannel
from qretro.estimators import (
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
    rng,
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
    assert heisenberg_risk(rho0, x, x, np.eye(4), [2, 2], [0]) == pytest.approx(
        0.0, abs=1e-12)
    expected = np.trace(rho @ x @ x).real
    assert heisenberg_risk(rho0, x, np.zeros((2, 2)), np.eye(4), [2, 2], [1]) == \
        pytest.approx(expected, abs=1e-12)


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
    values, defined = weak_value(np.eye(2) / 2, SZ, PROJ_X)
    assert defined.tolist() == [True, True]
    np.testing.assert_allclose(values, [0.0, 0.0], atol=1e-12)


def test_weak_value_trivial_povm(gen):
    rho = random_density(gen, 2)
    x = random_hermitian(gen, 2)
    povm = Povm([np.eye(2)], labels=["all"])
    [value], _ = weak_value(rho, x, povm)
    assert value == pytest.approx(np.trace(rho @ x).real, abs=1e-12)


def test_weak_value_eigenstate():
    rho = np.diag([0.0, 1.0])  # eigenstate of sigma_z, eigenvalue -1
    povm = Povm([np.diag([0.3, 0.7]), np.diag([0.7, 0.3])], labels=[0, 1])
    np.testing.assert_allclose(weak_value(rho, SZ, povm)[0], [-1.0, -1.0], atol=1e-12)


def test_weak_value_plus_outcome():
    rho = np.diag([1.0, 0.0])
    values, _ = weak_value(rho, SX, PROJ_X)  # in label order: "+", then "-"
    assert values[0] == pytest.approx(1.0, abs=1e-12)


def test_weak_value_zero_probability_outcome():
    # the outcome "b" never happens: NaN and flagged, as a classical outcome is
    rho = np.diag([1.0, 0.0])
    povm = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=["a", "b"])
    for conditional in (weak_value, complex_weak_value):
        values, defined = conditional(rho, SZ, povm)
        assert defined.tolist() == [True, False]
        assert values[0] == 1.0 and np.isnan(values[1])


@pytest.mark.parametrize("p, defined", [(1e-6, True), (1e-13, False)])
def test_conditionals_share_the_probability_floor(p, defined):
    # WEAKVALUE_FLOOR (1e-12) lies between the two: the second outcome is
    # defined at probability 1e-6 and not at 1e-13, for all three conditionals
    povm = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    rho = np.diag([1 - p, p])
    classical = ClassicalChannel(np.eye(2))
    for values, flags in (weak_value(rho, SZ, povm), complex_weak_value(rho, SZ, povm),
                          classical_conditional_expectation([1 - p, p], classical, [1, -1])):
        assert flags.tolist() == [True, defined]
        assert values[0] == 1.0
        assert values[1] == -1.0 if defined else np.isnan(values[1])


def test_classical_rejects_non_finite():
    with pytest.raises(ValidationError, match="finite"):
        ClassicalChannel([[np.nan, 0.5], [0.5, 0.5]])
    c = ClassicalChannel(np.eye(2))
    with pytest.raises(ValidationError, match="finite"):
        classical_conditional_expectation([np.nan, 0.5], c, [0.0, 1.0])
    with pytest.raises(ValidationError, match="finite"):
        classical_conditional_expectation([0.5, 0.5], c, [0.0, np.inf])
    # each array is named; NaN is `finite` before any shape check
    with pytest.raises(ValidationError, match="^finite: px contains NaN or Inf entries$"):
        classical_conditional_expectation([np.nan, 0.5, 0.5], c, [0.0, 1.0])
    with pytest.raises(ValidationError, match="^finite: xvals contains NaN or Inf entries$"):
        classical_conditional_expectation([0.5, 0.5], c, [-np.inf, 1.0])
    # the diagonal (classical) families check p0 and its direction where they enter
    with pytest.raises(ValidationError, match="^finite: p0 contains"):
        fisher.diagonal_line_family([np.nan, 1.0], [0.5, -0.5])
    with pytest.raises(ValidationError, match="^finite: slope contains"):
        fisher.diagonal_line_family([0.5, 0.5], [np.inf, -np.inf])
    with pytest.raises(ValidationError, match="^finite: weights contains"):
        fisher.diagonal_exponential_family([0.5, 0.5], [np.inf, 0.0])


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


@pytest.mark.parametrize("labels, got", [(5, "int"), (2.5, "float"), ("ab", "str"), ({"a": 0, "b": 1}, "dict")])
def test_povm_labels_must_be_a_list(labels, got):
    with pytest.raises(ValidationError, match=f"^labels: need a list of 2 labels, got {got}$"):
        Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=labels)


@pytest.mark.parametrize("labels", [[0, 0], [[1, 2], [1, 2]]])
def test_povm_rejects_repeated_labels(labels):
    # list labels do not hash; a repeated label would answer for both effects
    with pytest.raises(ValidationError, match="^labels:"):
        Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=labels)


# operands of mismatched dimension, to every function that checks that operators
# fit together, with the operands its message names: ρ and x against the channel
# or POVM first
I2, I3, ID2 = np.eye(2), np.eye(3), identity_channel(2)
MISMATCHED_OPERANDS = {
    "schrodinger_risk": (lambda: schrodinger_risk(I2 / 2, I3, ID2, I2),
                         ["rho", "x", "k", "xcheck"]),
    "personick": (lambda: personick_estimator(I2 / 2, I3, ID2), ["rho", "x", "k"]),
    "complex": (lambda: complex_estimator(I2 / 2, I3, ID2), ["rho", "x", "k"]),
    "weak_value": (lambda: weak_value(I3 / 3, I3, PROJ_X), ["rho", "x"]),
    "complex_weak_value-rho": (lambda: complex_weak_value(I3 / 3, I3, PROJ_X), ["rho", "x"]),
    "complex_weak_value-x": (lambda: complex_weak_value(I2 / 2, I3, PROJ_X), ["rho", "x"]),
    "schrodinger_risk-xcheck": (lambda: schrodinger_risk(I2 / 2, I2, ID2, I3),
                                ["rho", "x", "k", "xcheck"]),
    "heisenberg_risk-rho0": (lambda: heisenberg_risk(I3 / 3, I2, I2, np.eye(4), [2, 2], [1]),
                             ["rho0", "x", "xcheck"]),
    "heisenberg_risk-x": (lambda: heisenberg_risk(np.eye(4) / 4, I3, I2, np.eye(4), [2, 2], [1]),
                          ["rho0", "x", "xcheck"]),
    "heisenberg_risk-u": (lambda: heisenberg_risk(np.eye(4) / 4, I2, I2, I3, [2, 2], [1]),
                          ["u"]),
    "classical_conditional_expectation": (
        lambda: classical_conditional_expectation([0.5, 0.5, 0], ClassicalChannel(I2), [1, 2, 3]),
        ["px", "xvals"]),
    # the kernel
    "jordan_product": (lambda: core.jordan_product(I2, I3), ["a", "b"]),
    "jordan_trace_gap": (lambda: core.jordan_trace_gap(I2, I3, I3), ["x", "y", "z"]),
    "embed": (lambda: core.embed(I3, [2, 2], 0), ["op"]),
    "as_unitary": (lambda: core.as_unitary(I3, 4), ["u"]),
    "partial_trace": (lambda: core.partial_trace(I3, [2, 2], [0]), ["matrix"]),
    "solve_jordan": (lambda: core.solve_jordan(I2, I3), ["a", "b"]),
    # Fisher information
    "qfi": (lambda: fisher.qfi(I2 / 2, I3), ["rho", "s"]),
    "unitary_rotation_family": (
        lambda: fisher.unitary_rotation_family(I2 / 2, np.diag([1.0, 0.0, -1.0])), ["rho0", "h"]),
    "diagonal_line_family": (lambda: fisher.diagonal_line_family([0.5, 0.5], [1, -1, 0]),
                             ["p0", "slope"]),
    # channels
    "then": (lambda: ID2.then(identity_channel(3)), ["self", "other"]),
    "apply_channel": (lambda: apply_channel(ID2, I3), ["k", "rho"]),
    "channel_from_dilation-u": (lambda: channel_from_dilation(I3, I2 / 2, [2, 2], [0]), ["u"]),
    "channel_from_dilation-env": (lambda: channel_from_dilation(np.eye(4), I3 / 3, [2, 2], [0]),
                                  ["env"]),
    "Povm": (lambda: Povm([I2[None] / 2, I2[None] / 2]), ["effect"]),
    "channel_from_cq_ensemble": (lambda: channel_from_cq_ensemble(I2 / 2), ["state"]),
    "validate_cptp": (lambda: validate_cptp(QuantumChannel(np.array([ID2.kraus] * 2))), ["k"]),
}
_SHAPED = r"(\w+) \((?:…|\d+)(?:, (?:…|\d+))*,?\)"


@pytest.mark.parametrize("call, names", MISMATCHED_OPERANDS.values(), ids=MISMATCHED_OPERANDS)
def test_estimators_reject_operands_of_another_dimension(call, names):
    # every operand is checked before any product, so no numpy error escapes, and
    # one message form names each operand with its shape, then with its need
    with pytest.raises(ValidationError) as exc:
        call()
    parts = re.fullmatch(r"shape: got (.*); need (.*?)(, with … stacks that broadcast together)?",
                         str(exc.value))
    assert parts, str(exc.value)
    for half in parts.group(1, 2):
        assert re.fullmatch(f"{_SHAPED}(, {_SHAPED})*", half), half
        assert re.findall(_SHAPED, half) == names
    assert "…" not in parts.group(1)


@pytest.mark.parametrize("label", [float("nan"), float("inf"), [float("nan")],
                                   [0, [float("inf")]], {"y": float("nan")}])
def test_povm_rejects_non_finite_labels(label):
    # a report echoes the labels, and JSON holds no NaN or Infinity; labels nest
    with pytest.raises(ValidationError, match="^labels:"):
        Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=[label, 1])


def _nested(leaf, depth):
    for _ in range(depth):
        leaf = [leaf]
    return leaf


def test_povm_reads_labels_nested_past_the_recursion_limit():
    # the finite-label check walks the nesting without recursing, and a
    # failure names its label by index, never by its repr
    effects = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    deep = 5 * sys.getrecursionlimit()
    label = _nested("a", deep)
    povm = Povm(effects, labels=[label, 1])
    assert povm.labels[0] is label
    for labels, message in [
        ([_nested(np.nan, deep), 1], r"labels\[0\] holds NaN or Inf"),
        ([0, float("inf")], r"labels\[1\] holds NaN or Inf"),
        ([_nested("a", deep), _nested("a", deep)], r"labels\[1\] nests too deep to compare"),
        ([_nested("a", 500), _nested("a", 500)], r"labels\[1\] repeats labels\[0\]"),
    ]:
        with pytest.raises(ValidationError, match=f"^labels: {message}$"):
            Povm(effects, labels=labels)


def test_complex_estimator_matches_complex_weak_values(gen):
    rho = random_density(gen, 2)
    x = SX + 1j * SY
    povm = Povm([(np.eye(2) + SZ) / 2, (np.eye(2) - SZ) / 2], labels=[0, 1])
    chan = channel_from_povm(povm)
    result = complex_estimator(rho, x, chan)
    expected, _ = complex_weak_value(rho, x, povm)
    np.testing.assert_allclose(np.diag(result.estimator), expected, atol=1e-10)


def test_complex_weak_value_trivial(gen):
    rho = random_density(gen, 2)
    x = SX + 1j * SY
    povm = Povm([np.eye(2)], labels=["all"])
    [value], _ = complex_weak_value(rho, x, povm)
    assert value == pytest.approx(complex(np.trace(x @ rho)), abs=1e-12)


def test_complex_weak_value_real_part_matches_hermitian(gen):
    for _ in range(20):
        rho = random_density(gen, 2)
        x = random_hermitian(gen, 2)
        povm = Povm([(np.eye(2) + SX) / 2, (np.eye(2) - SX) / 2], labels=[0, 1])
        cwv, _ = complex_weak_value(rho, x, povm)
        np.testing.assert_allclose(cwv.real, weak_value(rho, x, povm)[0], atol=1e-12)


def test_complex_weak_value_purely_imaginary():
    rho = np.diag([1.0, 0.0])
    assert complex_weak_value(rho, SY, PROJ_X)[0][0] == pytest.approx(1j, abs=1e-12)


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


def test_check_risk_is_the_personick_risk_of_the_sld(gen):
    # the check's Personick solve is personick_estimator's on the same
    # arrays, so the risk and support rank agree bit for bit
    for _ in range(40):
        d_in, d_out = (int(d) for d in gen.integers(2, 5, size=2))
        rho0 = random_density(gen, d_in, rank=int(gen.integers(1, d_in + 1)))
        family = fisher.unitary_rotation_family(rho0, random_hermitian(gen, d_in))
        chan, theta = random_channel(gen, d_in, d_out), float(gen.uniform(-0.5, 0.5))
        report = fisher.monotonicity_check(family, chan, theta)
        est = personick_estimator(family.density(theta), fisher.sld(family, theta), chan)
        assert report.personick_risk == est.min_risk
        assert report.support_rank == est.support_rank


def test_residual_warning_names_the_caller(gen, monkeypatch):
    monkeypatch.setattr(estimators, "RESIDUAL_WARN", -1.0)
    with pytest.warns(UserWarning, match="normal-equation residual") as record:
        personick_estimator(random_density(gen, 3), random_hermitian(gen, 3),
                            random_channel(gen, 3, 2))
    assert [w.filename for w in record] == [__file__]


TOWER = 1e-10  # relative to ‖X‖ for estimators and ‖X‖² for risks


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), d_in=st.integers(2, 5), d_mid=st.integers(2, 5),
       d_out=st.integers(2, 5), case=st.sampled_from(["mixed", "pure", "isometric"]),
       solve=st.sampled_from([personick_estimator, complex_estimator]))
def test_retrodiction_tower_property(seed, d_in, d_mid, d_out, case, solve):
    # retrodicting X through κ₂∘κ₁ from ρ is retrodicting Y = E_{κ₁,ρ}(X)
    # through κ₂ from κ₁(ρ), and the minimum risks add:
    # κ₁(ρ)∘Y = κ₁(ρ∘X) gives κ₂κ₁(ρ)∘Z = κ₂κ₁(ρ∘X) (Yκ₁(ρ) = κ₁(Xρ) for complex)
    gen = rng(seed)
    if case == "isometric":  # one Kraus operator: κ₁(ρ) has rank d_in < d_mid
        assume(d_mid > d_in)
    rho = random_density(gen, d_in, rank=1 if case == "pure" else None)
    x = random_hermitian(gen, d_in)
    k1 = random_channel(gen, d_in, d_mid, n_kraus=1 if case == "isometric" else None)
    k2 = random_channel(gen, d_mid, d_out)
    direct = solve(rho, x, k1.then(k2))
    first = solve(rho, x, k1)
    second = solve(apply_channel(k1, rho), first.estimator, k2)
    scale = np.linalg.norm(x, 2)
    assert np.linalg.norm(second.estimator - direct.estimator, 2) <= TOWER * scale
    assert abs(first.min_risk + second.min_risk - direct.min_risk) <= TOWER * scale**2


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), da=st.integers(2, 4), db=st.integers(2, 3),
       kept=st.integers(0, 1), pure=st.booleans())
def test_heisenberg_optimum_is_the_personick_estimator(seed, da, db, kept, pure):
    # Ohki's optimum, fitted on the dilated space without the Kraus lowering,
    # is the solution of κ(ρ)∘X̌ = κ(ρ∘X) through `channel_from_dilation`;
    # with a pure environment and a pure state, κ(ρ) is singular whenever the
    # kept factor is the larger one
    gen = rng(seed)
    u = random_unitary(gen, da * db)
    env = random_density(gen, db, rank=1 if pure else db)
    rho = random_density(gen, da, rank=1 if pure else da)
    x = random_hermitian(gen, da)
    ohki = selftest._heisenberg_optimum(core.tensor(rho, env), x, u, [da, db], kept)
    chan = channel_from_dilation(u, env, [da, db], [kept])
    thresholds = selftest.CHECKS["heisenberg_optimum"][1]
    gap = np.abs(ohki - personick_estimator(rho, x, chan).estimator).max()
    assert gap <= thresholds["rank-deficient gap" if pure else "full-rank gap"]
