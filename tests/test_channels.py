import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import BELL
from qretro import channels
from qretro import operator_core as core
from qretro.channels import (
    ClassicalChannel,
    Povm,
    QuantumChannel,
    apply_channel,
    channel_from_classical,
    channel_from_cq_ensemble,
    channel_from_dilation,
    channel_from_povm,
    depolarizing_channel,
    identity_channel,
    partial_trace_channel,
    validate_cptp,
)
from qretro.operator_core import ValidationError
from qretro.sampling import (
    random_channel,
    random_density,
    random_hermitian,
    random_povm,
    random_unitary,
    rng,
)

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)


def test_apply_identity(gen):
    rho = random_density(gen, 3)
    np.testing.assert_allclose(apply_channel(identity_channel(3), rho), rho, atol=1e-15)


def test_apply_depolarizing(gen):
    rho = random_density(gen, 2)
    np.testing.assert_allclose(apply_channel(depolarizing_channel(2), rho), np.eye(2) / 2,
                               atol=1e-14)


def test_apply_matches_kraus_sum_oracle(gen):
    chan = random_channel(gen, 3, 3, n_kraus=3)
    h = random_hermitian(gen, 3)
    expected = sum(k @ h @ k.conj().T for k in chan.kraus)
    np.testing.assert_allclose(apply_channel(chan, h), expected, atol=1e-13)
    assert np.trace(apply_channel(chan, h)) == pytest.approx(np.trace(h), abs=1e-12)


def _choi_loop(kraus):
    # Σ_k |vec K_k⟩⟨vec K_k| with the input index as the slow factor
    return sum(np.outer(k.T.reshape(-1), k.T.reshape(-1).conj()) for k in kraus)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d_in=st.integers(1, 6), d_out=st.integers(1, 6), n_kraus=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
def test_apply_matches_kraus_loop_property(d_in, d_out, n_kraus, seed):
    assume(d_out * n_kraus >= d_in)  # room for an isometry
    gen = rng(seed)
    chan = random_channel(gen, d_in, d_out, n_kraus=n_kraus)
    m = gen.standard_normal((d_in, d_in)) + 1j * gen.standard_normal((d_in, d_in))
    expected = sum(k @ m @ k.conj().T for k in chan.kraus)
    np.testing.assert_allclose(apply_channel(chan, m), expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(channels._choi(chan.kraus), _choi_loop(chan.kraus), rtol=0,
                               atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d_in=st.integers(1, 5), d_out=st.integers(1, 5), n_kraus=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_validate_cptp_matches_kraus_loop_property(d_in, d_out, n_kraus, seed):
    # arbitrary Kraus lists, trace preserving or not
    gen = rng(seed)
    kraus = (gen.standard_normal((n_kraus, d_out, d_in))
             + 1j * gen.standard_normal((n_kraus, d_out, d_in))) / np.sqrt(n_kraus)
    report = validate_cptp(kraus)
    tp = np.abs(sum(k.conj().T @ k for k in kraus) - np.eye(d_in)).max()
    assert report.tp_deviation == pytest.approx(tp, rel=0, abs=1e-12)
    assert report.choi_min_eigenvalue == pytest.approx(
        np.linalg.eigvalsh(_choi_loop(kraus)).min(), rel=0, abs=1e-12)


def test_depolarizing_kraus_list_order():
    dim = 3
    expected = []
    for i in range(dim):
        for j in range(dim):
            k = np.zeros((dim, dim), dtype=complex)
            k[i, j] = 1.0 / np.sqrt(dim)
            expected.append(k)
    np.testing.assert_array_equal(depolarizing_channel(dim).kraus, np.stack(expected))


def test_apply_dimension_mismatch(gen):
    with pytest.raises(ValidationError):
        apply_channel(identity_channel(2), np.eye(3))


def test_dilation_identity_unitary(gen):
    env = random_density(gen, 3)
    chan = channel_from_dilation(np.eye(6), env, [2, 3], kept=[0])
    rho = random_density(gen, 2)
    np.testing.assert_allclose(apply_channel(chan, rho), rho, atol=1e-12)


def test_dilation_swap_gives_constant_channel(gen):
    env = random_density(gen, 2)
    chan = channel_from_dilation(SWAP, env, [2, 2], kept=[0])
    rho = random_density(gen, 2)
    np.testing.assert_allclose(apply_channel(chan, rho), env, atol=1e-12)


def test_dilation_matches_explicit_formula(gen):
    u = random_unitary(gen, 4)
    env = random_density(gen, 2)
    for kept in (0, 1):
        chan = channel_from_dilation(u, env, [2, 2], kept=[kept])
        for _ in range(20):
            rho = random_density(gen, 2)
            direct = core.partial_trace(
                u @ core.tensor(rho, env) @ u.conj().T, [2, 2], {kept}
            )
            np.testing.assert_allclose(apply_channel(chan, rho), direct, atol=1e-10)


def test_environment_eigenvalue_1e_8_makes_kraus_operators(gen):
    # KRAUS_CUTOFF (1e-14) drops an environment's zeros, not a weight of 1e-8:
    # 2 environment eigenpairs × 2 traced basis states
    env = np.diag([1 - 1e-8, 1e-8])
    chan = channel_from_dilation(random_unitary(gen, 4), env, [2, 2], [0])
    assert chan.kraus.shape == (4, 2, 2)


def test_dilation_rejects_nonunitary(gen):
    with pytest.raises(ValidationError):
        channel_from_dilation(np.eye(4) * 0.5, random_density(gen, 2),
                              [2, 2], kept=[0])


def test_classical_identity_is_dephasing(gen):
    chan = channel_from_classical(ClassicalChannel(np.eye(2)))
    rho = random_density(gen, 2)
    np.testing.assert_allclose(apply_channel(chan, rho), np.diag(np.diag(rho)), atol=1e-14)


def test_classical_bsc():
    bsc = ClassicalChannel([[0.8, 0.2], [0.2, 0.8]])
    chan = channel_from_classical(bsc)
    np.testing.assert_allclose(apply_channel(chan, np.diag([0.5, 0.5])), np.diag([0.5, 0.5]),
                               atol=1e-14)
    np.testing.assert_allclose(apply_channel(chan, np.diag([1.0, 0.0])), np.diag([0.8, 0.2]),
                               atol=1e-14)


def test_classical_commutes_with_embedding(gen):
    c = ClassicalChannel(np.array([[0.1, 0.6, 0.3],
                                   [0.5, 0.2, 0.3],
                                   [0.4, 0.2, 0.4]]))
    chan = channel_from_classical(c)
    px = np.array([0.2, 0.5, 0.3])
    out = apply_channel(chan, np.diag(px.astype(complex)))
    np.testing.assert_allclose(np.diag(out).real, c.transition @ px, atol=1e-13)


def test_classical_channel_validation():
    with pytest.raises(ValidationError):
        ClassicalChannel([[0.5, 0.2], [0.4, 0.8]])  # column sums off
    with pytest.raises(ValidationError):
        ClassicalChannel([[1.2, 0.0], [-0.2, 1.0]])  # negative entry


def test_cq_ensemble_constant(gen):
    sigma = random_density(gen, 2)
    chan = channel_from_cq_ensemble([sigma, sigma])
    rho = random_density(gen, 2)
    np.testing.assert_allclose(apply_channel(chan, rho), sigma, atol=1e-12)


def test_cq_ensemble_computational_basis():
    chan = channel_from_cq_ensemble([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    p = 0.3
    np.testing.assert_allclose(apply_channel(chan, np.diag([p, 1 - p])), np.diag([p, 1 - p]),
                               atol=1e-14)


def test_cq_ensemble_mixture_oracle(gen):
    states = [random_density(gen, 2), random_density(gen, 2)]
    chan = channel_from_cq_ensemble(states)
    out = apply_channel(chan, np.diag([0.3, 0.7]))
    np.testing.assert_allclose(out, 0.3 * states[0] + 0.7 * states[1], atol=1e-12)


def test_povm_channel_projective():
    povm = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    chan = channel_from_povm(povm)
    np.testing.assert_allclose(apply_channel(chan, np.diag([0.7, 0.3])), np.diag([0.7, 0.3]),
                               atol=1e-14)


def test_povm_channel_trivial():
    chan = channel_from_povm(Povm([np.eye(2)]))
    rho = np.diag([0.4, 0.6])
    np.testing.assert_allclose(apply_channel(chan, rho), [[1.0]], atol=1e-14)


def test_povm_channel_diagonal_entries(gen):
    povm = random_povm(gen, 2, 3)
    chan = channel_from_povm(povm)
    rho = random_density(gen, 2)
    out = apply_channel(chan, rho)
    for y, e in enumerate(povm.effects):
        assert out[y, y].real == pytest.approx(np.trace(e @ rho).real, abs=1e-12)
    assert np.abs(out - np.diag(np.diag(out))).max() <= 1e-12
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


def test_povm_validation():
    with pytest.raises(ValidationError):
        Povm([np.diag([1.0, 0.0])])  # incomplete
    # a negative effect, named by its index
    with pytest.raises(ValidationError, match=r"^psd: effect\[1\] has eigenvalue -5"):
        Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])


def _count_eigensolves(monkeypatch):
    count = {"n": 0}
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            count["n"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return count


def test_channel_from_povm_reads_the_povm_spectra(gen, monkeypatch):
    # a Povm makes one eigh of its stacked effects; channel_from_povm makes none
    effects = random_povm(gen, 3, 4).effects
    count = _count_eigensolves(monkeypatch)
    povm = Povm(effects)
    assert count["n"] == 1
    chan = channel_from_povm(povm)
    assert count["n"] == 1
    rho = random_density(gen, 3)
    expected = np.diag([np.trace(e @ rho) for e in povm.effects])
    np.testing.assert_allclose(apply_channel(chan, rho), expected, atol=1e-12)


@pytest.mark.parametrize("k", [2, 5])
def test_cq_ensemble_makes_one_eigensolve(gen, monkeypatch, k):
    states = [random_density(gen, 3) for _ in range(k)]
    count = _count_eigensolves(monkeypatch)
    chan = channel_from_cq_ensemble(states)
    assert count["n"] == 1
    np.testing.assert_allclose(apply_channel(chan, np.eye(k) / k), sum(states) / k, atol=1e-12)


@pytest.mark.parametrize("k", [0, 2])
def test_povm_and_ensemble_failures_name_the_element(gen, k):
    effects = random_povm(gen, 3, 3).effects.copy()
    effects[k, 0, 1] += 1e-3
    with pytest.raises(ValidationError, match=rf"^hermiticity: effect\[{k}\] deviates"):
        Povm(effects)
    states = [random_density(gen, 3) for _ in range(3)]
    states[k] = 1.5 * states[k]
    with pytest.raises(ValidationError, match=rf"^trace: state\[{k}\] has trace 1.5"):
        channel_from_cq_ensemble(states)


def test_partial_trace_channel_trivial(gen):
    chan = partial_trace_channel([2], {0})
    rho = random_density(gen, 2)
    np.testing.assert_allclose(apply_channel(chan, rho), rho, atol=1e-14)


def test_partial_trace_channel_bell():
    chan = partial_trace_channel([2, 2], {0})
    np.testing.assert_allclose(apply_channel(chan, BELL), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_channel_matches_partial_trace(gen):
    chan = partial_trace_channel([2, 3], {1})
    m = random_density(gen, 6)
    np.testing.assert_allclose(apply_channel(chan, m), core.partial_trace(m, [2, 3], {1}),
                               atol=1e-13)


def test_validate_cptp_identity():
    report = validate_cptp(identity_channel(2))
    assert report.tp_deviation <= 1e-14
    assert report.choi_min_eigenvalue >= -1e-12
    assert report.accepted


def test_validate_cptp_rejects_subnormalized():
    report = validate_cptp([np.eye(2) / 2])
    assert report.tp_deviation == pytest.approx(0.75, abs=1e-14)
    assert not report.accepted
    with pytest.raises(ValidationError, match="cptp"):
        QuantumChannel([np.eye(2) / 2])


@pytest.mark.parametrize("call", [
    lambda: validate_cptp([np.eye(2), np.eye(3)]),  # ragged Kraus list
    lambda: channel_from_cq_ensemble([]),
    lambda: core.embed(np.diag([1.0, -1.0]), [2, 2], 5),
    lambda: core.embed(np.diag([1.0, -1.0]), [2, 2], -1),  # not the last factor
    lambda: ClassicalChannel(np.zeros((2, 0))),
    lambda: QuantumChannel([np.zeros((1, 0))]),
    lambda: QuantumChannel([[[1, 0], [0, np.nan]]]),
    lambda: QuantumChannel(5),
    lambda: Povm(5),
    lambda: channel_from_cq_ensemble(5),
], ids=["ragged-kraus", "empty-ensemble", "factor-5", "factor-minus-1", "empty-classical",
        "empty-kraus", "nan-kraus", "kraus-scalar", "povm-scalar", "ensemble-scalar"])
def test_malformed_library_calls_raise_validation_errors(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("make", [identity_channel, depolarizing_channel])
def test_a_size_is_an_integer_of_at_least_one(make):
    # one rule in require_size: a bool is not a size, as in the scenario layer
    for size in ["a", 2.5, np.float64(2.0), None, True, 0, -1]:
        with pytest.raises(ValidationError, match="^size: .* must be an integer >= 1, got "):
            make(size)
    assert make(np.int64(2)).dim_in == 2


def test_a_non_finite_kraus_operator_is_named():
    # Σ K†K reads NaN, and NaN > CPTP_TOL is False: the TP check alone passes it
    with pytest.raises(ValidationError, match=r"^finite: kraus\[1\] contains NaN or Inf"):
        QuantumChannel([np.eye(2), [[0, 0], [0, np.inf]]])


def test_validate_cptp_accepts_random_dilation(gen):
    chan = channel_from_dilation(random_unitary(gen, 6), random_density(gen, 3),
                                 [2, 3], kept=[1])
    assert validate_cptp(chan).accepted


@pytest.mark.parametrize("maker", [
    lambda g: (2, random_channel(g, 2, 3)),
    lambda g: (3, channel_from_classical(
        ClassicalChannel((lambda t: t / t.sum(0))(g.random((4, 3)) + 0.1)))),
    lambda g: (2, channel_from_povm(random_povm(g, 2, 3))),
    lambda g: (2, channel_from_cq_ensemble([random_density(g, 3),
                                            random_density(g, 3)])),
    lambda g: (6, partial_trace_channel([2, 3], {0})),
])
def test_constructors_preserve_trace_and_psd(gen, maker):
    dim, chan = maker(gen)
    for _ in range(20):
        rho = random_density(gen, dim)
        out = apply_channel(chan, rho)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(core.hermitian_part(out)).min() >= -1e-10


def test_composition(gen):
    a = random_channel(gen, 2, 3)
    b = random_channel(gen, 3, 2)
    rho = random_density(gen, 2)
    np.testing.assert_allclose(apply_channel(a.then(b), rho),
                               apply_channel(b, apply_channel(a, rho)), atol=1e-12)


@pytest.mark.parametrize("make", [
    lambda: Povm([np.eye(2) / 2, np.eye(2) / 2]),
    lambda: ClassicalChannel(np.array([[0.8, 0.2], [0.2, 0.8]])),
])
def test_array_dataclasses_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and {a, b} == {a, b}
