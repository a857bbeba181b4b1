"""The stacked kernel against a loop of single calls, and its checks per element.

A (…, d, d) stack runs through the same functions as one (d, d) operator;
these tests hold a stack to the loop of its elements, name the failing
element of a stack in each check, and hold the stacked QFI sweep to the
per-problem loop it replaced.
"""

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qretro import estimators, fisher, scenario
from qretro import operator_core as core
from qretro.channels import (
    ClassicalChannel,
    Povm,
    QuantumChannel,
    apply_channel,
    channel_from_cq_ensemble,
    identity_channel,
    validate_cptp,
)
from qretro.estimators import classical_conditional_expectation, personick_estimator
from qretro.fisher import RankChangeError, StateFamily, monotonicity_check, sld
from qretro.gaussian import GaussianWigner, LinearQuadrature
from qretro.operator_core import ValidationError
from qretro.sampling import (
    channel_draw,
    finish_channel,
    finish_density,
    ginibre,
    random_channel,
    random_density,
    random_hermitian,
    random_povm,
    rng,
)

REL = 1e-12

STACKS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
dims = st.sampled_from([2, 3, 4])


def close(stacked, single):
    """Equal to REL relative, against the larger of 1 and the value's size."""
    stacked, single = np.asarray(stacked), np.asarray(single)
    assert stacked.shape == single.shape
    assert np.abs(stacked - single).max(initial=0.0) <= REL * max(1.0, np.abs(single).max())


def problems(seed, n, d_in, d_out):
    gen = rng(seed)
    rho = finish_density(np.array([ginibre(gen, d_in, d_in) for _ in range(n)]))
    h = core.hermitian_part(np.array([ginibre(gen, d_in, d_in) for _ in range(n)]))
    k = finish_channel(np.array([channel_draw(gen, d_in, d_out) for _ in range(n)]), d_out)
    theta = gen.uniform(-0.5, 0.5, size=n)
    return rho, h, k, theta


@STACKS
@given(d=dims, n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       rank=st.integers(1, 4))
def test_spectrum_stack_matches_loop(d, n, seed, rank):
    gen = rng(seed)
    g = np.array([ginibre(gen, d, min(rank, d)) for _ in range(n)])
    stack = core.Spectrum.of(core.as_hermitian(g @ core.dagger(g)))
    for i in range(n):
        one = core.eig_hermitian(g[i] @ g[i].conj().T)
        close(stack.eigenvalues[i], one.eigenvalues)
        assert np.array_equal(stack.support()[i], one.support())
        assert stack.rank()[i] == one.rank() and isinstance(one.rank(), int)
        close(stack.wmax[i], one.wmax)
        close(stack.projector()[i], one.projector())


@STACKS
@given(d=dims, n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_solve_jordan_stack_matches_loop(d, n, seed):
    gen = rng(seed)
    a = finish_density(np.array([ginibre(gen, d, d) for _ in range(n)]))
    b = core.hermitian_part(np.array([ginibre(gen, d, d) for _ in range(n)]))
    x, residual = core.solve_jordan(a, b)
    assert residual.shape == (n,)
    for i in range(n):
        x1, r1 = core.solve_jordan(a[i], b[i])
        close(x[i], x1)
        assert isinstance(r1, float) and abs(residual[i] - r1) <= 1e-14


@STACKS
@given(d_in=dims, d_out=dims, n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_apply_and_personick_stack_match_loop(d_in, d_out, n, seed):
    rho, x, k, _ = problems(seed, n, d_in, d_out)
    out = apply_channel(k, rho)
    one_channel = apply_channel(QuantumChannel(k.kraus[0]), rho)  # broadcast
    est = personick_estimator(rho, x, k)
    for i in range(n):
        ki = QuantumChannel(k.kraus[i])
        close(out[i], apply_channel(ki, rho[i]))
        close(one_channel[i], apply_channel(QuantumChannel(k.kraus[0]), rho[i]))
        single = personick_estimator(rho[i], x[i], ki)
        close(est.estimator[i], single.estimator)
        close(est.min_risk[i], single.min_risk)
        assert est.support_rank[i] == single.support_rank
        assert isinstance(single.min_risk, float) and isinstance(single.support_rank, int)


@STACKS
@given(d_in=dims, d_out=dims, n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_monotonicity_stack_matches_loop(d_in, d_out, n, seed):
    rho, h, k, theta = problems(seed, n, d_in, d_out)
    rep = monotonicity_check(fisher.unitary_rotation_family(rho, h), k, theta)
    for i in range(n):
        single = monotonicity_check(fisher.unitary_rotation_family(rho[i], h[i]),
                                    QuantumChannel(k.kraus[i]), float(theta[i]))
        for field in ("j_in", "j_out", "slack", "personick_risk"):
            close(getattr(rep, field)[i], getattr(single, field))
            assert isinstance(getattr(single, field), float)
        assert rep.support_rank[i] == single.support_rank


@STACKS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30))
def test_rotation_checks_mixed_dims_match_loop(seed, n):
    # problems of every (d_in, d_out) in one call come back in draw order
    gen = rng(seed)
    problems, draws = [], []
    for _ in range(n):
        d_in, d_out = (int(v) for v in gen.integers(2, 5, size=2))
        ref = copy.deepcopy(gen)  # the complex draws the problem's normals make
        g_rho, g_h = ginibre(ref, d_in, d_in), ginibre(ref, d_in, d_in)
        g_k = channel_draw(ref, d_in, d_out)
        normals = gen.standard_normal(2 * (g_rho.size + g_h.size + g_k.size))
        theta = float(gen.uniform(-0.5, 0.5))
        problems.append((normals, d_in, d_out, theta))
        draws.append((g_rho, g_h, d_out, g_k, theta))
    rows = scenario.rotation_checks(problems)
    for row, (g_rho, g_h, d_out, g_k, theta) in zip(rows, draws):
        rep = monotonicity_check(
            fisher.unitary_rotation_family(finish_density(g_rho), core.hermitian_part(g_h)),
            finish_channel(g_k, d_out), theta)
        close(row, [rep.j_in, rep.j_out, rep.slack, rep.personick_risk])


@STACKS
@given(d=st.integers(2, 8), n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_weak_values_over_the_effect_stack_match_loop(d, n, seed):
    # the same products and traces, one effect at a time: bitwise equal
    gen = rng(seed)
    rho, x, povm = random_density(gen, d), random_hermitian(gen, d), random_povm(gen, d, n)
    rho, x = core.as_density(rho), core.as_hermitian(x)  # as the estimators read them
    prob = np.array([np.trace(e @ rho).real for e in povm.effects])
    jordan = core._jordan(rho, x)
    real = np.array([np.trace(e @ jordan) for e in povm.effects]).real
    cplx = np.array([np.trace(e @ x @ rho) for e in povm.effects])
    for (values, defined), numer in ((estimators.weak_value(rho, x, povm), real),
                                     (estimators.complex_weak_value(rho, x, povm), cplx)):
        assert np.array_equal(defined, prob > estimators.WEAKVALUE_FLOOR)
        assert np.array_equal(values.real[defined], numer.real[defined] / prob[defined])
        assert np.array_equal(values.imag[defined], numer.imag[defined] / prob[defined])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("make, direction", [(fisher.diagonal_line_family, [0.1, -0.1]),
                                             (fisher.diagonal_exponential_family, [0.4, -0.7])])
def test_diagonal_family_runs_one_check_per_theta(gen, make, direction, n):
    # ρ(θ) and ∂ρ(θ) are (n, d, d) stacks for n values of θ, as a rotation
    # family's are, so a stacked θ runs one check per θ
    family = make([0.6, 0.4], direction)
    theta = np.linspace(-0.3, 0.2, n)
    k = random_channel(gen, 2, 3)
    s, rep = sld(family, theta), monotonicity_check(family, k, theta)
    assert s.shape == (n, 2, 2)
    for i, t in enumerate(theta.tolist()):
        close(s[i], sld(family, t))
        single = monotonicity_check(family, k, t)
        for field in ("j_in", "j_out", "slack", "personick_risk"):
            close(getattr(rep, field)[i], getattr(single, field))
        assert rep.support_rank[i] == single.support_rank


def test_diagonal_family_at_one_theta_keeps_its_matrix():
    p0, slope, weights = np.array([0.6, 0.4]), np.array([0.1, -0.1]), np.array([0.4, -0.7])
    line = fisher.diagonal_line_family(p0, slope)
    assert np.array_equal(line.state_at(0.3), np.diag((p0 + 0.3 * slope).astype(complex)))
    assert np.array_equal(line.derivative_at(0.3), np.diag(slope.astype(complex)))
    p = p0 * np.exp(0.3 * weights)
    p = p / p.sum()
    exponential = fisher.diagonal_exponential_family(p0, weights)
    assert np.array_equal(exponential.state_at(0.3), np.diag(p.astype(complex)))
    assert np.array_equal(exponential.derivative_at(0.3),
                          np.diag((p * (weights - p @ weights)).astype(complex)))


def test_samplers_are_draw_then_finish():
    a, b = rng(3), rng(3)
    assert np.array_equal(random_density(a, 3), finish_density(ginibre(b, 3, 3)))
    assert np.array_equal(random_hermitian(a, 3), core.hermitian_part(ginibre(b, 3, 3)))
    ka, kb = random_channel(a, 3, 2), finish_channel(channel_draw(b, 3, 2), 2)
    assert np.array_equal(ka.kraus, kb.kraus)
    assert str(a.bit_generator.state) == str(b.bit_generator.state)


# --- checks name the failing element --------------------------------------------

def _stack(gen, n=4, d=3):
    return finish_density(np.array([ginibre(gen, d, d) for _ in range(n)]))


@pytest.mark.parametrize("k", [0, 2, 3])
@pytest.mark.parametrize("invariant, spoil", [
    ("finite", lambda m: m.__setitem__((0, 1), np.nan)),
    ("hermiticity", lambda m: m.__setitem__((0, 1), m[0, 1] + 1e-3)),
    ("trace", lambda m: m.__imul__(1.5)),
    ("psd", lambda m: m.__setitem__(slice(None), np.diag([1.5, -0.25, -0.25]))),
])
def test_failing_element_is_named(gen, k, invariant, spoil):
    rho = _stack(gen)
    spoil(rho[k])
    with pytest.raises(ValidationError) as exc:
        personick_estimator(rho, rho, random_channel(gen, 3, 2))
    assert exc.value.invariant == invariant
    assert f"state[{k}]" in str(exc.value)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_failing_family_element_is_named(gen, k):
    rho, h = _stack(gen), core.hermitian_part(np.array([ginibre(gen, 3, 3) for _ in range(4)]))
    theta = np.linspace(-0.3, 0.3, 4)
    family = fisher.unitary_rotation_family(rho, h)
    drifting = StateFamily(state_at=family.state_at,
                           derivative_at=lambda t: family.derivative_at(t) + 1e-3 * (
                               np.arange(4) == k)[:, None, None] * np.eye(3))
    with pytest.raises(ValidationError, match=rf"∂ρ/∂θ\[{k}\] has trace"):
        monotonicity_check(drifting, random_channel(gen, 3, 2), theta)


@pytest.mark.parametrize("k", [0, 2])
def test_rank_change_names_the_element(k):
    # p(θ) = p0 + θ·slope reaches the boundary of the simplex at θ = 0.5 in
    # element k only; its derivative there leaks off the support
    p0 = np.full((3, 2), 0.5)
    slope = np.array([[0.2, -0.2]] * 3)
    slope[k] = [1.0, -1.0]
    family = StateFamily(
        state_at=lambda t: np.einsum("ni,ij->nij", p0 + t[:, None] * slope, np.eye(2)),
        derivative_at=lambda t: np.einsum("ni,ij->nij", slope, np.eye(2)).astype(complex),
    )
    with pytest.raises(RankChangeError, match=rf"rho\(theta\)\[{k}\]"):
        sld(family, np.full(3, 0.5))


def test_cptp_failure_names_the_channel(gen):
    kraus = random_channel(gen, 2, 2).kraus
    stack = np.array([kraus, kraus * 1.01, kraus])
    with pytest.raises(ValidationError, match=r"cptp: Σ K†K\[1\]"):
        QuantumChannel(stack)


# --- the stacked sweep against the per-problem loop --------------------------------

def _loop_sweep(seed, count, dims):
    """The sweep as one monotonicity_check per problem, in draw order."""
    gen = rng(seed)
    rows = []
    for _ in range(count):
        d_in, d_out = int(gen.choice(dims)), int(gen.choice(dims))
        family = fisher.unitary_rotation_family(random_density(gen, d_in),
                                                random_hermitian(gen, d_in))
        k = random_channel(gen, d_in, d_out)
        rep = monotonicity_check(family, k, float(gen.uniform(-0.5, 0.5)))
        rows.append((rep.j_in, rep.j_out, rep.slack))
    return rows, gen


@pytest.mark.parametrize("held", [scenario.HELD_DRAW_BYTES, 1])  # 1: one problem a solve
@pytest.mark.parametrize("seed, count, dims", [(0, 200, [2, 3, 4]), (17, 40, [3]),
                                               (5, 25, [4, 2])])
def test_sweep_keeps_rng_order_and_rows(monkeypatch, seed, count, dims, held):
    monkeypatch.setattr(scenario, "HELD_DRAW_BYTES", held)
    made = []
    monkeypatch.setattr(scenario, "rng", lambda s: made.append(rng(s)) or made[-1])
    results = scenario.run_scenario(
        {"kind": "qfi-mono", "seed": seed, "sweep": {"count": count, "dims": dims}}
    )["results"]
    expected, gen = _loop_sweep(seed, count, dims)
    assert str(made[0].bit_generator.state) == str(gen.bit_generator.state)
    assert len(results["rows"]) == count
    for row, (j_in, j_out, slack) in zip(results["rows"], expected):
        close([row["j_in"], row["j_out"], row["slack"]], [j_in, j_out, slack])
    assert results["min_slack"] == min(r["slack"] for r in results["rows"])


@pytest.mark.parametrize("dims", [[1], [2, 3, 4], [4, 2]])
@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1])
def test_sweep_finishes_the_samplers_draws(monkeypatch, seed, dims):
    # one standard_normal call per problem takes what ginibre, ginibre and
    # channel_draw take in turn, and each stack's blocks are made complex as
    # ginibre makes them: the draws the sweep finishes are bitwise the samplers'.
    # The family's draws are finished once per d_in, in draw order, and the
    # channel's once per (d_in, d_out)
    finished = {name: [] for name in ("finish_density", "hermitian_part", "finish_channel")}
    for name, seen in finished.items():
        def record(g, *args, seen=seen, finish=getattr(scenario, name)):
            seen.append(g)
            return finish(g, *args)
        monkeypatch.setattr(scenario, name, record)
    gen, ref = rng(seed), rng(seed)
    scenario.rotation_checks(scenario._sweep_draws(gen, dims, 30))
    by_in = {}
    for _ in range(30):
        d_in, d_out = (dims[int(ref.integers(len(dims)))] for _ in range(2))
        by_in.setdefault(d_in, []).append(
            (d_out, ginibre(ref, d_in, d_in), ginibre(ref, d_in, d_in),
             channel_draw(ref, d_in, d_out)))
        ref.uniform(-0.5, 0.5)
    assert str(gen.bit_generator.state) == str(ref.bit_generator.state)
    expected = {name: [] for name in finished}
    for drawn in by_in.values():
        expected["finish_density"].append(np.array([draws[1] for draws in drawn]))
        expected["hermitian_part"].append(np.array([draws[2] for draws in drawn]))
        for d_out in dict.fromkeys(draws[0] for draws in drawn):
            expected["finish_channel"].append(
                np.array([draws[3] for draws in drawn if draws[0] == d_out]))
    for name, seen in finished.items():
        assert len(seen) == len(expected[name])
        for g, want in zip(seen, expected[name]):
            assert np.array_equal(g, want)


def _pair_grouped_checks(problems):
    """The sweep as one stacked monotonicity_check per (d_in, d_out)."""
    groups = {}
    for i, (_, d_in, d_out, _) in enumerate(problems):
        groups.setdefault((d_in, d_out), []).append(i)
    rows = np.empty((len(problems), 4))
    for (d, d_out), idx in groups.items():
        normals = np.array([problems[i][0] for i in idx])
        n, cut = len(idx), 2 * d * d
        g_rho = normals[:, :cut].reshape(n, 2, d, d)
        g_h = normals[:, cut:2 * cut].reshape(n, 2, d, d)
        g_k = normals[:, 2 * cut:].reshape(n, 2, -1, d)
        g_rho, g_h, g_k = (g[:, 0] + 1j * g[:, 1] for g in (g_rho, g_h, g_k))
        family = fisher.unitary_rotation_family(finish_density(g_rho), core.hermitian_part(g_h))
        rep = monotonicity_check(family, finish_channel(g_k, d_out),
                                 np.array([problems[i][3] for i in idx]))
        rows[idx] = np.column_stack([rep.j_in, rep.j_out, rep.slack, rep.personick_risk])
    return rows


@pytest.mark.parametrize("held", [scenario.HELD_DRAW_BYTES, 1])  # 1: one problem a solve
@pytest.mark.parametrize("seed, count, dims", [(0, 200, [2, 3, 4]), (9, 60, [4, 2, 3, 2])])
def test_staged_sweep_matches_one_check_per_dims_pair(monkeypatch, seed, count, dims, held):
    # each stage runs once per dimension it needs, on stacks cut and joined
    # differently from one check per (d_in, d_out), and gives the same bits
    problems = list(scenario._sweep_draws(rng(seed), dims, count))
    monkeypatch.setattr(scenario, "HELD_DRAW_BYTES", held)
    assert np.array_equal(scenario.rotation_checks(problems), _pair_grouped_checks(problems))


def _sweep_peak(count):
    sc = {"kind": "qfi-mono", "seed": 3, "sweep": {"count": count, "dims": [32]}}
    tracemalloc.start()
    try:
        rows = scenario.run_scenario(sc)["results"]["rows"]
        return tracemalloc.get_traced_memory()[1], rows
    finally:
        tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_count():
    # at d = 32 a problem draws 544 KiB, so a count-12 sweep holding every
    # draw would peak above 6 MiB
    peak_4, rows_4 = _sweep_peak(4)
    peak_12, rows_12 = _sweep_peak(12)
    assert peak_12 < 1.25 * peak_4
    assert rows_12[:4] == rows_4


# --- every failing element warns ------------------------------------------------------

def test_residual_warning_names_each_element(gen, monkeypatch):
    rho, x, k, _ = problems(11, 4, 3, 2)
    residual = personick_estimator(rho, x, k).residual
    threshold = np.sort(residual)[1]
    over = np.flatnonzero(residual > threshold)
    assert len(over) == 2
    monkeypatch.setattr(estimators, "RESIDUAL_WARN", threshold)
    with pytest.warns(UserWarning) as record:
        personick_estimator(rho, x, k)
    assert [str(w.message).split()[1] for w in record] == [
        f"residual[{i}]" for i in over]


def test_personick_rejects_stacks_that_do_not_broadcast(gen):
    rho = np.array([random_density(gen, 2)] * 3)
    x = np.array([random_hermitian(gen, 2)] * 2)
    with pytest.raises(ValidationError, match=r"^shape: got rho \(3, 2, 2\), x \(2, 2, 2\), "
                                              r"k .*, with … stacks that broadcast together$"):
        personick_estimator(rho, x, random_channel(gen, 2, 2))


@pytest.mark.parametrize("call, got", [
    (lambda: fisher.unitary_rotation_family(np.array([np.eye(2) / 2] * 2),
                                            np.array([np.diag([1.0, -1.0])] * 3)),
     "rho0 (2, 2, 2), h (3, 2, 2)"),
    (lambda: fisher.unitary_rotation_family(np.array([np.eye(2) / 2] * 2),
                                            np.diag([1.0, -1.0])).state_at(np.zeros(3)),
     "family (2, 2, 2), theta (3,)"),
    (lambda: QuantumChannel(np.array([identity_channel(2).kraus] * 2)).then(
        QuantumChannel(np.array([identity_channel(2).kraus] * 3))),
     "self (2, 1, 2, 2), other (3, 1, 2, 2)"),
], ids=["rotation_family", "rotation_theta", "then"])
def test_stacks_that_do_not_broadcast_are_shape_errors(call, got):
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value).startswith(f"shape: got {got}; need ")
    assert str(exc.value).endswith(", with … stacks that broadcast together")


def test_exponential_family_p0_must_be_a_vector():
    with pytest.raises(ValidationError, match=r"^shape: got p0 \(1, 2\), weights \(1, 2\); "
                                              r"need p0 \(2,\), weights \(2,\)$"):
        fisher.diagonal_exponential_family([[0.5, 0.5]], [[1, 0]])


# --- a ragged nested list, or an entry that is not a number, is a shape error ----------

RAGGED = [[1, 0], [0]]
NOISELESS = ClassicalChannel(np.eye(2))


@pytest.mark.parametrize("call", [
    lambda: core.as_density(RAGGED),
    lambda: core.jordan_product(RAGGED, np.eye(2)),
    lambda: core.solve_jordan(np.eye(2), RAGGED),
    lambda: apply_channel(identity_channel(2), RAGGED),
    lambda: personick_estimator(RAGGED, np.eye(2), identity_channel(2)),
    lambda: estimators.complex_estimator(np.eye(2) / 2, RAGGED, identity_channel(2)),
    lambda: estimators.schrodinger_risk(np.eye(2) / 2, np.eye(2), identity_channel(2),
                                        RAGGED),
    lambda: estimators.weak_value(RAGGED, np.eye(2), Povm([np.eye(2)])),
    lambda: Povm([np.eye(2), RAGGED]),
    lambda: channel_from_cq_ensemble([np.eye(2) / 2, RAGGED]),
    lambda: personick_estimator(np.eye(2) / 2, {"x": 1}, identity_channel(2)),
    lambda: core.tensor(RAGGED, np.eye(2)),
    lambda: QuantumChannel([np.eye(2), np.eye(3)]),
    lambda: validate_cptp([np.eye(2), np.eye(3)]),
    lambda: ClassicalChannel(RAGGED),
    lambda: ClassicalChannel("abc"),
    lambda: classical_conditional_expectation(RAGGED, NOISELESS, [0.0, 1.0]),
    lambda: classical_conditional_expectation(["a", "b"], NOISELESS, [0.0, 1.0]),
    lambda: classical_conditional_expectation([0.5, 0.5], NOISELESS, RAGGED),
    lambda: fisher.diagonal_line_family(RAGGED, [0.5, -0.5]),
    lambda: fisher.diagonal_line_family(["a", 1], [0.5, -0.5]),
    lambda: fisher.diagonal_exponential_family([0.5, 0.5], RAGGED),
    lambda: fisher.unitary_rotation_family(np.eye(2) / 2, np.eye(2)).state_at("a"),
    lambda: GaussianWigner(RAGGED, np.eye(2)),
    lambda: GaussianWigner("ab", np.eye(2)),
    lambda: GaussianWigner([0.0, 0.0], RAGGED),
    lambda: GaussianWigner([0.0, 0.0], np.eye(2), [1.0]),
    lambda: LinearQuadrature(RAGGED),
    lambda: LinearQuadrature([1.0, 0.0], "a"),
    lambda: LinearQuadrature([1.0, 0.0], [1.0]),
], ids=["as_density", "jordan_product", "solve_jordan", "apply_channel",
        "personick_estimator", "complex_estimator", "schrodinger_risk", "weak_value",
        "Povm", "channel_from_cq_ensemble", "personick_estimator-dict", "tensor",
        "QuantumChannel", "validate_cptp", "ClassicalChannel", "ClassicalChannel-text",
        "classical-px", "classical-px-text", "classical-xvals", "line_family",
        "line_family-text", "exponential_family", "rotation-theta-text", "Gaussian-mean",
        "Gaussian-mean-text", "Gaussian-covariance", "Gaussian-weight-list",
        "quadrature-coeffs", "quadrature-offset-text", "quadrature-offset-list"])
def test_ragged_input_is_a_shape_error(call):
    with pytest.raises(ValidationError) as exc:
        call()
    assert exc.value.invariant == "shape"


@pytest.mark.parametrize("call, name", [
    (lambda: Povm([np.eye(2), np.eye(3)]), "effect"),
    (lambda: channel_from_cq_ensemble([np.eye(2) / 2, np.eye(3) / 3]), "state"),
    (lambda: QuantumChannel([np.eye(2), np.eye(2), np.eye(3)]), "kraus"),
], ids=["Povm", "channel_from_cq_ensemble", "QuantumChannel"])
def test_operators_of_different_dimensions_name_their_shapes(call, name):
    with pytest.raises(ValidationError, match=(
            rf"^shape: {name} must be a rectangular array of numbers: "
            rf"{name}\[0\] has shape \(2, 2\), {name}\[\d\] \(3, 3\)$")):
        call()


# --- functions of one operator reject a stack ----------------------------------------

def _single_operator_calls(gen):
    from qretro import channels, estimators
    rho, x = random_density(gen, 2), random_hermitian(gen, 2)
    stack, xs = np.array([rho, rho]), np.array([x, x])
    k = random_channel(gen, 2, 2)
    povm = channels.Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    u = np.eye(4)
    return [
        lambda: estimators.schrodinger_risk(stack, xs, k, xs),
        lambda: estimators.heisenberg_risk(np.array([np.kron(rho, rho)] * 2),
                                           x, x, u, [2, 2], [1]),
        lambda: estimators.complex_estimator(stack, xs, k),
        lambda: estimators.weak_value(stack, xs, povm),
        lambda: estimators.complex_weak_value(stack, xs, povm),
        lambda: core.embed(xs, [2, 2], 0),
        lambda: core.partial_trace(np.array([np.kron(rho, rho)] * 2), [2, 2], {0}),
        lambda: channels.channel_from_dilation(np.array([u, u]), rho, [2, 2], [0]),
        lambda: channels.channel_from_dilation(u, stack, [2, 2], [0]),
        lambda: channels.Povm([np.array([np.diag([1.0, 0.0])] * 2),
                               np.array([np.diag([0.0, 1.0])] * 2)]),
        lambda: channels.channel_from_cq_ensemble([stack, stack]),
        lambda: channels.validate_cptp(QuantumChannel(np.array([k.kraus, k.kraus]))),
        lambda: estimators.complex_estimator(rho, x, QuantumChannel(np.array([k.kraus] * 2))),
        lambda: estimators.schrodinger_risk(rho, x, QuantumChannel(np.array([k.kraus] * 2)), x),
    ]


@pytest.mark.parametrize("index", range(14))
def test_single_operator_functions_reject_a_stack(gen, index):
    # a shape check, not a failure further on such as `real:` on a summed trace
    call = _single_operator_calls(gen)[index]
    with pytest.raises(ValidationError, match="^(shape|dims|kraus): "):
        call()
