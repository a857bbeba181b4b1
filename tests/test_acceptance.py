"""Acceptance gate: every criterion at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import json
import time

import numpy as np

from qretro import fisher, operator_core as core
from qretro.channels import (
    channel_from_classical,
    channel_from_dilation,
    channel_from_povm,
    depolarizing_channel,
    identity_channel,
)
from qretro.channels import ClassicalChannel
from qretro.estimators import (
    classical_conditional_expectation,
    complex_weak_value,
    heisenberg_risk,
    personick_estimator,
    schrodinger_risk,
    weak_value,
)
from qretro.gaussian import numeric_wigner_integral, quadrature_estimator
from qretro.gaussian import GaussianWigner, LinearQuadrature
from qretro.sampling import (
    random_channel,
    random_classical_channel,
    random_density,
    random_gaussian_wigner,
    random_hermitian,
    random_linear_quadrature,
    random_povm,
    random_probability_vector,
    random_unitary,
    rng,
)
from qretro.selftest import run_selftest


def _report(name, passed, detail=""):
    print(f"{'PASS' if passed else 'FAIL'}  {name}  {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_picture_equivalence():
    gen = rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        da, db = int(gen.integers(2, 4)), int(gen.integers(2, 4))
        u = random_unitary(gen, da * db)
        env = random_density(gen, db)
        kept = int(gen.integers(0, 2))
        chan = channel_from_dilation(u, env, [da, db], [kept])
        rho = random_density(gen, da)
        x = random_hermitian(gen, da)
        xcheck = random_hermitian(gen, [da, db][kept])
        hs = heisenberg_risk(core.tensor(rho, env), x, xcheck, u, [da, db], [kept])
        ss = schrodinger_risk(rho, x, chan, xcheck)
        worst = max(worst, abs(hs - ss) / max(1.0, abs(ss)))
    elapsed = time.perf_counter() - start
    _report("criterion 1: picture equivalence",
            worst <= 1e-10 and elapsed < 10.0,
            f"worst rel gap {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_personick_optimality():
    gen = rng(202)
    start = time.perf_counter()
    worst_perturb = 0.0
    worst_decomp = 0.0
    for _ in range(100):
        d_in = int(gen.integers(2, 7))
        d_out = int(gen.integers(2, 7))
        rho = random_density(gen, d_in)
        x = random_hermitian(gen, d_in)
        chan = random_channel(gen, d_in, d_out)
        result = personick_estimator(rho, x, chan)
        direct = schrodinger_risk(rho, x, chan, result.estimator)
        worst_decomp = max(worst_decomp, abs(direct - result.min_risk))
        for _ in range(50):
            o = random_hermitian(gen, d_out, scale=float(gen.uniform(0.01, 1.0)))
            perturbed = schrodinger_risk(rho, x, chan, result.estimator + o)
            worst_perturb = max(worst_perturb, result.min_risk - perturbed)
    elapsed = time.perf_counter() - start
    _report("criterion 2: optimality of the normal equation",
            worst_perturb <= 1e-9 and worst_decomp <= 1e-9 and elapsed < 30.0,
            f"worst perturbation slack {worst_perturb:.3e}, "
            f"worst risk decomposition gap {worst_decomp:.3e}, {elapsed:.2f}s")


def test_criterion_3_classical_reduction():
    gen = rng(303)
    worst = 0.0
    for _ in range(50):
        n_in = int(gen.integers(2, 7))
        n_out = int(gen.integers(2, 7))
        px = random_probability_vector(gen, n_in)
        xvals = gen.standard_normal(n_in)
        c = random_classical_channel(gen, n_in, n_out)
        est, defined = classical_conditional_expectation(px, c, xvals)
        # brute-force Bayes enumeration oracle
        for y in range(n_out):
            py = sum(c.transition[y, x] * px[x] for x in range(n_in))
            if py <= 1e-12:
                assert not defined[y]
                continue
            bayes = sum(c.transition[y, x] * px[x] * xvals[x]
                        for x in range(n_in)) / py
            worst = max(worst, abs(est[y] - bayes))
        # and the quantum embedding must agree
        q = personick_estimator(np.diag(px.astype(complex)),
                                np.diag(xvals.astype(complex)),
                                channel_from_classical(c))
        worst = max(worst,
                    float(np.abs(np.diag(q.estimator).real[defined] - est[defined]).max()))
    bsc = ClassicalChannel([[0.8, 0.2], [0.2, 0.8]])
    est, _ = classical_conditional_expectation([0.5, 0.5], bsc, [0.0, 1.0])
    bsc_gap = max(abs(est[0] - 0.2), abs(est[1] - 0.8))
    _report("criterion 3: classical reduction",
            worst <= 1e-10 and bsc_gap <= 1e-12,
            f"worst Bayes gap {worst:.3e}, BSC gap {bsc_gap:.3e}")


def test_criterion_4_weak_values():
    gen = rng(404)
    worst_diag = 0.0
    worst_complex = 0.0
    for _ in range(200):
        d = int(gen.choice([2, 3]))
        rho = random_density(gen, d)
        x = random_hermitian(gen, d)
        povm = random_povm(gen, d, int(gen.integers(2, 5)))
        chan = channel_from_povm(povm)
        est = personick_estimator(rho, x, chan).estimator
        for i, label in enumerate(povm.labels):
            wv = weak_value(rho, x, povm, label)
            worst_diag = max(worst_diag, abs(est[i, i].real - wv))
            cwv = complex_weak_value(rho, x, povm, label)
            worst_complex = max(worst_complex, abs(cwv.real - wv))
    _report("criterion 4: weak values",
            worst_diag <= 1e-10 and worst_complex <= 1e-12,
            f"worst estimator-diagonal gap {worst_diag:.3e}, "
            f"worst complex-real gap {worst_complex:.3e}")


def test_criterion_5_qfi_monotonicity():
    gen = rng(505)
    worst_slack = np.inf
    worst_gap = 0.0
    for _ in range(200):
        d_in = int(gen.integers(2, 5))
        d_out = int(gen.integers(2, 5))
        family = fisher.unitary_rotation_family(random_density(gen, d_in),
                                                random_hermitian(gen, d_in))
        chan = random_channel(gen, d_in, d_out)
        rep = fisher.monotonicity_check(family, chan, float(gen.uniform(-0.5, 0.5)))
        worst_slack = min(worst_slack, rep.slack)
        worst_gap = max(worst_gap, abs(rep.slack - rep.personick_risk))
    family = fisher.unitary_rotation_family(random_density(gen, 3),
                                            random_hermitian(gen, 3))
    ident = fisher.monotonicity_check(family, identity_channel(3), 0.2)
    depol = fisher.monotonicity_check(family, depolarizing_channel(3), 0.2)
    line = fisher.diagonal_line_family([0.5, 0.5], [0.5, -0.5])
    fisher_gap = max(abs(fisher.qfi_at(line, 0.0) - 1.0),
                     abs(fisher.qfi_at(line, 0.5) - 1.0 / (1 - 0.25)))
    _report("criterion 5: QFI monotonicity",
            worst_slack >= -1e-8 and worst_gap <= 1e-8
            and abs(ident.slack) <= 1e-10 and depol.j_out <= 1e-10
            and fisher_gap <= 1e-8,
            f"min slack {worst_slack:.3e}, max risk gap {worst_gap:.3e}, "
            f"identity slack {ident.slack:.3e}, depolarized J_out {depol.j_out:.3e}, "
            f"classical Fisher gap {fisher_gap:.3e}")


def test_criterion_6_gaussian_estimator():
    gen = rng(606)
    start = time.perf_counter()
    worst = 0.0
    for n_modes, count in ((1, 50), (2, 20)):
        for _ in range(count):
            wr = random_gaussian_wigner(gen, n_modes)
            we = random_gaussian_wigner(gen, n_modes,
                                        weight=float(gen.uniform(0.3, 2.0)))
            x = random_linear_quadrature(gen, n_modes)
            closed = quadrature_estimator(wr, we, x)
            denom, numer = numeric_wigner_integral([wr, we], x)
            worst = max(worst, abs(numer / denom - closed))
    wr = random_gaussian_wigner(gen, 1)
    flat = GaussianWigner(mean=np.zeros(2), covariance=1e6 * np.eye(2))
    x = LinearQuadrature(coeffs=np.array([1.0, -0.7]), offset=0.3)
    flat_gap = abs(quadrature_estimator(wr, flat, x)
                   - float(x.coeffs @ wr.mean + x.offset))
    elapsed = time.perf_counter() - start
    _report("criterion 6: Gaussian estimator vs numeric oracle",
            worst <= 1e-6 and flat_gap <= 1e-4 and elapsed < 60.0,
            f"worst oracle gap {worst:.3e}, flat-effect gap {flat_gap:.3e}, "
            f"{elapsed:.2f}s")


def test_criterion_7_selftest_determinism():
    first = run_selftest(seed=7)
    second = run_selftest(seed=7)
    identical = json.dumps(first["results"], sort_keys=True) == \
        json.dumps(second["results"], sort_keys=True)
    _report("criterion 7: selftest determinism",
            identical and first["results"]["all_passed"],
            f"all_passed={first['results']['all_passed']}, identical={identical}")
