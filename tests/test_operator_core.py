import warnings

import numpy as np
import pytest

from conftest import SX, SY, SZ
from qretro import operator_core as core
from qretro.channels import ClassicalChannel, depolarizing_channel
from qretro.estimators import classical_conditional_expectation
from qretro.fisher import (
    depolarizing_mixture_family,
    diagonal_exponential_family,
    diagonal_line_family,
    monotonicity_check,
    sld,
)
from qretro.gaussian import GaussianWigner, LinearQuadrature
from qretro.operator_core import ValidationError
from qretro.sampling import random_hermitian, random_psd, random_density


def test_jordan_identity_case():
    x = random_hermitian(np.random.default_rng(0), 3)
    np.testing.assert_allclose(core.jordan_product(np.eye(3), x), x, atol=1e-15)


def test_jordan_pauli_anticommutation():
    np.testing.assert_allclose(core.jordan_product(SX, SY), np.zeros((2, 2)), atol=1e-15)


def test_jordan_matches_direct_product(gen):
    a = random_hermitian(gen, 4)
    b = random_hermitian(gen, 4)
    np.testing.assert_allclose(core.jordan_product(a, b), (a @ b + b @ a) / 2,
                               atol=1e-14)


def test_jordan_dimension_mismatch():
    with pytest.raises(ValidationError):
        core.jordan_product(np.eye(2), np.eye(3))


def test_require_fit_takes_a_scalar_need():
    assert core.require_fit(w=(np.asarray(2.0), ())) == ()
    with pytest.raises(ValidationError, match=r"^shape: got w \(1,\); need w \(\)$"):
        core.require_fit(w=(np.ones(1), ()))


def test_jordan_trace_gap_names_a_non_finite_x():
    with pytest.raises(ValidationError, match="^finite: x contains NaN"):
        core.jordan_trace_gap([[np.nan, 0], [0, 1]], np.eye(2), np.eye(2))


def test_jordan_hermitian_closure(gen):
    for _ in range(50):
        d = int(gen.integers(2, 9))
        j = core.jordan_product(random_hermitian(gen, d), random_hermitian(gen, d))
        scale = max(1.0, float(np.abs(j).max()))
        assert np.abs(j - j.conj().T).max() <= 1e-13 * scale


def test_trace_identity_trivials():
    assert core.jordan_trace_gap(np.eye(2), np.eye(2), np.eye(2)) == 0.0
    assert core.jordan_trace_gap(SZ, SX, SY) <= 1e-15


def test_trace_identity_random_triples(gen):
    for _ in range(200):
        d = int(gen.integers(2, 9))
        x, y, z = (random_hermitian(gen, d) for _ in range(3))
        scale = np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z)
        assert core.jordan_trace_gap(x, y, z) <= 1e-12 * scale


def test_tensor_identities():
    np.testing.assert_allclose(core.tensor(np.eye(2), np.eye(3)), np.eye(6))
    np.testing.assert_allclose(
        core.tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
        np.diag([0.0, 1.0, 0.0, 0.0]),
    )


def test_tensor_index_formula_oracle(gen):
    a = random_hermitian(gen, 2) + 1j * 0
    b = random_hermitian(gen, 3)
    out = core.tensor(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(3):
                for l in range(3):
                    assert out[3 * i + k, 3 * j + l] == pytest.approx(a[i, j] * b[k, l])


def test_partial_trace_factorizes(gen):
    a = random_density(gen, 2)
    b = random_hermitian(gen, 3)
    prod = core.tensor(a, b)
    np.testing.assert_allclose(core.partial_trace(prod, [2, 3], {0}),
                               a * np.trace(b), atol=1e-13)
    np.testing.assert_allclose(core.partial_trace(prod, [2, 3], {1}),
                               b * np.trace(a), atol=1e-13)


def test_partial_trace_bell_state():
    from conftest import BELL
    np.testing.assert_allclose(core.partial_trace(BELL, [2, 2], {0}),
                               np.eye(2) / 2, atol=1e-15)


def test_partial_trace_definition_sum_oracle(gen):
    m = random_density(gen, 6)
    np.testing.assert_allclose(core.partial_trace(m, [2, 3], {0, 1}), m, atol=1e-15)
    # keep subsystem 0: explicit index-sum over the traced factor
    expected = np.zeros((2, 2), dtype=complex)
    t = m.reshape(2, 3, 2, 3)
    for e in range(3):
        expected += t[:, e, :, e]
    np.testing.assert_allclose(core.partial_trace(m, [2, 3], {0}), expected, atol=1e-15)
    for keep in ({0}, {1}):
        marg = core.partial_trace(m, [2, 3], keep)
        assert np.trace(marg) == pytest.approx(1.0, abs=1e-13)


def test_partial_trace_errors():
    with pytest.raises(ValidationError):
        core.partial_trace(np.eye(6), [2, 2], {0})
    with pytest.raises(ValidationError):
        core.partial_trace(np.eye(6), [2, 3], set())


def test_eig_hermitian_trivials():
    np.testing.assert_allclose(core.eig_hermitian(np.eye(3)).eigenvalues, [1, 1, 1])
    np.testing.assert_allclose(core.eig_hermitian(SZ).eigenvalues, [-1, 1])


def test_eig_hermitian_reconstruction(gen):
    h = random_hermitian(gen, 6)
    spec = core.eig_hermitian(h)
    v = spec.eigenvectors
    np.testing.assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-12)
    assert np.linalg.norm(v @ np.diag(spec.eigenvalues) @ v.conj().T - h) <= 1e-10


def test_solve_jordan_identity_case(gen):
    h = random_hermitian(gen, 4)
    x, residual = core.solve_jordan(np.eye(4), h)
    np.testing.assert_allclose(x, h, atol=1e-13)
    assert residual <= 1e-12


def test_solve_jordan_diagonal_case():
    x, residual = core.solve_jordan(np.diag([2.0, 2.0]), np.diag([4.0, 6.0]))
    np.testing.assert_allclose(x, np.diag([2.0, 3.0]), atol=1e-13)
    assert residual <= 1e-12


def _vectorized_jordan_solve(a, b):
    # independent oracle: a∘x = b as a dense linear system over vec(x),
    # vec(AXB) = (A ⊗ Bᵀ) vec(X) in row-major convention
    d = a.shape[0]
    superop = (np.kron(a, np.eye(d)) + np.kron(np.eye(d), a.T)) / 2
    return np.linalg.solve(superop, b.reshape(-1)).reshape(d, d)


def test_solve_jordan_vs_dense_linear_oracle(gen):
    a = random_psd(gen, 5) + 0.2 * np.eye(5)
    b = random_hermitian(gen, 5)
    x, residual = core.solve_jordan(a, b)
    assert residual <= 1e-10 * max(1.0, np.linalg.norm(b))
    np.testing.assert_allclose(x, _vectorized_jordan_solve(a, b), atol=1e-9)
    # Hermitian by construction
    assert np.abs(x - x.conj().T).max() == 0.0


def test_solve_jordan_rejects_indefinite():
    with pytest.raises(ValidationError):
        core.solve_jordan(np.diag([1.0, -1.0]), np.eye(2))


def test_support_projector_cases(gen):
    np.testing.assert_allclose(core.support_projector(np.eye(3)), np.eye(3), atol=1e-13)
    np.testing.assert_allclose(core.support_projector(np.diag([1.0, 0.0])),
                               np.diag([1.0, 0.0]), atol=1e-13)
    h = random_psd(gen, 4, rank=2)
    p = core.support_projector(h)
    assert core.support_rank(h) == 2
    assert np.trace(p).real == pytest.approx(2.0, abs=1e-10)
    assert np.abs(p @ p - p).max() <= 1e-12


def test_pseudo_inverse_cases(gen):
    np.testing.assert_allclose(core.pseudo_inverse_psd(np.eye(3)), np.eye(3),
                               atol=1e-13)
    np.testing.assert_allclose(core.pseudo_inverse_psd(np.diag([2.0, 0.0])),
                               np.diag([0.5, 0.0]), atol=1e-13)
    h = random_psd(gen, 5, rank=3)
    hplus = core.pseudo_inverse_psd(h)
    assert np.abs(h @ hplus @ h - h).max() <= 1e-10 * max(1.0, np.abs(h).max())
    np.testing.assert_allclose(h @ hplus, core.support_projector(h), atol=1e-10)


def test_handed_spectrum_skips_the_eigensolve(gen, monkeypatch):
    # a caller's Spectrum gives the same bytes as the function's own eigh
    a = random_psd(gen, 4, rank=3)
    b = random_hermitian(gen, 4)
    spec = core.eig_hermitian(a)
    x, residual = core.solve_jordan(a, b)
    hplus = core.pseudo_inverse_psd(a)

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    x2, residual2 = core.solve_jordan(a, core.hermitian_part(b), spectrum=spec)
    assert np.array_equal(x, x2) and residual == residual2
    assert np.array_equal(hplus, core.pseudo_inverse_psd(a, spectrum=spec))


@pytest.mark.parametrize("m", [np.diag([0.6, 0.6]), np.diag([1.2, -0.2]),
                               np.array([[0.5, 0.1], [0.0, 0.5]])])
def test_density_with_spectrum_checks_as_as_density(m):
    with pytest.raises(ValidationError) as plain:
        core.as_density(m)
    with pytest.raises(ValidationError) as spectral:
        core._density_with_spectrum(m)
    assert spectral.value.invariant == plain.value.invariant


def test_density_with_spectrum_returns_the_checked_state(gen):
    m = random_density(gen, 3)
    rho, spec = core._density_with_spectrum(m)
    assert np.array_equal(rho, core.as_density(m))
    v = spec.eigenvectors
    np.testing.assert_allclose(v @ np.diag(spec.eigenvalues) @ v.conj().T, rho, atol=1e-14)


def test_as_hermitian_repairs_small_asymmetry(gen):
    h = random_hermitian(gen, 3)
    noisy = h + 1e-13 * (np.triu(np.ones((3, 3)), 1))
    out = core.as_hermitian(noisy)
    assert np.abs(out - out.conj().T).max() == 0.0
    with pytest.raises(ValidationError):
        core.as_hermitian(h + 1e-6 * np.triu(np.ones((3, 3)), 1))


def test_as_density_validation():
    with pytest.raises(ValidationError):
        core.as_density(np.diag([0.9, 0.2]))  # trace != 1
    with pytest.raises(ValidationError):
        core.as_density(np.diag([1.5, -0.5]))  # not PSD
    with pytest.raises(ValidationError):
        core.as_density(np.array([[np.nan, 0], [0, 1]]))


def test_asymmetry_of_1e_8_is_not_hermitian():
    # HERMITICITY_TOL (1e-10) repairs rounding, not an asymmetry of 1e-8
    with pytest.raises(ValidationError, match="^hermiticity:"):
        core.as_hermitian([[1.0, 1e-8], [0.0, 1.0]])


@pytest.mark.parametrize("power, limit", [(2, 4096), (3, 256), (4, 64)])
def test_require_size_accepts_its_limit_and_not_one_more(power, limit):
    # MAX_ENTRIES = 2^24 = 4096² = 256³ = 64⁴; nothing is allocated
    core.require_size("d", limit, power)
    with pytest.raises(ValidationError, match=f"^size: d exceeds {limit}:"):
        core.require_size("d", limit + 1, power)


def test_state_with_eigenvalue_minus_1e_6_is_not_psd():
    # PSD_TOL (1e-10) forgives rounding, not a negative eigenvalue of 1e-6
    with pytest.raises(ValidationError, match="^psd:"):
        core.as_density(np.diag([1 + 1e-6, -1e-6]))


@pytest.mark.parametrize("check", [core.as_square, core.as_hermitian, core.as_density])
@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
def test_zero_size_matrices_are_rejected(check, shape):
    with pytest.raises(ValidationError, match="^shape:"):
        check(np.zeros(shape))


def test_embed():
    out = core.embed(SZ, [2, 3, 2], 0)
    np.testing.assert_allclose(out, core.tensor(core.tensor(SZ, np.eye(3)), np.eye(2)))
    out = core.embed(SX, [2, 2], 1)
    np.testing.assert_allclose(out, core.tensor(np.eye(2), SX))


LINE = diagonal_line_family([0.5, 0.5], [0.1, -0.1])
VACUUM = np.eye(2) / 2
# each numeric slot of the library as (a call with `value` in the slot, a
# value the slot takes)
ENTRY_SLOTS = {
    "mean": (lambda value: GaussianWigner(value, VACUUM), [0.0, 0.0]),
    "covariance": (lambda value: GaussianWigner([0.0, 0.0], value), VACUUM),
    "weight": (lambda value: GaussianWigner([0.0, 0.0], VACUUM, value), 1.0),
    "coeffs": (lambda value: LinearQuadrature(value), [1.0, 0.0]),
    "offset": (lambda value: LinearQuadrature([1.0, 0.0], value), 0.0),
    "transition": (ClassicalChannel, np.eye(2)),
    "px": (lambda value: classical_conditional_expectation(
        value, ClassicalChannel(np.eye(2)), [1.0, -1.0]), [0.5, 0.5]),
    "xvals": (lambda value: classical_conditional_expectation(
        [0.5, 0.5], ClassicalChannel(np.eye(2)), value), [1.0, -1.0]),
    "line-p0": (lambda value: diagonal_line_family(value, [0.1, -0.1]), [0.5, 0.5]),
    "slope": (lambda value: diagonal_line_family([0.5, 0.5], value), [0.1, -0.1]),
    "exponential-p0": (lambda value: diagonal_exponential_family(value, [1.0, -1.0]),
                       [0.5, 0.5]),
    "weights": (lambda value: diagonal_exponential_family([0.5, 0.5], value), [1.0, -1.0]),
    "p": (lambda value: depolarizing_mixture_family(LINE, value), 0.5),
    "sld-theta": (lambda value: sld(LINE, value), 0.1),
    "check-theta": (lambda value: monotonicity_check(LINE, depolarizing_channel(2), value),
                    0.1),
}
COMPLEX = object()  # the slot's accepted value made complex


@pytest.mark.parametrize("value", [None, True, "1.5", ["1.5", "0"], COMPLEX, 10**400],
                         ids=["None", "True", "str", "str-list", "complex", "1e400"])
@pytest.mark.parametrize("slot", ENTRY_SLOTS)
def test_entry_rule_refuses_what_is_not_a_real_number(slot, value):
    call, accepted = ENTRY_SLOTS[slot]
    if value is COMPLEX:
        value = np.asarray(accepted) + 1j
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's ComplexWarning on a cast, say
        call(accepted)
        with pytest.raises(ValidationError):
            call(value)
