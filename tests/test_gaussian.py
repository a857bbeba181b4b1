import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qretro import gaussian
from qretro.gaussian import (
    GaussianWigner,
    LinearQuadrature,
    NegligibleOverlap,
    gaussian_product,
    numeric_wigner_integral,
    quadrature_estimator,
)
from qretro.operator_core import ValidationError
from qretro.sampling import random_gaussian_wigner, random_linear_quadrature, rng


def unit(mean=(0.0, 0.0), cov=None, weight=1.0):
    return GaussianWigner(mean=np.asarray(mean, dtype=float),
                          covariance=np.eye(2) if cov is None else np.asarray(cov),
                          weight=weight)


def test_product_of_identical_unit_gaussians():
    product = gaussian_product(unit(), unit())
    np.testing.assert_allclose(product.mean, [0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(product.covariance, np.eye(2) / 2, atol=1e-14)
    # overlap of two standard normals: N(0; 0, 2I) in 2 dimensions
    assert product.weight == pytest.approx(1 / (4 * np.pi), abs=1e-14)


def test_product_with_flat_effect_recovers_state(gen):
    wr = random_gaussian_wigner(gen, 1)
    flat = GaussianWigner(mean=np.zeros(2), covariance=1e6 * np.eye(2))
    product = gaussian_product(wr, flat)
    np.testing.assert_allclose(product.mean, wr.mean, atol=1e-4)
    np.testing.assert_allclose(product.covariance, wr.covariance, atol=1e-4)


def test_product_weight_matches_numeric_integral(gen):
    wr = random_gaussian_wigner(gen, 1)
    we = random_gaussian_wigner(gen, 1, weight=0.7)
    product = gaussian_product(wr, we)
    numeric, _ = numeric_wigner_integral([wr, we])
    assert numeric == pytest.approx(product.weight, rel=1e-6)


def test_product_symmetric_under_swap(gen):
    wr = random_gaussian_wigner(gen, 2)
    we = random_gaussian_wigner(gen, 2, weight=2.0)
    ab = gaussian_product(wr, we)
    ba = gaussian_product(we, wr)
    np.testing.assert_allclose(ab.mean, ba.mean, atol=1e-12)
    np.testing.assert_allclose(ab.covariance, ba.covariance, atol=1e-12)
    assert ab.weight == pytest.approx(ba.weight, rel=1e-12)


def test_estimator_flat_effect_returns_prior_mean(gen):
    wr = random_gaussian_wigner(gen, 1)
    flat = GaussianWigner(mean=np.zeros(2), covariance=1e6 * np.eye(2))
    x = LinearQuadrature(coeffs=np.array([1.0, -0.5]), offset=0.2)
    assert quadrature_estimator(wr, flat, x) == pytest.approx(
        float(x.coeffs @ wr.mean + x.offset), abs=1e-4)


def test_estimator_equal_covariance_midpoint():
    wr = unit(mean=(0.0, 0.0), cov=np.eye(2) / 2)
    we = unit(mean=(2.0, 0.0), cov=np.eye(2) / 2)
    x = LinearQuadrature(coeffs=np.array([1.0, 0.0]))
    assert quadrature_estimator(wr, we, x) == pytest.approx(1.0, abs=1e-12)
    denom, numer = numeric_wigner_integral([wr, we], x)
    assert numer / denom == pytest.approx(1.0, abs=1e-6)


def test_estimator_constant_observable(gen):
    wr = random_gaussian_wigner(gen, 1)
    we = random_gaussian_wigner(gen, 1)
    x = LinearQuadrature(coeffs=np.zeros(2), offset=3.25)
    assert quadrature_estimator(wr, we, x) == 3.25


def test_estimator_affine_equivariance(gen):
    wr = random_gaussian_wigner(gen, 1)
    we = random_gaussian_wigner(gen, 1)
    x = random_linear_quadrature(gen, 1)
    base = quadrature_estimator(wr, we, x)
    scaled = LinearQuadrature(coeffs=2.5 * x.coeffs, offset=x.offset + 1.5)
    assert quadrature_estimator(wr, we, scaled) == pytest.approx(
        2.5 * (base - x.offset) + x.offset + 1.5, abs=1e-12)


def test_estimator_same_gaussian_returns_mean(gen):
    wr = random_gaussian_wigner(gen, 1)
    x = random_linear_quadrature(gen, 1)
    assert quadrature_estimator(wr, wr, x) == pytest.approx(
        float(x.coeffs @ wr.mean + x.offset), abs=1e-10)


def test_estimator_weights_cancel(gen):
    wr = random_gaussian_wigner(gen, 1)
    we = random_gaussian_wigner(gen, 1)
    heavy = GaussianWigner(mean=we.mean, covariance=we.covariance, weight=7.3)
    x = random_linear_quadrature(gen, 1)
    assert quadrature_estimator(wr, we, x) == pytest.approx(
        quadrature_estimator(wr, heavy, x), abs=1e-12)


def test_estimator_negligible_overlap():
    wr = unit(mean=(0.0, 0.0), cov=np.eye(2) * 0.01)
    we = unit(mean=(100.0, 0.0), cov=np.eye(2) * 0.01)
    with pytest.raises(NegligibleOverlap):
        quadrature_estimator(wr, we, LinearQuadrature(coeffs=np.array([1.0, 0.0])))


def test_numeric_integral_normalization():
    assert numeric_wigner_integral([unit()])[0] == pytest.approx(1.0, abs=1e-8)


def test_numeric_integral_first_moment(gen):
    wr = random_gaussian_wigner(gen, 1)
    x = LinearQuadrature(coeffs=np.array([1.0, 0.0]))
    assert numeric_wigner_integral([wr], x)[1] == pytest.approx(wr.mean[0], abs=1e-8)


@pytest.mark.parametrize("n_modes, points", [(1, 101), (2, 21)])
def test_numeric_integral_without_quadrature_returns_one_float_twice(gen, n_modes,
                                                                     points):
    w_list = [random_gaussian_wigner(gen, n_modes), random_gaussian_wigner(gen, n_modes)]
    mass, moment = _oracle(w_list, points_per_axis=points)
    assert mass == moment


def test_numeric_matches_closed_form_one_mode(gen):
    for _ in range(5):
        wr = random_gaussian_wigner(gen, 1)
        we = random_gaussian_wigner(gen, 1, weight=float(gen.uniform(0.3, 2.0)))
        x = random_linear_quadrature(gen, 1)
        closed = quadrature_estimator(wr, we, x)
        denom, numer = numeric_wigner_integral([wr, we], x)
        ratio = numer / denom
        assert ratio == pytest.approx(closed, abs=1e-6)


def test_numeric_matches_closed_form_two_modes(gen):
    for _ in range(2):
        wr = random_gaussian_wigner(gen, 2)
        we = random_gaussian_wigner(gen, 2)
        x = random_linear_quadrature(gen, 2)
        closed = quadrature_estimator(wr, we, x)
        denom, numer = numeric_wigner_integral([wr, we], x)
        ratio = numer / denom
        assert ratio == pytest.approx(closed, abs=1e-6)


def test_numeric_integral_rejects_many_modes():
    w = GaussianWigner(mean=np.zeros(6), covariance=np.eye(6))
    with pytest.raises(ValidationError):
        numeric_wigner_integral([w])


def test_gaussian_validation():
    with pytest.raises(ValidationError):
        GaussianWigner(mean=np.zeros(3), covariance=np.eye(3))  # odd dimension
    with pytest.raises(ValidationError):
        GaussianWigner(mean=np.zeros(2), covariance=-np.eye(2))
    with pytest.raises(ValidationError):
        GaussianWigner(mean=np.zeros(2), covariance=np.eye(2), weight=0.0)
    with pytest.raises(ValidationError):
        GaussianWigner(mean=np.zeros(2),
                       covariance=np.array([[1.0, 0.5], [0.1, 1.0]]))


@pytest.mark.parametrize("mean, cov, weight", [
    ([np.nan, 0.0], np.eye(2), 1.0),
    ([np.inf, 0.0], np.eye(2), 1.0),
    ([0.0, -np.inf], np.eye(2), 1.0),
    ([0.0, 0.0], [[np.nan, 0.0], [0.0, 1.0]], 1.0),
    ([0.0, 0.0], [[1.0, np.inf], [np.inf, 1.0]], 1.0),
    ([0.0, 0.0], np.eye(2), np.inf),
    ([0.0, 0.0], np.eye(2), np.nan),
])
def test_gaussian_rejects_non_finite_input(mean, cov, weight):
    with pytest.raises(ValidationError, match="^finite:"):
        GaussianWigner(mean=mean, covariance=cov, weight=weight)


def test_numeric_integral_rejects_malformed_input():
    one, two = unit(), GaussianWigner(mean=np.zeros(4), covariance=np.eye(4))
    with pytest.raises(ValidationError):
        numeric_wigner_integral([])
    with pytest.raises(ValidationError):
        numeric_wigner_integral([one, two])
    with pytest.raises(ValidationError):
        numeric_wigner_integral([two], LinearQuadrature(coeffs=np.ones(2)))
    with pytest.raises(ValidationError):
        numeric_wigner_integral([one], points_per_axis=1)


# --- the grid oracle against a brute-force reference -------------------------

def brute_force_grid(w_list, points_per_axis, half_width_sigmas=8.0):
    """The grid axes, the stacked (..., 2n) grid points and Π W_i at each point,
    one density at a time."""
    dim = w_list[0].mean.size
    axes = []
    for i in range(dim):
        half = [half_width_sigmas * np.sqrt(w.covariance[i, i]) for w in w_list]
        axes.append(np.linspace(min(w.mean[i] - h for w, h in zip(w_list, half)),
                                max(w.mean[i] + h for w, h in zip(w_list, half)),
                                points_per_axis))
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vals = np.ones(pts.shape[:-1])
    for w in w_list:
        delta = pts - w.mean
        expo = -0.5 * np.einsum("...i,ij,...j->...", delta,
                                np.linalg.inv(w.covariance), delta)
        norm = (2 * np.pi) ** (dim / 2) * np.sqrt(np.linalg.det(w.covariance))
        vals = vals * w.weight * np.exp(expo) / norm
    return axes, pts, vals


def brute_force_integral(w_list, x, points_per_axis, half_width_sigmas=8.0):
    """Trapezoid rule over the brute-force grid.

    Returns the integral and the integral of its absolute value.
    """
    axes, pts, vals = brute_force_grid(w_list, points_per_axis, half_width_sigmas)
    if x is not None:
        vals = vals * (pts @ x.coeffs + x.offset)
    total, magnitude = vals, np.abs(vals)
    for axis in reversed(axes):
        total = np.trapezoid(total, axis, axis=-1)
        magnitude = np.trapezoid(magnitude, axis, axis=-1)
    return float(total), float(magnitude)


def _oracle(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return numeric_wigner_integral(*args, **kwargs)


def narrowed(w_list, shrink):
    """The state and its effects, the effects' covariances divided by `shrink`.

    An effect 10–100× narrower than the state makes the product narrower than
    the grid, and the oracle then skips most of the grid's lines."""
    return w_list[:1] + [GaussianWigner(mean=w.mean, covariance=w.covariance / shrink,
                                        weight=w.weight) for w in w_list[1:]]


SHRINK = st.sampled_from([1.0]) | st.floats(10.0, 100.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_modes=st.sampled_from([1, 2]),
       count=st.integers(1, 3), with_x=st.booleans(),
       points=st.integers(9, 31), half_width=st.floats(2.0, 8.0), shrink=SHRINK)
def test_numeric_integral_matches_brute_force(seed, n_modes, count, with_x,
                                              points, half_width, shrink):
    gen = rng(seed)
    w_list = narrowed([random_gaussian_wigner(gen, n_modes,
                                              weight=float(gen.uniform(0.3, 2.0)))
                       for _ in range(count)], shrink)
    x = random_linear_quadrature(gen, n_modes) if with_x else None
    # the pair (∫ΠW, ∫ΠW·X), each against its own brute-force integral
    for got, factor in zip(_oracle(w_list, x, points, half_width), (None, x)):
        total, magnitude = brute_force_integral(w_list, factor, points, half_width)
        assert abs(got - total) <= 1e-12 * magnitude


@pytest.mark.parametrize("tile_points, tile_rows", [(5, 1), (64, 8), (1000, 8)])
@pytest.mark.parametrize("n_modes, points", [(1, 13), (2, 9)])
def test_numeric_integral_uneven_tiles(monkeypatch, gen, tile_points, tile_rows,
                                       n_modes, points):
    # tiles that split the grid's rows or its inner points unevenly
    monkeypatch.setattr(gaussian, "_TILE_POINTS", tile_points)
    monkeypatch.setattr(gaussian, "_TILE_ROWS", tile_rows)
    w_list = [random_gaussian_wigner(gen, n_modes), random_gaussian_wigner(gen, n_modes)]
    x = random_linear_quadrature(gen, n_modes)
    for xx in (x, None):
        for got, factor in zip(_oracle(w_list, xx, points), (None, xx)):
            total, magnitude = brute_force_integral(w_list, factor, points)
            assert abs(got - total) <= 1e-12 * magnitude


def test_numeric_integral_default_tiles_uneven(gen):
    # the default one-mode grid, 801 rows of 801 points, fills the default
    # tiles of whole rows unevenly
    assert 801 % (gaussian._TILE_POINTS // 801) and gaussian._TILE_POINTS // 801 > 1
    wr = random_gaussian_wigner(gen, 1)
    x = random_linear_quadrature(gen, 1)
    total, magnitude = brute_force_integral([wr], x, 801)
    assert abs(numeric_wigner_integral([wr], x)[1] - total) <= 1e-12 * magnitude


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_modes=st.sampled_from([1, 2]),
       count=st.integers(1, 2), points=st.integers(9, 25),
       half_width=st.floats(2.0, 8.0), offset=st.floats(-4.0, 4.0), shrink=SHRINK)
# draws where only one test trips: the ∫ΠW test in the first two, the ∫ΠW·X
# test in the third
@example(seed=147, n_modes=1, count=2, points=14, half_width=3.9, offset=-4.0,
         shrink=1.0)
@example(seed=886, n_modes=2, count=2, points=18, half_width=3.7, offset=3.4,
         shrink=1.0)
@example(seed=703, n_modes=1, count=1, points=15, half_width=6.7, offset=3.5,
         shrink=1.0)
def test_truncation_warning_matches_brute_force_faces(seed, n_modes, count, points,
                                                      half_width, offset, shrink):
    # one pass warns exactly when either integral's face test trips:
    # edge·cell > 1e-9·|∫ΠW·X| with |X| on the faces, or the same for ∫ΠW
    gen = rng(seed)
    w_list = narrowed([random_gaussian_wigner(gen, n_modes,
                                              weight=float(gen.uniform(0.3, 2.0)))
                       for _ in range(count)], shrink)
    x = LinearQuadrature(coeffs=random_linear_quadrature(gen, n_modes).coeffs,
                         offset=offset)
    axes, pts, vals = brute_force_grid(w_list, points, half_width)
    on_face = np.zeros(vals.shape, dtype=bool)
    for k in range(vals.ndim):
        on_face[(slice(None),) * k + ([0, -1],)] = True
    face, face_x = vals[on_face], pts[on_face] @ x.coeffs + x.offset
    cell = float(np.prod([a[1] - a[0] for a in axes]))
    floor = max(w.weight for w in w_list) * 1e-30
    trips = []
    for edge, factor in ((np.abs(face * face_x).max(), x), (face.max(), None)):
        total, _ = brute_force_integral(w_list, factor, points, half_width)
        ratio = edge * cell / (1e-9 * max(abs(total), floor))
        assume(abs(ratio - 1.0) > 1e-6)  # clear of the threshold
        trips.append(ratio > 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        numeric_wigner_integral(w_list, x, points, half_width)
    assert any("truncation" in str(w.message) for w in caught) == any(trips)


@pytest.mark.parametrize("n_modes, points", [(1, None), (2, 41)])
def test_numeric_integral_skips_negligible_lines(monkeypatch, n_modes, points):
    # a product narrower than the grid: the entries of the exponent products
    # count the points read, fewer than half of the grid's, and reading them
    # all instead moves neither integral beyond summation order
    gen = rng(5)
    w_list = narrowed([random_gaussian_wigner(gen, n_modes),
                       random_gaussian_wigner(gen, n_modes)], 30.0)
    x = random_linear_quadrature(gen, n_modes)
    read, matmul = [], np.matmul

    def counting_matmul(a, b, out=None):
        read.append(a.shape[0] * b.shape[1])
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", counting_matmul)
    mass, moment = numeric_wigner_integral(w_list, x, points)
    monkeypatch.undo()
    assert 0 < sum(read) < (points or 801) ** (2 * n_modes) / 2
    monkeypatch.setattr(gaussian, "_SKIP_BELOW", np.inf)
    assert numeric_wigner_integral(w_list, x, points) == pytest.approx(
        (mass, moment), rel=1e-12)


def test_numeric_integral_coarse_grid_reference_peak():
    # on a 9-point grid a narrow tilted effect, exp(−½[a·q² + c·(p − 1 − s·q)²]),
    # puts the vertex of the line q = 0 between two grid points and those of
    # q = ±2 on grid points: the continuous maximum overshoots the grid's peak
    # by more than _SKIP_BELOW, so lines are skipped relative to a value the
    # grid attains, or the lines that hold the integrals would be skipped
    a, c, s = 40.0, 1000.0, 0.5
    effect = GaussianWigner(mean=np.array([0.0, 1.0]), covariance=np.linalg.inv(
        [[a + c * s * s, -c * s], [-c * s, c]]))
    w_list = [unit(), effect]
    x = LinearQuadrature(coeffs=np.array([1.0, -0.5]), offset=0.3)
    product = gaussian_product(*w_list)
    peak = product.weight / (2 * np.pi * np.sqrt(np.linalg.det(product.covariance)))
    _, _, vals = brute_force_grid(w_list, 9)
    assert np.log(peak / vals.max()) > gaussian._SKIP_BELOW
    for got, factor in zip(_oracle(w_list, x, 9), (None, x)):
        total, magnitude = brute_force_integral(w_list, factor, 9)
        assert abs(got - total) <= 1e-12 * magnitude


@pytest.mark.parametrize("axis, skip_below",
                         [pytest.param(a, None, id=str(a)) for a in range(4)]
                         + [pytest.param(a, 1.0, id=f"{a}-skip-1") for a in range(4)])
def test_truncation_warning_on_every_face(monkeypatch, axis, skip_below):
    # a steep linear factor along one axis lifts the integrand on that
    # axis's two faces above the truncation threshold; with lines skipped
    # from 1 below the peak, the faces of the first three axes lie on
    # skipped lines, whose face values must still be read
    if skip_below is not None:
        monkeypatch.setattr(gaussian, "_SKIP_BELOW", skip_below)
    g = GaussianWigner(mean=np.zeros(4), covariance=np.eye(4))
    x = LinearQuadrature(coeffs=10.0 * np.eye(4)[axis], offset=1.0)
    for half_width in (5.3, 5.45, 5.6):
        with pytest.warns(UserWarning, match="truncation"):
            numeric_wigner_integral([g], x, points_per_axis=41,
                                    half_width_sigmas=half_width)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        numeric_wigner_integral([g], x, points_per_axis=41, half_width_sigmas=8.0)


@pytest.mark.parametrize("make", [
    lambda: unit(),
    lambda: LinearQuadrature(coeffs=np.array([1.0, 0.0]), offset=0.5),
])
def test_array_dataclasses_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and {a, b} == {a, b}
