import contextlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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
    with pytest.raises(ValidationError, match="^shape:"):
        quadrature_estimator(wr, we, LinearQuadrature(coeffs=np.zeros(4)))


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


@pytest.mark.parametrize("weight", [1.0, 1e-9, 1e-11, 1e-12])
def test_overlap_floor_ignores_the_effect_weight(weight):
    # a vacuum effect displaced by 0.3 from the vacuum state: the effect's
    # weight cancels in the estimate and scales the product's weight, and
    # the overlap floor tests neither
    x = LinearQuadrature(coeffs=np.array([1.0, 0.0]))
    vacuum = unit(cov=np.eye(2) / 2)
    effect = unit(mean=(0.3, 0.0), cov=np.eye(2) / 2, weight=weight)
    assert quadrature_estimator(vacuum, effect, x) == pytest.approx(0.15, abs=1e-15)
    assert gaussian_product(vacuum, effect).weight == pytest.approx(
        weight * np.exp(-0.045) / (2 * np.pi), rel=1e-14)


def test_estimator_of_factors_whose_weight_underflows():
    # a vacuum state and a vacuum effect displaced by 0.3, each of weight
    # 1e-200: their product's weight, 1e-400·e^-0.045/2π, underflows, and
    # the estimate does not need it
    x = LinearQuadrature(coeffs=np.array([1.0, 0.0]))
    vacuum = unit(cov=np.eye(2) / 2, weight=1e-200)
    effect = unit(mean=(0.3, 0.0), cov=np.eye(2) / 2, weight=1e-200)
    assert quadrature_estimator(vacuum, effect, x) == pytest.approx(0.15, abs=1e-15)


@pytest.mark.parametrize("weight", [1e-200, 1e200, 1e-160])
def test_product_weight_out_of_the_normal_floats_is_a_range_error(weight):
    # 1e-400, 1e400 and 1e-320 times e^-0.045/2π: zero, infinite and a
    # subnormal of about three significant digits, each a fault of the
    # product, not of the positive, finite weights it was made from
    vacuum = unit(cov=np.eye(2) / 2, weight=weight)
    effect = unit(mean=(0.3, 0.0), cov=np.eye(2) / 2, weight=weight)
    with pytest.raises(ValidationError, match="^range: product weight .* is not a positive "
                                              "normal float$"):
        gaussian_product(vacuum, effect)


@pytest.mark.parametrize("n_modes", [1, 2])
def test_estimator_is_x_at_the_product_mean(gen, n_modes):
    # the estimator reads the mean without building the product, and it is
    # the product's mean to the last bit
    wr = random_gaussian_wigner(gen, n_modes)
    we = random_gaussian_wigner(gen, n_modes, weight=0.4)
    x = random_linear_quadrature(gen, n_modes)
    assert quadrature_estimator(wr, we, x) == x.at(gaussian_product(wr, we).mean)


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
    # NaN is `finite` before any shape check
    ([[np.nan, 0.0]], np.eye(2), 1.0),
    ([0.0, 0.0], [[np.inf]], 1.0),
    ([0.0, 0.0], np.eye(2), [np.inf, 1.0]),
])
def test_gaussian_rejects_non_finite_input(mean, cov, weight):
    with pytest.raises(ValidationError, match="^finite:"):
        GaussianWigner(mean=mean, covariance=cov, weight=weight)


@pytest.mark.parametrize("call, message", [
    (lambda: GaussianWigner([[0.0, 0.0]], np.eye(2)),
     "got mean (1, 2), covariance (2, 2), weight (); need mean (2,), covariance (2, 2), weight ()"),
    (lambda: GaussianWigner([0.0, 0.0], np.eye(4)),
     "got mean (2,), covariance (4, 4), weight (); need mean (2,), covariance (2, 2), weight ()"),
    (lambda: GaussianWigner([0.0, 0.0], np.eye(2), [1.0]),
     "got mean (2,), covariance (2, 2), weight (1,); need mean (2,), covariance (2, 2), weight ()"),
    (lambda: LinearQuadrature([[1.0, 0.0]]),
     "got coeffs (1, 2), offset (); need coeffs (2,), offset ()"),
    (lambda: LinearQuadrature([1.0, 0.0], [0.5]),
     "got coeffs (2,), offset (1,); need coeffs (2,), offset ()"),
    (lambda: quadrature_estimator(unit(), unit(), LinearQuadrature(np.ones(4))),
     "got coeffs (4,); need coeffs (2,)"),
    (lambda: gaussian_product(unit(), GaussianWigner(np.zeros(4), np.eye(4))),
     "got state_mean (2,), effect_mean (4,); need state_mean (2,), effect_mean (2,)"),
    (lambda: numeric_wigner_integral([unit(), GaussianWigner(np.zeros(4), np.eye(4))]),
     "got w_list[0].mean (2,), w_list[1].mean (4,); need w_list[0].mean (2,), w_list[1].mean (2,)"),
    (lambda: numeric_wigner_integral([unit()], LinearQuadrature(np.ones(3))),
     "got w_list[0].mean (2,), x.coeffs (3,); need w_list[0].mean (2,), x.coeffs (2,)"),
], ids=["mean-2d", "covariance", "weight", "coeffs-2d", "offset", "estimate-length",
        "product-modes", "oracle-modes", "oracle-length"])
def test_gaussian_shapes_are_one_fit_error(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == f"shape: {message}"


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


@pytest.mark.parametrize("n_modes, points, message", [
    (1, "a", "size: points_per_axis must be an integer >= 1, got str"),
    (1, 2.5, "size: points_per_axis must be an integer >= 1, got float"),
    (1, True, "size: points_per_axis must be an integer >= 1, got bool"),
    (1, 0, "size: points_per_axis must be an integer >= 1, got 0"),
    (1, 1, "grid: need at least 2 points per axis, got 1"),
    (1, 2**24 + 1, "size: points_per_axis exceeds 16777216: "),
    (2, 257, "size: points_per_axis exceeds 256: "),
])
def test_numeric_integral_points_per_axis_is_a_size(n_modes, points, message):
    # one plane of n^(2·n_modes − 1) points is the largest array the oracle holds
    w = GaussianWigner(mean=np.zeros(2 * n_modes), covariance=np.eye(2 * n_modes))
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
        numeric_wigner_integral([w], points_per_axis=points)


# --- the grid oracle against a brute-force reference -------------------------

def brute_force_grid(w_list, points_per_axis, half_width=8.0):
    """The grid axes, the stacked (..., 2n) grid points and Π W_i at each point,
    one density at a time."""
    dim = w_list[0].mean.size
    axes = []
    for i in range(dim):
        half = [half_width * np.sqrt(w.covariance[i, i]) for w in w_list]
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


def brute_force_integral(w_list, x, points_per_axis, half_width=8.0):
    """Trapezoid rule over the brute-force grid.

    Returns the integral and the integral of its absolute value.
    """
    axes, pts, vals = brute_force_grid(w_list, points_per_axis, half_width)
    if x is not None:
        vals = vals * (pts @ x.coeffs + x.offset)
    total, magnitude = vals, np.abs(vals)
    for axis in reversed(axes):
        total = np.trapezoid(total, axis, axis=-1)
        magnitude = np.trapezoid(magnitude, axis, axis=-1)
    return float(total), float(magnitude)


@contextlib.contextmanager
def grid_half_width(sigmas):
    """The oracle's grid spans ±`sigmas` standard deviations inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gaussian, "_HALF_WIDTH", sigmas)
        yield


def _oracle(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return numeric_wigner_integral(*args, **kwargs)


@contextlib.contextmanager
def points_read():
    """The grid points the oracle reads, one entry per exponent product: a
    tile's product has one entry per point."""
    read, matmul = [], np.matmul

    def counting_matmul(a, b, out=None):
        read.append(a.shape[0] * b.shape[1])
        return matmul(a, b, out=out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "matmul", counting_matmul)
        yield read


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
    with grid_half_width(half_width):
        got_pair = _oracle(w_list, x, points)
    for got, factor in zip(got_pair, (None, x)):
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
    # the largest one-mode grid, 801 rows of 801 points, fills the default
    # tiles of whole rows unevenly
    assert 801 % (gaussian._TILE_POINTS // 801) and gaussian._TILE_POINTS // 801 > 1
    wr = random_gaussian_wigner(gen, 1)
    x = random_linear_quadrature(gen, 1)
    total, magnitude = brute_force_integral([wr], x, 801)
    got = numeric_wigner_integral([wr], x, points_per_axis=801)[1]
    assert abs(got - total) <= 1e-12 * magnitude


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_modes=st.sampled_from([1, 2]),
       count=st.integers(1, 2), half_width=st.floats(2.0, 8.0),
       offset=st.floats(-4.0, 4.0), shrink=SHRINK)
def test_truncation_warning_matches_brute_force_faces(seed, n_modes, count, half_width,
                                                      offset, shrink):
    # the truncation bound is sound: a default grid that raises no warning,
    # on any box, has both integrals within 1e-9 of the closed form, besides
    # the aliasing error its spacing leaves (below 2^-60 under the cap, and
    # silent up to 1e-9 at it)
    gen = rng(seed)
    w_list = narrowed([random_gaussian_wigner(gen, n_modes,
                                              weight=float(gen.uniform(0.3, 2.0)))
                       for _ in range(count)], shrink)
    x = LinearQuadrature(coeffs=random_linear_quadrature(gen, n_modes).coeffs,
                         offset=offset)
    aliasing, alias_bound = [], gaussian._alias_bound

    def recording_alias_bound(*args):
        aliasing.append(alias_bound(*args))
        return aliasing[-1]

    with warnings.catch_warnings(record=True) as caught, grid_half_width(half_width), \
            pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("always")
        mp.setattr(gaussian, "_alias_bound", recording_alias_bound)
        mass, moment = numeric_wigner_integral(w_list, x)
    if not caught:
        product = gaussian_product(*w_list) if count == 2 else w_list[0]
        rel = 1e-9 + aliasing[0]
        assert mass == pytest.approx(product.weight, rel=rel)
        assert moment == pytest.approx(product.weight * x.at(product.mean), rel=rel)


@pytest.mark.parametrize("n_modes, points", [(1, 801), (2, 41)])
def test_numeric_integral_skips_negligible_lines(monkeypatch, n_modes, points):
    # a product narrower than the grid: the entries of the exponent products
    # count the points read, fewer than half of the grid's, and reading them
    # all instead moves neither integral beyond summation order
    gen = rng(5)
    w_list = narrowed([random_gaussian_wigner(gen, n_modes),
                       random_gaussian_wigner(gen, n_modes)], 30.0)
    x = random_linear_quadrature(gen, n_modes)
    with points_read() as read:
        mass, moment = _oracle(w_list, x, points)
    assert 0 < sum(read) < points ** (2 * n_modes) / 2
    monkeypatch.setattr(gaussian, "_SKIP_BELOW", np.inf)
    assert _oracle(w_list, x, points) == pytest.approx((mass, moment), rel=1e-12)


@pytest.mark.parametrize("n_modes, points, seed, tile_points",
                         [(1, 801, 3, gaussian._TILE_POINTS), (2, 31, 2, 1 << 10)])
def test_numeric_integral_floors_the_tiles_that_reach_the_floor(monkeypatch, n_modes,
                                                                points, seed, tile_points):
    # an effect 10× narrower than the state: some tiles' kept lines fall below
    # _EXP_FLOOR towards their z ends and some stay above it.  exp never sees
    # an exponent below the floor, only the tiles that reach it are floored,
    # and the integrals still match the brute-force grid
    monkeypatch.setattr(gaussian, "_TILE_POINTS", tile_points)
    gen = rng(seed)
    w_list = narrowed([random_gaussian_wigner(gen, n_modes),
                       random_gaussian_wigner(gen, n_modes)], 10.0)
    x = random_linear_quadrature(gen, n_modes)
    floored, exponents, maximum, exp = [], [], np.maximum, np.exp

    def recording_maximum(a, b, *args, **kwargs):
        if kwargs.get("out") is a and a.ndim == 2:  # a tile of exponents
            floored.append(float(a.min()))
        return maximum(a, b, *args, **kwargs)

    def recording_exp(a, *args, **kwargs):
        if kwargs.get("out") is a and a.ndim == 2:
            exponents.append(float(a.min()))
        return exp(a, *args, **kwargs)

    monkeypatch.setattr(np, "maximum", recording_maximum)
    monkeypatch.setattr(np, "exp", recording_exp)
    got_pair = _oracle(w_list, x, points)
    monkeypatch.undo()
    assert 0 < len(floored) < len(exponents)
    assert max(floored) < gaussian._EXP_FLOOR <= min(exponents)
    for got, factor in zip(got_pair, (None, x)):
        total, magnitude = brute_force_integral(w_list, factor, points)
        assert abs(got - total) <= 1e-12 * magnitude


def physical_pair(gen, squeeze, thermal):
    """A two-mode state and effect with V = O·Z·diag(ν, ν)·Z·Oᵀ/2: Z squeezes
    by e^(∓r), O is a passive interferometer and ν ≥ 1, so V + iΩ/2 ≥ 0."""
    def covariance():
        q, _ = np.linalg.qr(gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2)))
        o = np.block([[q.real, -q.imag], [q.imag, q.real]])
        r, nu = gen.uniform(0, squeeze, 2), gen.uniform(1, thermal, 2)
        return o @ np.diag(np.tile(nu, 2) * np.exp(np.concatenate([-2 * r, 2 * r]))) @ o.T / 2
    return [GaussianWigner(mean=gen.uniform(-1, 1, 4), covariance=covariance(),
                           weight=weight) for weight in (1.0, gen.uniform(0.5, 2.0))]


def test_default_grid_is_sized_from_the_product(gen):
    # a physical two-mode pair is resolved to 2^-60 by fewer points per axis
    # than the 81-point cap, and the estimate still matches the closed form
    w_list = physical_pair(gen, 0.3, 1.2)
    x = random_linear_quadrature(gen, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with points_read() as default_read:
            mass, moment = numeric_wigner_integral(w_list, x)
        with points_read() as capped_read:
            numeric_wigner_integral(w_list, x, points_per_axis=81)
    assert 0 < sum(default_read) < sum(capped_read)
    assert moment / mass == pytest.approx(quadrature_estimator(*w_list, x), abs=1e-12)


def test_default_grid_stays_at_the_cap_for_a_narrow_product(gen):
    # an effect 30× narrower than the state needs more than 81 points per
    # axis: the default grid is the 81-point one, to the last bit
    w_list = narrowed(physical_pair(gen, 0.3, 1.2), 30.0)
    x = random_linear_quadrature(gen, 2)
    assert _oracle(w_list, x) == _oracle(w_list, x, 81)


def test_grid_spacing_warning_flags_unresolved_products():
    # two-mode draws as in acceptance criterion 6: the default grid resolves
    # them, and warns for none.  With the effect 10× or 30× narrower a grid
    # within the 81-point cap either meets the spacing bound, and then
    # matches the closed form, or warns; every 30× narrower product needs
    # more than 81 points per axis
    gen = rng(606)
    for _ in range(10):
        w_list = [random_gaussian_wigner(gen, 2),
                  random_gaussian_wigner(gen, 2, weight=float(gen.uniform(0.3, 2.0)))]
        x = random_linear_quadrature(gen, 2)
        for shrink in (1.0, 10.0, 30.0):
            pair = narrowed(w_list, shrink)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                mass, moment = numeric_wigner_integral(pair, x)
            messages = [str(w.message) for w in caught]
            if shrink == 1.0 or not messages:
                assert not messages and shrink < 30.0
                assert moment / mass == pytest.approx(quadrature_estimator(*pair, x),
                                                      abs=1e-12)
            else:
                assert len(messages) == 1 and messages[0].startswith("grid spacing")
                assert "truncation" not in messages[0]


def test_grid_spacing_warning_at_the_cap_above_1e_9():
    # one two-mode Gaussian with standard deviations (1, 1, 1, 0.2): its ±8σ
    # box is 16 wide, so the 81-point cap spaces the grid by h = 0.2, and the
    # aliasing bound 2·dim·exp(−2(π·0.2/h)²) = 8e^(−2π²) ≈ 2.1e-8 lies
    # between 1e-9 and 1e-6.  The default grid is the capped one, and it warns
    g = GaussianWigner(mean=np.zeros(4), covariance=np.diag([1.0, 1.0, 1.0, 0.04]))
    bound = 8 * np.exp(-2 * np.pi ** 2)
    assert 1e-9 < bound < 1e-6
    with pytest.warns(UserWarning) as caught:
        default = numeric_wigner_integral([g])
    messages = [str(w.message) for w in caught]
    assert len(messages) == 1 and messages[0].startswith("grid spacing 2.000e-01")
    assert f"aliasing error bound {bound:.3e}" in messages[0]
    with pytest.warns(UserWarning, match="^grid spacing"):
        assert default == numeric_wigner_integral([g], points_per_axis=81)


def test_numeric_integral_memory_stays_near_one_plane(gen):
    # the two-mode pass holds one plane of 81² lines and one tile at a time,
    # not per-line arrays over all 81³ lines (about 33 MiB)
    w_list = [random_gaussian_wigner(gen, 2), random_gaussian_wigner(gen, 2)]
    x = random_linear_quadrature(gen, 2)
    tracemalloc.start()
    try:
        _oracle(w_list, x, points_per_axis=81)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


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


@pytest.mark.parametrize("axis", range(4))
def test_truncation_warning_on_every_face(axis):
    # a steep linear factor along one axis lifts the product's tails beyond
    # that axis's faces above the truncation threshold
    g = GaussianWigner(mean=np.zeros(4), covariance=np.eye(4))
    x = LinearQuadrature(coeffs=10.0 * np.eye(4)[axis], offset=1.0)
    for half_width in (5.3, 5.45, 5.6):
        with pytest.warns(UserWarning, match="truncation"), grid_half_width(half_width):
            numeric_wigner_integral([g], x, points_per_axis=41)
    with warnings.catch_warnings(), grid_half_width(8.0):
        warnings.simplefilter("error")
        numeric_wigner_integral([g], x, points_per_axis=41)


def test_truncation_warning_counts_the_lattice():
    # the grid leaves out the lattice points beyond each face and half of
    # those on it: beyond ±6.3σ a unit Gaussian holds 6e-10 of its mass, but
    # its default grid misses 1.3e-9 of it, and warns
    with grid_half_width(6.3), pytest.warns(UserWarning, match="truncation"):
        mass, _ = numeric_wigner_integral([unit()])
    assert abs(mass - 1) > 1e-9


def test_truncation_warning_weighs_x():
    # a product off the centre of its box holds under 1e-9 of its mass beyond
    # the nearer face, but a steep X that is small at the product's mean
    # loses over 1e-9 of ∫ΠW·X there: only the bound on ∫ΠW·X trips
    w_list = [unit(), unit(mean=(1.0, 0.0), cov=np.eye(2) / 16)]
    x = LinearQuadrature(coeffs=np.array([100.0, 0.0]), offset=-90.0)
    product = gaussian_product(*w_list)
    with grid_half_width(2.5):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mass, _ = numeric_wigner_integral(w_list)
        with pytest.warns(UserWarning, match="truncation"):
            _, moment = numeric_wigner_integral(w_list, x)
    assert mass == pytest.approx(product.weight, rel=1e-9)
    assert moment != pytest.approx(product.weight * x.at(product.mean), rel=1e-9)


@pytest.mark.parametrize("weight", [1e-250, 1e-300, 1e-310])
def test_numeric_integral_of_tiny_weights(weight):
    # the exponent floor applies relative to the grid's peak, so it cuts
    # nothing of a Gaussian whose whole grid lies below e^-700
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mass, moment = numeric_wigner_integral([unit(weight=weight)], points_per_axis=101)
    assert mass == moment == pytest.approx(weight, rel=1e-10)


@pytest.mark.parametrize("s", [1e200, 1e300, 1e307])
def test_broad_gaussians_past_the_determinant_range(s):
    # det(s·I) overflows past s ≈ 1e154, its logarithm does not.  Two unit
    # one-mode Gaussians of covariance s·I integrate to 1/4πs, and with
    # weights √s their product weighs 1/4π
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mass, _ = numeric_wigner_integral([unit(cov=s * np.eye(2))] * 2)
        product = gaussian_product(*[unit(cov=s * np.eye(2), weight=np.sqrt(s))] * 2)
    assert abs(mass * 4 * np.pi * s - 1) <= 1e-12
    assert abs(product.weight * 4 * np.pi - 1) <= 1e-12


@pytest.mark.parametrize("weight", [1e155, 1e300])
def test_numeric_integral_beyond_the_float_range_is_an_error(weight):
    # ∫ΠW of two unit Gaussians is weight²/4π, past the largest double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="float range"):
            numeric_wigner_integral([unit(weight=weight)] * 2, points_per_axis=101)


def test_numeric_integral_that_underflows_is_zero_without_a_warning():
    # ∫ΠW = (1e-300)²/4π is below the smallest double: no relative error to report
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        integrals = numeric_wigner_integral([unit(weight=1e-300)] * 2, points_per_axis=101)
    assert integrals == (0.0, 0.0)


@pytest.mark.parametrize("make", [
    lambda: unit(),
    lambda: LinearQuadrature(coeffs=np.array([1.0, 0.0]), offset=0.5),
])
def test_array_dataclasses_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and {a, b} == {a, b}
