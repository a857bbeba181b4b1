"""Gaussian Wigner-function specialization of the retrodiction estimator.

For Gaussian W_ρ and W_E and a linear quadrature X, the optimal estimate is
the ratio of two Gaussian integrals, which collapses to X evaluated at the
mean of the pointwise product Gaussian.  A tensor-grid quadrature oracle
cross-validates the closed form.

Conventions: quadrature ordering (q₁..q_n, p₁..p_n), dimensionless units
with ħ = 1 (vacuum covariance I/2).  Integrals follow ∫W = trace, so each
GaussianWigner is `weight` times a normalized Gaussian density; effects
carry arbitrary positive weight and the weights cancel in the estimator.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .operator_core import ValidationError, as_array, require_fit, require_size

OVERLAP_FLOOR = 1e-12
# the oracle reads whole last-axis grid lines, in C order, in tiles of about
# _TILE_POINTS points (a tile stays in cache) and at least _TILE_ROWS lines
# (fewer are slower); a tile lies within one plane of the walk, so the pass
# holds one plane and one tile at a time
_TILE_POINTS, _TILE_ROWS = 1 << 15, 8
_HALF_WIDTH = 8.0  # each grid axis spans ±8 standard deviations of each Gaussian
# the default grid's points per axis: the fewest whose spacing keeps the
# aliasing bound (_alias_bound) at or below _ALIAS_TARGET, and at most
# _MAX_POINTS[n_modes].  The oracle warns when that bound, or the truncation
# bound relative to either integral, exceeds _WARN_ABOVE
_ALIAS_TARGET, _WARN_ABOVE = 2.0 ** -60, 1e-9
_MAX_POINTS = {1: 801, 2: 81}
# oracle exponents are floored here (e^-700 ≈ 1e-304): exp is ~20× slower below -708
_EXP_FLOOR = -700.0
# the oracle skips a grid line whose largest exponent lies more than τ below
# the grid's peak G.  A skipped point weighs at most cell·e^(G−τ) (times |X|
# in ∫ΠW·X), and the peak point alone puts at least 2^−dim·cell·e^G into ∫ΠW,
# so N skipped points move ∫ΠW by at most N·2^dim·e^−τ of itself, and ∫ΠW·X
# by that times max|X|·∫ΠW.  τ = 90·ln 2 and N·2^dim < 2^30 on grids up to
# _MAX_POINTS keep both below 2^−53, with a factor 2^7 to spare for max|X|.
_SKIP_BELOW = 90 * np.log(2)
_E512 = float(np.exp(512.0)), float(np.exp(-512.0))  # the oracle's shift steps


class NegligibleOverlap(ValidationError):
    """The retrodictive effect barely overlaps the state; the conditional is undefined."""


@dataclass(frozen=True, eq=False)
class GaussianWigner:
    """weight × Gaussian density over 2n-dimensional quadrature phase space."""

    mean: np.ndarray
    covariance: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        mean = as_array(self.mean, float, "mean")
        cov = as_array(self.covariance, float, "covariance")
        weight = as_array(self.weight, float, "weight")
        size = mean.size
        require_fit(mean=(mean, (size,)), covariance=(cov, (size, size)), weight=(weight, ()))
        if size % 2 or not size:
            raise ValidationError("shape", f"mean must have even positive length 2n, got {size}")
        if float(np.abs(cov - cov.T).max()) > 1e-12 * max(1.0, float(np.abs(cov).max())):
            raise ValidationError("symmetry", "covariance must be symmetric")
        cov = (cov + cov.T) / 2
        if float(np.linalg.eigvalsh(cov).min()) <= 0:
            raise ValidationError("psd", "covariance must be positive definite")
        if not weight > 0:
            raise ValidationError("weight", f"weight must be positive, got {weight}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "weight", float(weight))

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True, eq=False)
class LinearQuadrature:
    """Affine observable coeffs · (q, p) + offset."""

    coeffs: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        coeffs = as_array(self.coeffs, float, "coeffs")
        offset = as_array(self.offset, float, "offset")
        require_fit(coeffs=(coeffs, (coeffs.size,)), offset=(offset, ()))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "offset", float(offset))

    def at(self, point: np.ndarray) -> float:
        """X at a phase-space point; at the product Gaussian's mean, the estimate."""
        require_fit(coeffs=(self.coeffs, point.shape))
        value = float(self.coeffs @ point + self.offset)
        if not np.isfinite(value):
            raise ValidationError("range", f"X at {point.tolist()} is not finite: {value}")
        return value


def gaussian_product(wr: GaussianWigner, we: GaussianWigner) -> GaussianWigner:
    """Pointwise product of two Gaussians, again Gaussian.

    The returned weight is the full integral of the product, i.e. the
    denominator ∫ W_E W_ρ of the estimator.  A weight that is not a positive
    normal float (it underflowed to a subnormal or zero, or overflowed) is a
    `range` error: a subnormal keeps too few significant digits to divide by.
    """
    mean, cov, distance, sigma_sum = _product_moments(wr, we)
    # log det, not det: det overflows for covariances far past the vacuum's
    log_det = np.linalg.slogdet(sigma_sum)[1]
    overlap = float(np.exp(-0.5 * (distance + log_det)) / ((2 * np.pi) ** (mean.size / 2)))
    weight = wr.weight * we.weight * overlap
    if not sys.float_info.min <= weight <= sys.float_info.max:
        raise ValidationError("range", f"product weight {wr.weight:.6g} × {we.weight:.6g} × "
                                       f"overlap {overlap:.6g} = {weight:.6g} is not a "
                                       "positive normal float")
    return GaussianWigner(mean=mean, covariance=cov, weight=weight)


def quadrature_estimator(wr: GaussianWigner, we: GaussianWigner,
                         x: LinearQuadrature) -> float:
    """∫ W_E W_ρ X / ∫ W_E W_ρ for linear X: X at the product mean (its weight unformed)."""
    return x.at(_product_moments(wr, we)[0])


def _product_moments(wr: GaussianWigner, we: GaussianWigner):
    """The product's mean and covariance, δᵀ(Σ_ρ+Σ_E)⁻¹δ and Σ_ρ+Σ_E."""
    require_fit(state_mean=(wr.mean, wr.mean.shape), effect_mean=(we.mean, wr.mean.shape))
    try:
        prec_r = np.linalg.inv(wr.covariance)
        prec_e = np.linalg.inv(we.covariance)
        cov = np.linalg.inv(prec_r + prec_e)
    except np.linalg.LinAlgError as exc:
        raise ValidationError("psd", f"near-singular covariance: {exc}") from exc
    mean = cov @ (prec_r @ wr.mean + prec_e @ we.mean)
    sigma_sum = wr.covariance + we.covariance
    delta = wr.mean - we.mean
    distance = delta @ np.linalg.solve(sigma_sum, delta)
    # the floor tests how far apart the two lie against their joint width,
    # e^(−½δᵀ(Σ_ρ+Σ_E)⁻¹δ): neither weight nor the covariances' scale moves it
    separation = float(np.exp(-0.5 * distance))
    if separation <= OVERLAP_FLOOR:
        raise NegligibleOverlap(
            "overlap", f"overlap factor {separation:.3e} below {OVERLAP_FLOOR:g}"
        )
    return mean, cov, distance, sigma_sum


def numeric_wigner_integral(w_list, x: LinearQuadrature | None = None,
                            points_per_axis: int | None = None) -> tuple[float, float]:
    """Tensor-grid trapezoid quadrature: the pair (∫ Π W_i, ∫ Π W_i · X).

    X ≡ 1 without a quadrature, and then the two entries are the same float.
    Supported for 1–2 modes.  The grid spans the union of each Gaussian's
    ±_HALF_WIDTH standard deviations per axis.  By Poisson summation a
    lattice of spacing h integrates a Gaussian whose covariance's smallest
    eigenvalue is λ to within 2·dim·exp(−½(2π/h)²λ) of the integral.  Without
    `points_per_axis`, the grid takes the fewest points per axis whose spacing
    along the widest axis keeps that bound, for the product's λ, at or below
    2^-60, at least 2 and at most 801 (one mode) or 81 (two modes).  One
    threshold, 1e-9, serves both error bounds: a grid, capped or explicit,
    whose aliasing bound exceeds it warns "grid spacing", and a closed-form
    bound on the tails the box's faces cut off (_truncation_bound) above it
    of either integral warns "grid truncation".  Both read the product's
    moments from the folded exponent (prec, lin); the integrals do not, so
    the oracle stays an independent check of the closed form.  Tiles of
    whole last-axis lines lie within one plane; lines whose integrand stays
    below 2^-90 of the grid's peak are skipped (the bound is at _SKIP_BELOW).
    """
    w_list = list(w_list)
    if not w_list:
        raise ValidationError("input", "need at least one Gaussian")
    n_modes, dim = w_list[0].n_modes, w_list[0].mean.size
    fit = {f"w_list[{i}].mean": (w.mean, (dim,)) for i, w in enumerate(w_list)}
    require_fit(**fit, **({} if x is None else {"x.coeffs": (x.coeffs, (dim,))}))
    if n_modes > 2:
        raise ValidationError("modes", "grid oracle supports 1-2 modes only")
    n = points_per_axis
    if n is not None:  # the largest array the oracle holds is one plane: n^(dim-1) entries
        require_size("points_per_axis", n, dim - 1)
        if n < 2:
            raise ValidationError("grid", f"need at least 2 points per axis, got {n}")

    # fold the Gaussian factors into one quadratic form
    prec = np.zeros((dim, dim))
    lin = np.zeros(dim)
    log_const = 0.0
    for w in w_list:
        p = np.linalg.inv(w.covariance)
        prec += p
        lin += p @ w.mean
        log_const += (
            np.log(w.weight)
            - 0.5 * w.mean @ p @ w.mean
            - 0.5 * (dim * np.log(2 * np.pi) + np.linalg.slogdet(w.covariance)[1])
        )

    means = np.array([w.mean for w in w_list])
    half = _HALF_WIDTH * np.sqrt([np.diag(w.covariance) for w in w_list])
    box = list(zip((means - half).min(axis=0), (means + half).max(axis=0)))
    widest = max(hi - lo for lo, hi in box)
    # the product's narrowest variance: the smallest eigenvalue of its covariance
    least_var = 1.0 / float(np.linalg.eigvalsh(prec)[-1])
    if n is None:  # `fits` is inf or NaN only past the float range: n is then the cap
        cap, fits = _MAX_POINTS[n_modes], widest / _alias_spacing(least_var, dim)
        n = cap if not fits <= cap - 1 else max(2, int(np.ceil(fits)) + 1)
    aliasing = _alias_bound(widest / (n - 1), least_var, dim)

    axes = [np.linspace(lo, hi, n) for lo, hi in box]
    axis_w = [(a[1] - a[0]) * np.r_[0.5, np.ones(n - 2), 0.5] for a in axes]  # trapezoid

    # lines along the last axis z: on the line through the other axes' point y
    # the exponent is [slope(y), base(y), 1]·[z, 1, −½P_zz·z²] and X is
    # c_z·z + aff(y) (X ≡ 1 without a quadrature).  The y terms and weights
    # are outer sums, from the last y axis back to keep them small.  A plane
    # is the lines of the last n_modes y axes (n² lines for two modes, all n
    # one-mode lines): their sums are tabled once, and each pass walks the
    # planes, adding a plane's outer y terms to the tables in that order.
    last, split = dim - 1, n_modes - 1  # the y axes before `split` index the planes
    ys = [a.reshape((n,) + (1,) * (last - 1 - k)) for k, a in enumerate(axes[:last])]
    ws = [w.reshape(y.shape) for w, y in zip(axis_w, ys)]
    coeffs, offset = (np.zeros(dim), 1.0) if x is None else (x.coeffs, x.offset)
    z, curv, c_z = axes[last], prec[last, last], coeffs[last]
    outer = np.stack([z, np.ones(n), -0.5 * curv * z * z])

    def line_terms(slope, base, aff, weight, ks, y, w):
        for k in ks:
            base = base + ((lin[k] - 0.5 * prec[k, k] * y[k]) * y[k]
                           - sum(prec[k, j] * y[k] * y[j] for j in range(k + 1, last)))
            slope = slope - prec[k, last] * y[k]
            aff = aff + coeffs[k] * y[k]
            weight = weight * w[k]
        return slope, base, aff, weight

    inner, outer_ks = range(last - 1, split - 1, -1), range(split - 1, -1, -1)
    table = line_terms(lin[last], log_const, offset, 1.0, inner, ys, ws)
    planes = list(np.ndindex((n,) * split))

    def plane(point):
        """The largest exponent on each line of the plane, top, and the lines'
        slope, base, aff and weight, in C order.

        Along a line the exponent is a concave quadratic, so its largest value
        on [z₀, z_{n−1}] sits at the clamped vertex."""
        y = [axes[k][i] for k, i in enumerate(point)] + ys[split:]
        w = [axis_w[k][i] for k, i in enumerate(point)] + ws[split:]
        slope, base, aff, weight = map(np.ravel, line_terms(*table, outer_ks, y, w))
        vertex = np.clip(slope / curv, z[0], z[-1])
        top = base + (slope - 0.5 * curv * vertex) * vertex
        return top, slope, base, aff, weight

    # the reference g_ref is the largest grid value on the line of the largest
    # top (np.argmax: the first in C order, or the first NaN); top can
    # overshoot the grid far.  Exponents are then less `shift`, g_ref cut to a
    # multiple of 512 (the sums are scaled back; ordinary weights stay
    # unshifted): the floor lies ≥188 below g_ref, and exp, which overflows
    # past 709, cannot at a grid peak <197 above it.  The peak lies at most
    # P_zz·h²/8 above g_ref, below 0.12 on a grid whose spacing does not warn.
    peaks = np.empty((len(planes), 3))  # each plane's largest top, its slope and base
    for p, point in enumerate(planes):
        top, slope, base, _, _ = plane(point)
        j = np.argmax(top)
        peaks[p] = top[j], slope[j], base[j]
    _, slope, base = peaks[np.argmax(peaks[:, 0])]
    g_ref = float((base + (slope - 0.5 * curv * z) * z).max())
    if not np.isfinite(g_ref):
        raise ValidationError("range", f"the integrand's peak exponent is {g_ref}")
    steps = int(np.trunc(g_ref / 512))
    shift = 512.0 * steps
    keep = g_ref - shift - _SKIP_BELOW  # above _EXP_FLOOR: the floor moves no line across

    # each kept plane's kept lines in tiles of `rows`: one matrix product of
    # [slope, base less shift, 1] gives the exponent, a second each line's
    # sums of w_z·e^G and w_z·z·e^G, and the line weights [weight·aff,
    # weight] turn those into ∫ΠW·X (with c_z) and ∫ΠW
    rows = max(_TILE_ROWS, _TILE_POINTS // n)
    lhs, buf = np.ones((rows, 3)), np.empty((rows, n))
    wz = np.stack([axis_w[last], axis_w[last] * z], axis=1)
    sums = np.zeros((2, 2))
    for p in np.flatnonzero(peaks[:, 0] - shift >= keep):
        top, slope, base, aff, weight = plane(planes[p])
        kept = np.flatnonzero(top - shift >= keep)
        for i in (kept[lo:lo + rows] for lo in range(0, kept.size, rows)):
            lhs[:i.size, 0], lhs[:i.size, 1] = slope[i], base[i] - shift
            t = np.matmul(lhs[:i.size], outer, out=buf[:i.size])
            if t[:, ::n - 1].min() < _EXP_FLOOR:  # the exponent is concave along a line
                np.maximum(t, _EXP_FLOOR, out=t)
            np.exp(t, out=t)
            sums += np.stack([weight[i] * aff[i], weight[i]], 1).T @ (t @ wz)
    mass = float(sums[1, 0])
    moment = mass if x is None else float(sums[0, 0] + c_z * sums[1, 1])

    integrals = _unshift(mass, steps), _unshift(moment, steps)
    if not np.isfinite(integrals).all():
        raise ValidationError(
            "range", f"the grid integrals exceed the float range (largest double "
            f"{np.finfo(float).max:.3e}): ln ∫ΠW ≈ {np.log(mass) + shift:.1f}")
    problems = []
    if aliasing > _WARN_ABOVE:
        problems.append(
            f"grid spacing {widest / (n - 1):.3e} leaves an aliasing error bound "
            f"{aliasing:.3e} relative to the integrals, above {_WARN_ABOVE:g}: the "
            f"product's narrowest standard deviation is {np.sqrt(least_var):.3e}")
    # an integral that underflows to 0.0 has no relative error to report.  The
    # grid leaves out the lattice beyond each face and half of it on the face:
    # at most the tails from half a step (an end weight) inside the face
    if integrals[0]:
        least = _unshift(max(w.weight for w in w_list), -steps) * 1e-30  # shifted
        inside = [(a[0] + w[0], a[-1] - w[0]) for a, w in zip(axes, axis_w)]
        errors = _truncation_bound(prec, lin, log_const - shift, inside, coeffs, offset)
        if (errors > _WARN_ABOVE * np.maximum(np.abs([moment, mass]), least)).any():
            errors = [_unshift(float(e), steps) for e in errors]
            problems.append(
                f"grid truncation error bounds {errors[0]:.3e}, {errors[1]:.3e} exceed "
                f"{_WARN_ABOVE:g} of the integrals {integrals[1]:.3e}, {integrals[0]:.3e} "
                "of ΠW·X, ΠW")
    if problems:
        warnings.warn("; ".join(problems), stacklevel=2)
    return integrals


def _truncation_bound(prec, lin, log_const, box, coeffs, offset) -> np.ndarray:
    """Bounds on ∫|ΠW·X| and ∫ΠW beyond the faces of the box, summed over
    them, for ΠW = e^(log_const + lin·x − ½xᵀ·prec·x) and X = coeffs·x + offset.

    ΠW is its integral e^(log_const + ½lin·m)·√det(2πS) times the density of
    N(m, S), S = prec⁻¹ and m = S·lin.  Along axis i, X − E X = b·(x_i − m_i)
    + ε with b = (S c)_i / S_ii and ε independent of x_i, so beyond a face
    α ≥ 0 standard deviations out, where the mass is P, E[|X|] ≤
    (|E X| + √Var ε)·P + |b|·√S_ii·φ(α).  Past α ≥ 1 both tails decrease, so
    a lattice's sums beyond a face are at most their integrals from half a
    step inside it; a nearer face warns on its mass alone."""
    cov = np.linalg.inv(prec)
    mean = cov @ lin
    log_total = log_const + 0.5 * (lin @ mean + mean.size * np.log(2 * np.pi)
                                   - np.linalg.slogdet(prec)[1])
    ex, sc = coeffs @ mean + offset, cov @ coeffs
    var = coeffs @ sc
    moment = mass = 0.0
    for i, (lo, hi) in enumerate(box):
        sd, b = math.sqrt(cov[i, i]), sc[i] / cov[i, i]
        spread = abs(ex) + math.sqrt(max(var - b * sc[i], 0.0))
        for a in ((hi - mean[i]) / sd, (mean[i] - lo) / sd):
            p = 0.5 * math.erfc(a / math.sqrt(2))
            phi = math.exp(-0.5 * a * a) / math.sqrt(2 * math.pi)
            mass += p
            moment += spread * p + abs(b) * sd * phi
    with np.errstate(over="ignore", invalid="ignore"):  # inf only past the float range
        return np.exp(log_total) * np.array([moment, mass])


def _alias_bound(h: float, variance: float, dim: int) -> float:
    """The trapezoid lattice of spacing h integrates a dim-dimensional Gaussian
    whose covariance's smallest eigenvalue is `variance` to within this much of
    the integral, by Poisson summation: the nearest aliases sit 2π/h out."""
    return 2 * dim * float(np.exp(-2 * (np.pi * np.sqrt(variance) / h) ** 2))


def _alias_spacing(variance: float, dim: int) -> float:
    """The largest spacing h with _alias_bound(h, variance, dim) ≤ _ALIAS_TARGET."""
    return 2 * np.pi * np.sqrt(variance / (2 * np.log(2 * dim / _ALIAS_TARGET)))


def _unshift(v: float, steps: int) -> float:
    """v·e^(512·steps) as float products: inf past the float range, 0 below it."""
    for _ in range(abs(steps)):
        if v == 0 or np.isinf(v):
            break
        v *= _E512[steps < 0]
    return v

