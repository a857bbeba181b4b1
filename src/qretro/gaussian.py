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

import warnings
from dataclasses import dataclass

import numpy as np

from .operator_core import ValidationError

OVERLAP_FLOOR = 1e-12
# the oracle reads whole last-axis grid lines, in C order, in tiles of about
# _TILE_POINTS points (a tile stays in cache) and at least _TILE_ROWS lines
# (fewer are slower); a tile may span planes of the walk, so the pass holds
# one plane and one tile at a time
_TILE_POINTS, _TILE_ROWS = 1 << 15, 8
_HALF_WIDTH = 8.0  # each grid axis spans ±8 standard deviations of each Gaussian
# the default grid's points per axis: the fewest whose spacing keeps the
# aliasing bound (_alias_bound) at or below _ALIAS_TARGET, and at most
# _MAX_POINTS[n_modes]; past the cap the oracle warns once the bound exceeds
# _ALIAS_WARN, the 1e-6 the oracle's checks allow
_ALIAS_TARGET, _ALIAS_WARN = 2.0 ** -60, 1e-6
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
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise ValidationError("shape", "mean must have even positive length 2n")
        if cov.shape != (mean.size, mean.size):
            raise ValidationError("shape", "covariance shape inconsistent with mean")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()
                and np.isfinite(self.weight)):
            raise ValidationError("finite", "mean, covariance and weight must be finite")
        if float(np.abs(cov - cov.T).max()) > 1e-12 * max(1.0, float(np.abs(cov).max())):
            raise ValidationError("symmetry", "covariance must be symmetric")
        cov = (cov + cov.T) / 2
        if float(np.linalg.eigvalsh(cov).min()) <= 0:
            raise ValidationError("psd", "covariance must be positive definite")
        if not self.weight > 0:
            raise ValidationError("weight", f"weight must be positive, got {self.weight}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "weight", float(self.weight))

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True, eq=False)
class LinearQuadrature:
    """Affine observable coeffs · (q, p) + offset."""

    coeffs: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 1 or not np.all(np.isfinite(coeffs)):
            raise ValidationError("shape", "coeffs must be a finite 1-D vector")
        if not np.isfinite(self.offset):
            raise ValidationError("finite", "offset must be finite")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "offset", float(self.offset))

    def at(self, point: np.ndarray) -> float:
        """X at a phase-space point; at the product Gaussian's mean, the estimate."""
        if self.coeffs.size != point.size:
            raise ValidationError("shape", "quadrature coefficient length != 2n")
        return float(self.coeffs @ point + self.offset)


def gaussian_product(wr: GaussianWigner, we: GaussianWigner) -> GaussianWigner:
    """Pointwise product of two Gaussians, again Gaussian.

    The returned weight is the full integral of the product, i.e. the
    denominator ∫ W_E W_ρ of the estimator.
    """
    if wr.n_modes != we.n_modes:
        raise ValidationError("shape", "mode counts differ")
    dim = wr.mean.size
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
    # log det, not det: det overflows for covariances far past the vacuum's
    log_det = np.linalg.slogdet(sigma_sum)[1]
    overlap = np.exp(-0.5 * (distance + log_det)) / ((2 * np.pi) ** (dim / 2))
    weight = wr.weight * we.weight * float(overlap)
    return GaussianWigner(mean=mean, covariance=cov, weight=weight)


def quadrature_estimator(wr: GaussianWigner, we: GaussianWigner,
                         x: LinearQuadrature) -> float:
    """∫ W_E W_ρ X / ∫ W_E W_ρ for linear X: X evaluated at the product mean."""
    return x.at(gaussian_product(wr, we).mean)


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
    2^-60, at least 2 and at most 801 (one mode) or 81 (two modes).  A grid
    whose bound exceeds 1e-6, a capped or an explicit one, warns with a
    message that starts "grid spacing".  Grid lines whose integrand stays
    below 2^-90 of the grid's peak are skipped (the error bound is at
    _SKIP_BELOW); each other point costs one exp and a share of two matrix
    products, and a floor only in a tile that reaches it.
    """
    w_list = list(w_list)
    if not w_list:
        raise ValidationError("input", "need at least one Gaussian")
    n_modes = w_list[0].n_modes
    if any(w.n_modes != n_modes for w in w_list):
        raise ValidationError("shape", "mode counts differ")
    if n_modes > 2:
        raise ValidationError("modes", "grid oracle supports 1-2 modes only")
    dim = 2 * n_modes
    if x is not None and x.coeffs.size != dim:
        raise ValidationError("shape", "quadrature coefficient length != 2n")
    n = points_per_axis
    if n is not None and n < 2:
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

    box = []
    for i in range(dim):
        half = [_HALF_WIDTH * np.sqrt(w.covariance[i, i]) for w in w_list]
        box.append((min(w.mean[i] - h for w, h in zip(w_list, half)),
                    max(w.mean[i] + h for w, h in zip(w_list, half))))
    widest = max(hi - lo for lo, hi in box)
    # the product's narrowest variance: the smallest eigenvalue of its covariance
    least_var = 1.0 / float(np.linalg.eigvalsh(prec)[-1])
    if n is None:  # `fits` is inf or NaN only past the float range: n is then the cap
        cap, fits = _MAX_POINTS[n_modes], widest / _alias_spacing(least_var, dim)
        n = cap if not fits <= cap - 1 else max(2, int(np.ceil(fits)) + 1)
    aliasing = _alias_bound(widest / (n - 1), least_var, dim)

    axes, axis_w = [], []
    for lo, hi in box:
        grid = np.linspace(lo, hi, n)
        wvec = np.full(n, grid[1] - grid[0])  # trapezoid weights
        wvec[[0, -1]] /= 2
        axes.append(grid)
        axis_w.append(wvec)

    # lines along the last axis z: on the line through the other axes' point y
    # the exponent is [slope(y), base(y), 1]·[z, 1, −½P_zz·z²] and X is
    # c_z·z + aff(y) (X ≡ 1 without a quadrature).  The y terms, weights and
    # faces are outer sums, from the last y axis back to keep them small.  A
    # plane is the lines of the last n_modes y axes (n² lines for two modes,
    # all n one-mode lines): their sums are tabled once, and each pass walks
    # the planes, adding a plane's outer y terms to the tables in that order.
    last, split = dim - 1, n_modes - 1  # the y axes before `split` index the planes
    ys = [a.reshape((n,) + (1,) * (last - 1 - k)) for k, a in enumerate(axes[:last])]
    ws = [w.reshape(y.shape) for w, y in zip(axis_w, ys)]
    faces = [(np.arange(n) % (n - 1) == 0).reshape(y.shape) for y in ys]
    coeffs, aff = (np.zeros(dim), 1.0) if x is None else (x.coeffs, x.offset)
    z, curv, c_z = axes[last], prec[last, last], coeffs[last]
    outer = np.stack([z, np.ones(n), -0.5 * curv * z * z])

    def exponent(slope, base, ks, y):
        for k in ks:
            base = base + ((lin[k] - 0.5 * prec[k, k] * y[k]) * y[k]
                           - sum(prec[k, j] * y[k] * y[j] for j in range(k + 1, last)))
            slope = slope - prec[k, last] * y[k]
        return slope, base

    def line_terms(aff, weight, on_face, ks, y, w, face):
        for k in ks:
            aff = aff + coeffs[k] * y[k]
            weight = weight * w[k]
            on_face = on_face | face[k]
        return aff, weight, on_face

    inner, outer_ks = range(last - 1, split - 1, -1), range(split - 1, -1, -1)
    slope_t, base_t = exponent(lin[last], log_const, inner, ys)
    line_t = [np.ravel(t) for t in line_terms(aff, 1.0, False, inner, ys, ws, faces)]
    planes = list(np.ndindex((n,) * split))

    def plane(point):
        """The largest exponent on each line of the plane, top, the lines'
        slope and base in C order, and lines(i), the aff, weight and face of
        the lines i.

        Along a line the exponent is a concave quadratic, so its largest value
        on [z₀, z_{n−1}] sits at the clamped vertex."""
        y = [axes[k][i] for k, i in enumerate(point)] + ys[split:]
        slope, base = map(np.ravel, exponent(slope_t, base_t, outer_ks, y))
        vertex = np.clip(slope / curv, z[0], z[-1])
        top = base + (slope - 0.5 * curv * vertex) * vertex

        def lines(i):
            return line_terms(*(t[i] for t in line_t), outer_ks, y,
                              [axis_w[k][j] for k, j in enumerate(point)],
                              [j % (n - 1) == 0 for j in point])
        return top, slope, base, lines

    # the reference g_ref is the largest grid value on the line of the largest
    # top (the first in C order, or the first NaN), a value the grid attains:
    # top can overshoot it far.  Exponents are then less `shift`, g_ref
    # truncated to a multiple of 512 (the sums are scaled back): the floor lies
    # ≥188 below the peak, exp cannot overflow at the peak, and ordinary
    # weights stay unshifted.
    plane_top, best = np.empty(len(planes)), None
    for p, point in enumerate(planes):
        top, slope, base, _ = plane(point)
        j = int(np.argmax(top))
        if best is None or (best[0] == best[0] and not top[j] <= best[0]):
            best = top[j], slope[j], base[j]
        plane_top[p] = top[j]
    g_ref = float((best[2] + (best[1] - 0.5 * curv * z) * z).max())
    if not np.isfinite(g_ref):
        raise ValidationError("range", f"the integrand's peak exponent is {g_ref}")
    steps = int(np.trunc(g_ref / 512))
    shift = 512.0 * steps
    plane_top = np.maximum(plane_top - shift, _EXP_FLOOR)  # floored like the grid
    keep = g_ref - shift - _SKIP_BELOW

    def columns(slope, base, lines, i):
        """The lines i as tile columns: slope, base less shift, [weight·aff,
        weight], aff and face."""
        aff, weight, on_face = lines(i)
        wts = np.empty((i.size, 2))
        wts[:, 1] = weight
        np.multiply(weight, aff, out=wts[:, 0])
        return slope[i], base[i] - shift, wts, aff, on_face

    def kept_lines():
        for p in np.flatnonzero(plane_top >= keep):
            top, *terms = plane(planes[p])
            yield columns(*terms, np.flatnonzero(np.maximum(top - shift, _EXP_FLOOR) >= keep))

    def near_lines(bound, read_above, z_edge):
        """The face lines above `bound` not read yet; the largest z-end face
        values of all lines above it go into z_edge."""
        for p in np.flatnonzero(plane_top > bound):
            top, *terms = plane(planes[p])
            top = np.maximum(top - shift, _EXP_FLOOR)
            near = np.flatnonzero(top > bound)
            cols = slope, base, _, aff, on_face = columns(*terms, near)
            for zj in z[::n - 1]:
                e = np.exp(np.maximum(base + (slope - 0.5 * curv * zj) * zj, _EXP_FLOOR))
                np.maximum(z_edge, [(e * np.abs(aff + c_z * zj)).max(initial=0.0),
                                    e.max(initial=0.0)], out=z_edge)
            top = top[near]
            read = on_face & (top < keep) & (top <= read_above)
            yield [c[read] for c in cols]

    # the kept lines in tiles: one matrix product gives the exponent, a second
    # each line's sums of w_z·e^G and w_z·z·e^G, and the line weights
    # [weight·aff, weight] turn those into ∫ΠW·X (with c_z) and ∫ΠW.  Face
    # values (the truncation estimates' |integrand·X|, |integrand|) are at
    # most e^top·x_max and e^top on a line: lines whose bound could trip the
    # test (with e to spare) are read exactly, skipped ones on a face in full.
    rows = max(_TILE_ROWS, _TILE_POINTS // n)
    lhs, buf = np.ones((rows, 3)), np.empty((rows, n))
    wz = np.stack([axis_w[last], axis_w[last] * z], axis=1)
    sums, edge = np.zeros((2, 2)), np.zeros(2)
    cell = float(np.prod([a[1] - a[0] for a in axes]))
    # rounding is monotone, so aff's extremes over the grid are the tables'
    # extremes plus each plane's terms
    aff_range = line_terms(np.array([line_t[0].min(), line_t[0].max()]), 1.0, False,
                           outer_ks, ys, ws, faces)[0]
    x_max = max(aff_range.max(), -aff_range.min()) + abs(c_z) * max(-z[0], z[-1])
    least = _unshift(max(w.weight for w in w_list), -steps) * 1e-30  # scale's floor, shifted
    todo, bound, read_above, z_edge = kept_lines(), None, np.inf, np.zeros(2)
    while True:
        count = 0
        for slope, base, weight, aff, on_face in _tiles(todo, rows):
            k = slope.size
            count += k
            lhs[:k, 0], lhs[:k, 1] = slope, base
            t = np.matmul(lhs[:k], outer, out=buf[:k])
            if t[:, ::n - 1].min() < _EXP_FLOOR:  # the exponent is concave along a line
                np.maximum(t, _EXP_FLOOR, out=t)
            np.exp(t, out=t)
            sums += weight.T @ (t @ wz)
            if on_face.any():
                edge = np.maximum(edge, [(t[on_face] * np.abs(aff[on_face, None] + c_z * z)).max(),
                                         t[on_face].max()])
        if bound is not None:
            if not count:
                break  # z_edge holds the faces of the lines above the last bound
            read_above = min(read_above, bound)
        mass = float(sums[1, 0])
        moment = mass if x is None else float(sums[0, 0] + c_z * sums[1, 1])
        scale = np.maximum(np.abs([moment, mass]), least)
        bound = np.log(1e-9 * scale / [x_max or 1.0, 1.0]).min() - np.log(cell) - 1
        z_edge = np.zeros(2)
        todo = near_lines(bound, read_above, z_edge)
    edge = np.maximum(edge, z_edge)

    integrals = _unshift(mass, steps), _unshift(moment, steps)
    if np.isinf(integrals).any():
        raise ValidationError(
            "range", f"the grid integrals exceed the float range (largest double "
            f"{np.finfo(float).max:.3e}): ln ∫ΠW ≈ {np.log(mass) + shift:.1f}")
    problems = []
    if aliasing > _ALIAS_WARN:
        problems.append(
            f"grid spacing {widest / (n - 1):.3e} leaves an aliasing error bound "
            f"{aliasing:.3e} relative to the integrals, above {_ALIAS_WARN:g}: the "
            f"product's narrowest standard deviation is {np.sqrt(least_var):.3e}")
    # an integral that underflows to 0.0 has no relative error to report
    if integrals[0] and (edge * cell > 1e-9 * scale).any():
        errors = [_unshift(float(e * cell), steps) for e in edge]
        problems.append(
            f"grid truncation error estimates {errors[0]:.3e}, {errors[1]:.3e} are large "
            f"relative to the integrals {integrals[1]:.3e}, {integrals[0]:.3e} of ΠW·X, ΠW")
    if problems:
        warnings.warn("; ".join(problems), stacklevel=2)
    return integrals


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


def _tiles(blocks, rows: int):
    """The lines of a stream of column blocks, in order, in tiles of `rows`
    lines (the last one shorter): a tile may span blocks."""
    held = None  # the lines of an unfinished tile
    for block in blocks:
        if held is not None:
            m = rows - len(held[0])
            held = [np.concatenate([h, c[:m]]) for h, c in zip(held, block)]
            block = [c[m:] for c in block]
            if len(held[0]) < rows:
                continue
            yield held
        cut = len(block[0]) - len(block[0]) % rows
        for lo in range(0, cut, rows):
            yield [c[lo:lo + rows] for c in block]
        held = [c[cut:] for c in block] if cut < len(block[0]) else None
    if held is not None:
        yield held
