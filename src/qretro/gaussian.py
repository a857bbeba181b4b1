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
# grid points per tile of the quadrature oracle (a tile stays in cache) and
# its least number of axis-0 rows (fewer rows make the matrix products slower)
_TILE_POINTS, _TILE_ROWS = 1 << 15, 8
# oracle exponents are floored here (e^-700 ≈ 1e-304): exp is ~20× slower below -708
_EXP_FLOOR = -700.0
# the oracle skips a grid line whose largest exponent lies more than τ below
# the grid's peak G.  A skipped point weighs at most cell·e^(G−τ) (times |X|
# in ∫ΠW·X), and the peak point alone puts at least 2^−dim·cell·e^G into ∫ΠW,
# so N skipped points move ∫ΠW by at most N·2^dim·e^−τ of itself, and ∫ΠW·X
# by that times max|X|·∫ΠW.  τ = 90·ln 2 and N·2^dim < 2^30 on the default
# grids keep both below 2^−53, with a factor 2^7 to spare for max|X|.
_SKIP_BELOW = 90 * np.log(2)


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
    overlap = np.exp(-0.5 * delta @ np.linalg.solve(sigma_sum, delta)) / (
        (2 * np.pi) ** (dim / 2) * np.sqrt(np.linalg.det(sigma_sum))
    )
    weight = wr.weight * we.weight * float(overlap)
    if weight <= OVERLAP_FLOOR:
        raise NegligibleOverlap(
            "overlap", f"overlap weight {weight:.3e} below {OVERLAP_FLOOR:g}"
        )
    return GaussianWigner(mean=mean, covariance=cov, weight=weight)


def quadrature_estimator(wr: GaussianWigner, we: GaussianWigner,
                         x: LinearQuadrature) -> float:
    """∫ W_E W_ρ X / ∫ W_E W_ρ for linear X: X evaluated at the product mean."""
    if x.coeffs.size != wr.mean.size:
        raise ValidationError("shape", "quadrature coefficient length != 2n")
    product = gaussian_product(wr, we)
    if product.weight <= OVERLAP_FLOOR:
        raise NegligibleOverlap(
            "overlap", f"overlap weight {product.weight:.3e} below {OVERLAP_FLOOR:g}"
        )
    return float(x.coeffs @ product.mean + x.offset)


def numeric_wigner_integral(w_list, x: LinearQuadrature | None = None,
                            points_per_axis: int | None = None,
                            half_width_sigmas: float = 8.0) -> tuple[float, float]:
    """Tensor-grid trapezoid quadrature: the pair (∫ Π W_i, ∫ Π W_i · X).

    X ≡ 1 without a quadrature, and then the two entries are the same float.
    Supported for 1–2 modes.  The grid spans the union of each Gaussian's
    ±half_width_sigmas interval per axis; trapezoid quadrature converges
    spectrally for Gaussians, so modest point counts reach ~1e-8.  Grid lines
    whose integrand stays below 2^-90 of the grid's peak are skipped (the
    error bound is at _SKIP_BELOW); each other point costs one exp, one floor
    and a share of two matrix products.
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
    n = points_per_axis or (801 if n_modes == 1 else 81)
    if n < 2:
        raise ValidationError("grid", f"need at least 2 points per axis, got {n}")

    axes, axis_w = [], []
    for i in range(dim):
        half = [half_width_sigmas * np.sqrt(w.covariance[i, i]) for w in w_list]
        grid = np.linspace(min(w.mean[i] - h for w, h in zip(w_list, half)),
                           max(w.mean[i] + h for w, h in zip(w_list, half)), n)
        wvec = np.full(n, grid[1] - grid[0])  # trapezoid weights
        wvec[[0, -1]] /= 2
        axes.append(grid)
        axis_w.append(wvec)

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
            - 0.5 * (dim * np.log(2 * np.pi) + np.log(np.linalg.det(w.covariance)))
        )

    # lines along the last axis z: on the line through the other axes' point y
    # the exponent is [slope(y), base(y), 1]·[z, 1, −½P_zz·z²] and X is
    # c_z·z + aff(y) (X ≡ 1 without a quadrature).  The y terms, weights and
    # faces are outer sums, from the last y axis back to keep them small.
    last = dim - 1
    ys = [a.reshape((n,) + (1,) * (last - 1 - k)) for k, a in enumerate(axes[:last])]
    coeffs, aff = (np.zeros(dim), 1.0) if x is None else (x.coeffs, x.offset)
    slope, base, weight, on_face = lin[last], log_const, 1.0, False
    for k, y in reversed(list(enumerate(ys))):
        base = base + ((lin[k] - 0.5 * prec[k, k] * y) * y
                       - sum(prec[k, j] * y * ys[j] for j in range(k + 1, last)))
        slope = slope - prec[k, last] * y
        aff = aff + coeffs[k] * y
        weight = weight * axis_w[k].reshape(y.shape)
        on_face = on_face | (np.arange(n) % (n - 1) == 0).reshape(y.shape)
    weight = np.stack([weight * aff, weight], axis=-1).reshape(-1, 2)
    slope, base, aff, on_face = map(np.ravel, (slope, base, aff, on_face))
    z, curv, c_z = axes[last], prec[last, last], coeffs[last]
    outer = np.stack([z, np.ones(n), -0.5 * curv * z * z])

    # along a line the exponent is a concave quadratic, so its largest value
    # on [z₀, z_{n−1}], top, sits at the clamped vertex (floored like the
    # grid).  The reference g_ref is the largest grid value on the line of the
    # largest top, a value the grid attains: top can overshoot it far.
    vertex = np.clip(slope / curv, z[0], z[-1])
    top = np.maximum(base + (slope - 0.5 * curv * vertex) * vertex, _EXP_FLOOR)
    best = int(np.argmax(top))
    g_ref = float((base[best] + (slope[best] - 0.5 * curv * z) * z).max())
    del vertex

    # the kept lines in chunks: one matrix product gives the exponent, a
    # second each line's sums of w_z·e^G and w_z·z·e^G, and the line weights
    # [weight·aff, weight] turn those into ∫ΠW·X (with c_z) and ∫ΠW.  Face
    # values (the truncation estimates' |integrand·X|, |integrand|) are at
    # most e^top·x_max and e^top on a line: lines whose bound could trip the
    # test (with e to spare) are read exactly, skipped ones on a face in full.
    rows = max(_TILE_ROWS, _TILE_POINTS // n)
    lhs, buf = np.ones((rows, 3)), np.empty((rows, n))
    wz = np.stack([axis_w[last], axis_w[last] * z], axis=1)
    sums, edge, done = np.zeros((2, 2)), np.zeros(2), np.zeros(top.size, dtype=bool)
    cell = float(np.prod([a[1] - a[0] for a in axes]))
    x_max = max(aff.max(), -aff.min()) + abs(c_z) * max(-z[0], z[-1])
    todo = np.flatnonzero(top >= g_ref - _SKIP_BELOW)
    while todo.size:
        done[todo] = True
        for lo in range(0, todo.size, rows):
            idx = todo[lo:lo + rows]
            k = idx.size
            lhs[:k, 0], lhs[:k, 1] = slope[idx], base[idx]
            t = np.matmul(lhs[:k], outer, out=buf[:k])
            np.maximum(t, _EXP_FLOOR, out=t)
            np.exp(t, out=t)
            sums += np.take(weight, idx, axis=0).T @ (t @ wz)
            if (f := on_face[idx]).any():
                edge = np.maximum(edge, [(t[f] * np.abs(aff[idx[f], None] + c_z * z)).max(),
                                         t[f].max()])
        mass = float(sums[1, 0])
        moment = mass if x is None else float(sums[0, 0] + c_z * sums[1, 1])
        scale = np.maximum(np.abs([moment, mass]), max(w.weight for w in w_list) * 1e-30)
        near = top > np.log(1e-9 * scale / [x_max or 1.0, 1.0]).min() - np.log(cell) - 1
        todo = np.flatnonzero(near & on_face & ~done)
    near = np.flatnonzero(near)
    for zj in z[::n - 1]:
        e = np.exp(np.maximum(base[near] + (slope[near] - 0.5 * curv * zj) * zj, _EXP_FLOOR))
        edge = np.maximum(edge, [(e * np.abs(aff[near] + c_z * zj)).max(initial=0.0),
                                 e.max(initial=0.0)])

    if (edge * cell > 1e-9 * scale).any():
        warnings.warn(
            f"grid truncation error estimates {edge[0] * cell:.3e}, {edge[1] * cell:.3e} "
            f"are large relative to the integrals {moment:.3e}, {mass:.3e} of ΠW·X, ΠW",
            stacklevel=2,
        )
    return mass, moment
