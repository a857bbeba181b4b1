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


class NegligibleOverlap(ValueError):
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
            f"overlap weight {weight:.3e} below {OVERLAP_FLOOR:g}"
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
            f"overlap weight {product.weight:.3e} below {OVERLAP_FLOOR:g}"
        )
    return float(x.coeffs @ product.mean + x.offset)


def numeric_wigner_integral(w_list, x: LinearQuadrature | None = None,
                            points_per_axis: int | None = None,
                            half_width_sigmas: float = 8.0) -> tuple[float, float]:
    """Tensor-grid trapezoid quadrature: the pair (∫ Π W_i, ∫ Π W_i · X).

    X ≡ 1 without a quadrature, and then the two entries are the same float.
    Supported for 1–2 modes.  The grid spans the union of each Gaussian's
    ±half_width_sigmas interval per axis; trapezoid quadrature converges
    spectrally for Gaussians, so modest point counts reach ~1e-8.  Each
    grid point costs one exp, one floor and a share of two matrix products.
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

    # the exponent over axis-0 rows x₀ × inner points y (axes 1..dim-1) is the
    # product [x₀, 1, s(x₀)]·[slope(y), base(y), 1]; the y terms, the weights
    # and the faces of the inner grid are built as per-axis outer sums
    shape = (n,) * (dim - 1)
    ys = [a.reshape((n,) + (1,) * (dim - 2 - k)) for k, a in enumerate(axes[1:])]
    inner = np.multiply.outer([lin[0], log_const, 1.0], np.ones(shape))
    slope, base = inner[0], inner[1]  # views, completed below
    weight, on_face = np.ones(shape), np.zeros(shape, dtype=bool)
    for k, y in enumerate(ys, start=1):
        base += (lin[k] - 0.5 * prec[k, k] * y) * y
        for j in range(k + 1, dim):
            base -= prec[k, j] * y * ys[j - 1]
        slope -= prec[0, k] * y
        weight *= axis_w[k].reshape(y.shape)
        on_face |= np.isin(np.arange(n), [0, n - 1]).reshape(y.shape)
    inner, weight, faces = inner.reshape(3, -1), weight.ravel(), np.flatnonzero(on_face)
    x0 = axes[0]
    outer = np.stack([x0, np.ones(n), -0.5 * prec[0, 0] * x0 * x0], axis=1)
    # X = c0·x₀ + aff(y), and X ≡ 1 without a quadrature; the weight·aff
    # column sums aff, and the weight column sums ΠW and the c0·x₀ part of X
    c0, aff = (0.0, np.ones(weight.size)) if x is None else (
        x.coeffs[0], np.ravel(x.offset + sum(c * y for c, y in zip(x.coeffs[1:], ys))))
    wmat = np.stack([weight * aff] + ([weight] if x is not None else []), axis=1)

    # tiles of axis-0 rows × a chunk of the inner grid; the truncation estimates
    # are the largest |integrand·X| and |integrand| on the grid's 2·dim faces
    m = weight.size
    cols = max(1, min(m, _TILE_POINTS // _TILE_ROWS))
    rows = max(1, _TILE_POINTS // cols)
    buf = np.empty((rows, cols))
    sums = np.zeros((n, wmat.shape[1]))
    edge = np.zeros(2)
    for lo in range(0, m, cols):
        c = slice(lo, min(lo + cols, m))
        face = faces[np.searchsorted(faces, c.start):np.searchsorted(faces, c.stop)]
        at_face, face_col = np.empty((n, face.size)), face - lo
        for r0 in range(0, n, rows):
            r = slice(r0, min(r0 + rows, n))
            t = buf[:r.stop - r0, :c.stop - lo]
            np.matmul(outer[r], inner[:, c], out=t)
            np.maximum(t, _EXP_FLOOR, out=t)
            np.exp(t, out=t)
            sums[r] += t @ wmat[c]
            np.take(t, face_col, axis=1, out=at_face[r])
            for i in {0, n - 1} & {r0, r.stop - 1}:  # the axis-0 faces
                row = t[i - r0]
                edge = np.maximum(edge, [(row * np.abs(c0 * x0[i] + aff[c])).max(),
                                         row.max()])
        edge[1] = max(edge[1], at_face.max(initial=0.0))
        at_face *= np.abs(c0 * x0[:, None] + aff[face])
        edge[0] = max(edge[0], at_face.max(initial=0.0))
    moment = float(axis_w[0] @ (sums[:, 0] + c0 * x0 * sums[:, -1]))
    mass = float(axis_w[0] @ sums[:, -1])

    cell = float(np.prod([a[1] - a[0] for a in axes]))
    scale = np.maximum(np.abs([moment, mass]), max(w.weight for w in w_list) * 1e-30)
    if (edge * cell > 1e-9 * scale).any():
        warnings.warn(
            f"grid truncation error estimates {edge[0] * cell:.3e}, {edge[1] * cell:.3e} "
            f"are large relative to the integrals {moment:.3e}, {mass:.3e} of ΠW·X, ΠW",
            stacklevel=2,
        )
    return mass, moment
