"""Seeded random fixtures for sweeps, selftests, and property checks.

All randomness flows through numpy's Philox counter-based generator, so a
single 64-bit seed reproduces every draw bit for bit across platforms.  What
a seed reproduces is the draws: results computed from them go through BLAS
and LAPACK, whose rounding may differ between builds and machines.

`random_density`, `random_hermitian` and `random_channel` each draw a
Ginibre matrix and finish it.  A Ginibre draw is a (2, r, c) block of
standard normals, real plane then imaginary plane, that `_complex_draws`
makes complex.  One `standard_normal` call of n + m normals takes what a
call of n and then one of m take, so a sweep draws all of a problem's
blocks in one call, in generator order.  `_complex_draws` and the finishing
steps take stacks, so the sweep makes complex and finishes all the draws of
one shape in one call each.
"""

from __future__ import annotations

import numpy as np

from .channels import ClassicalChannel, Povm, QuantumChannel
from .gaussian import GaussianWigner, LinearQuadrature
from .operator_core import dagger, hermitian_part, trace


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def ginibre(gen, rows, cols):
    return _complex_draws(gen.standard_normal((2, rows, cols)))


def _complex_draws(normals) -> np.ndarray:
    """A (…, 2, r, c) block of normals as (…, r, c) complex Ginibre draws."""
    return normals[..., 0, :, :] + 1j * normals[..., 1, :, :]


def finish_density(g) -> np.ndarray:
    m = g @ dagger(g)
    return m / trace(m).real[..., None, None]


def _isometry(g) -> np.ndarray:
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity of QR so the distribution is Haar
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def channel_draw(gen, dim_in: int, dim_out: int, n_kraus: int | None = None):
    """The Ginibre draw `random_channel` finishes: (K·dim_out, dim_in)."""
    return ginibre(gen, _kraus_rows(dim_in, dim_out, n_kraus), dim_in)


def _kraus_rows(dim_in: int, dim_out: int, n_kraus: int | None = None) -> int:
    """K·dim_out, the rows of a channel draw: K = max(2, dim_in) unless given."""
    return dim_out * (max(2, dim_in) if n_kraus is None else n_kraus)


def finish_channel(g, dim_out: int) -> QuantumChannel:
    """The CPTP map of a Haar random isometry (Stinespring picture): its
    rows, cut into blocks of dim_out, are the Kraus operators."""
    iso = _isometry(g)  # iso† iso = I
    return QuantumChannel(iso.reshape(*iso.shape[:-2], -1, dim_out, iso.shape[-1]))


def random_hermitian(gen, dim: int, scale: float = 1.0) -> np.ndarray:
    return hermitian_part(ginibre(gen, dim, dim)) * scale


def random_unitary(gen, dim: int) -> np.ndarray:
    return _isometry(ginibre(gen, dim, dim))


def random_psd(gen, dim: int, rank: int | None = None) -> np.ndarray:
    g = ginibre(gen, dim, rank if rank is not None else dim)
    return g @ g.conj().T


def random_density(gen, dim: int, rank: int | None = None) -> np.ndarray:
    return finish_density(ginibre(gen, dim, rank if rank is not None else dim))


def random_probability_vector(gen, n: int) -> np.ndarray:
    p = gen.random(n) + 1e-3
    return p / p.sum()


def random_channel(gen, dim_in: int, dim_out: int | None = None,
                   n_kraus: int | None = None) -> QuantumChannel:
    """Random CPTP map from a Haar random isometry (Stinespring picture)."""
    dim_out = dim_in if dim_out is None else dim_out
    return finish_channel(channel_draw(gen, dim_in, dim_out, n_kraus), dim_out)


def random_povm(gen, dim: int, n_outcomes: int) -> Povm:
    """Random POVM: positive pieces normalized by their sum's inverse square root."""
    pieces = np.array([random_psd(gen, dim) for _ in range(n_outcomes)]) + 1e-3 * np.eye(dim)
    w, v = np.linalg.eigh(sum(pieces))  # in order; `.sum(axis=0)` may pair terms
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return Povm(hermitian_part(inv_sqrt @ pieces @ inv_sqrt))


def random_classical_channel(gen, n_in: int, n_out: int) -> ClassicalChannel:
    t = gen.random((n_out, n_in)) + 1e-3
    return ClassicalChannel(t / t.sum(axis=0, keepdims=True))


def random_gaussian_wigner(gen, n_modes: int, weight: float = 1.0) -> GaussianWigner:
    dim = 2 * n_modes
    g = gen.standard_normal((dim, dim))
    cov = g @ g.T / dim + 0.3 * np.eye(dim)
    mean = gen.uniform(-2.0, 2.0, size=dim)
    return GaussianWigner(mean=mean, covariance=cov, weight=weight)


def random_linear_quadrature(gen, n_modes: int) -> LinearQuadrature:
    return LinearQuadrature(
        coeffs=gen.uniform(-1.5, 1.5, size=2 * n_modes),
        offset=float(gen.uniform(-1.0, 1.0)),
    )
