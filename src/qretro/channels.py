"""Completely positive trace-preserving maps in their common guises.

Every channel is stored as a (…, K, d_out, d_in) array of Kraus operators;
every constructor (Stinespring dilation, classical transition matrix,
classical-quantum ensemble, measurement map, partial trace) lowers to it,
so application and CPTP validation follow one uniform path.  The dilation,
classical-quantum and measurement lowerings make Kraus operators from one
stacked spectrum of the environment state, the ensemble states or the
effects; an eigenvalue below KRAUS_CUTOFF, such as a pure environment's
zeros, makes none.  A dilation is the isometry of each environment
eigenpair followed by the partial trace, whose Kraus operators are the one
place the kept and traced factors are laid out.
The Kraus count is not minimal: composition multiplies Kraus counts, so it
can exceed the Choi rank.
Each Kraus contraction is a pair of BLAS matrix products, O(K·d³).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operator_core import (
    CPTP_TOL,
    PSD_TOL,
    Spectrum,
    ValidationError,
    _density_with_spectrum,
    as_array,
    as_hermitian,
    as_keep,
    as_square,
    as_unitary,
    dagger,
    hermitian_part,
    require,
    require_fit,
    require_size,
)

KRAUS_CUTOFF = 1e-14  # eigenvalues below it make no Kraus operator


@dataclass(frozen=True)
class CptpReport:
    """Diagnostics from validate_cptp."""

    tp_deviation: float
    choi_min_eigenvalue: float
    accepted: bool


class QuantumChannel:
    """A CPTP map κ stored as a list of Kraus operators.

    `kraus` is a (K, d_out, d_in) array, or (…, K, d_out, d_in) for a stack
    of channels with one Kraus count, which `apply_channel` applies to a
    stack of operators element by element.  Non-trace-preserving Kraus lists
    are rejected at construction; pass a list to :func:`validate_cptp`
    instead to diagnose a broken map.
    """

    def __init__(self, kraus):
        self.kraus = _as_kraus(kraus)
        self.dim_out, self.dim_in = self.kraus.shape[-2:]
        dev = _tp_deviation(self.kraus)
        require(dev > CPTP_TOL, "cptp", "Σ K†K", "deviates from identity by {:.3e}", dev)

    def then(self, other: "QuantumChannel") -> "QuantumChannel":
        """Composition: first self, then `other`."""
        require_fit(self=(self.kraus, (..., *self.kraus.shape[-3:])),
                    other=(other.kraus, (..., *other.kraus.shape[-3:-1], self.dim_out)))
        # every product B_b A_a, ordered with b the slow index
        prod = other.kraus[..., :, None, :, :] @ self.kraus[..., None, :, :, :]
        return QuantumChannel(prod.reshape(*prod.shape[:-4], -1, *prod.shape[-2:]))


def _as_kraus(kraus) -> np.ndarray:
    """The Kraus list as a (…, K, d_out, d_in) complex array, no axis empty."""
    kraus = as_array(kraus, complex, "kraus")
    if kraus.ndim < 3 or 0 in kraus.shape:
        raise ValidationError("kraus", f"need a list of non-empty 2-D operators, got shape {kraus.shape}")
    return kraus


def _choi(kraus: np.ndarray) -> np.ndarray:
    # Choi matrix (id ⊗ κ)(|Ω⟩⟨Ω|) with the input index as the slow factor.
    require_fit(k=(kraus, kraus.shape[-3:]))
    vecs = kraus.transpose(0, 2, 1).reshape(len(kraus), -1)
    return vecs.T @ vecs.conj()


def _tp_deviation(kraus: np.ndarray):
    # Σ K†K = M†M with the Kraus operators stacked as M, (K·d_out, d_in)
    *lead, n, dim_out, dim_in = kraus.shape
    m = kraus.reshape(*lead, n * dim_out, dim_in)
    return np.abs(dagger(m) @ m - np.eye(dim_in)).max(axis=(-2, -1))


def apply_channel(k: QuantumChannel, rho) -> np.ndarray:
    """κ(ρ) = Σ K ρ K†.  The input need not be a density operator.

    A stack of channels, of operators, or both is applied element by
    element over the broadcast leading axes.
    """
    rho = as_square(rho, "rho")
    *lead, n, dim_out, dim_in = k.kraus.shape
    stack = require_fit(k=(k.kraus, (..., n, dim_out, dim_in)), rho=(rho, (..., dim_in, dim_in)))
    # A = [K_1 … K_K] as (d_out, K·d_in), so κ(ρ) = A (I_K ⊗ ρ) A†: the
    # (d_out·K, d_in) view of A times ρ is A (I_K ⊗ ρ), read back as
    # (d_out, K·d_in), then one product with A†.
    a = k.kraus.swapaxes(-3, -2).reshape(*lead, dim_out, n * dim_in)
    t = (a.reshape(*lead, dim_out * n, dim_in) @ rho).reshape(*stack, dim_out, n * dim_in)
    return t @ dagger(a)


def validate_cptp(k) -> CptpReport:
    """Trace-preservation deviation and Choi-matrix minimum eigenvalue.

    Accepts a QuantumChannel or a bare Kraus list (which may violate CPTP).
    """
    kraus = k.kraus if isinstance(k, QuantumChannel) else _as_kraus(k)
    choi = _choi(kraus)
    dev = float(_tp_deviation(kraus))
    wmin = float(np.linalg.eigvalsh(hermitian_part(choi)).min())
    return CptpReport(
        tp_deviation=dev,
        choi_min_eigenvalue=wmin,
        accepted=(dev <= CPTP_TOL and wmin >= -PSD_TOL),
    )


def channel_from_dilation(u, env, dims, kept) -> QuantumChannel:
    """Lower a Stinespring dilation ρ ↦ tr_traced U(ρ ⊗ env)U† to Kraus form.

    `dims` lists the tensor factors with the channel input on factor 0 and
    the environment state `env` on the product of the remaining factors.
    The output is on the factors listed in `kept`; the others are traced.
    """
    dims, kept = as_keep(dims, kept)
    u = as_unitary(u, int(np.prod(dims)))
    d_a = dims[0]
    env, spec = _density_with_spectrum(env, name="env")
    require_fit(env=(env, (math.prod(dims[1:]),) * 2))
    # the isometry √λ·U(I ⊗ |v⟩) of each eigenpair of env, then each Kraus
    # operator of the partial trace, with v the slow index
    _, roots, vecs = _kraus_roots(spec)
    iso = roots[:, None, None] * (u @ np.kron(np.eye(d_a), vecs[:, :, None]))
    kraus = partial_trace_channel(dims, kept).kraus @ iso[:, None]
    return QuantumChannel(kraus.reshape(-1, *kraus.shape[-2:]))


def _kraus_roots(spec: Spectrum):
    """Arrays (i, √λ, v) over the eigenpairs (λ, v) with λ ≥ KRAUS_CUTOFF, by
    stack element, then by eigenpair; i is the tuple of their stack indices."""
    keep = np.nonzero(spec.eigenvalues >= KRAUS_CUTOFF)
    return keep[:-1], np.sqrt(spec.eigenvalues[keep]), spec.eigenvectors.swapaxes(-1, -2)[keep]


@dataclass(frozen=True, eq=False)
class ClassicalChannel:
    """Column-stochastic transition matrix P(y|x), columns indexed by x."""

    transition: np.ndarray

    def __post_init__(self):
        t = as_array(self.transition, float, "transition")
        if t.ndim != 2 or 0 in t.shape:
            raise ValidationError("shape", "transition must be a non-empty 2-D matrix")
        if t.min() < 0:
            raise ValidationError("stochastic", f"negative entry {t.min():.3e}")
        colsums = t.sum(axis=0)
        if float(np.abs(colsums - 1.0).max()) > 1e-12:
            raise ValidationError("stochastic", "columns must sum to 1 within 1e-12")
        object.__setattr__(self, "transition", t)

    @property
    def n_in(self) -> int:
        return self.transition.shape[1]

    @property
    def n_out(self) -> int:
        return self.transition.shape[0]


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operator-valued measure: PSD effects summing to identity.

    `effects` is one (n, d, d) array, checked as a stack, so a failure names
    its effect, as in `effect[1]`; `spectra` is its one `eigh`, which the PSD
    check and `channel_from_povm` read.
    """

    effects: np.ndarray
    labels: tuple
    spectra: Spectrum

    def __init__(self, effects, labels=None):
        eff = as_hermitian(effects, name="effect")
        require_fit(effect=(eff, (len(eff), *eff.shape[-2:])))
        spectra = Spectrum.of(eff)
        spectra.require_psd("effect")
        if float(np.abs(eff.sum(axis=0) - np.eye(eff.shape[-1])).max()) > CPTP_TOL:
            raise ValidationError("completeness", "effects must sum to identity")
        if labels is None:
            labels = range(len(eff))
        elif not isinstance(labels, (list, tuple)):  # a str or dict would iterate silently
            raise ValidationError("labels", f"need a list of {len(eff)} labels, "
                                            f"got {type(labels).__name__}")
        labels = tuple(labels)
        if len(labels) != len(eff):
            raise ValidationError("labels", f"{len(labels)} labels for {len(eff)} effects")
        for i, y in enumerate(labels):  # a failure names its label by index
            if any(isinstance(v, float) and not math.isfinite(v) for v in _leaves([y])):
                raise ValidationError("labels", f"labels[{i}] holds NaN or Inf")
            try:  # JSON labels may be lists, which do not hash: compare them by ==
                first = labels.index(y)
            except RecursionError:
                raise ValidationError("labels", f"labels[{i}] nests too deep to compare") from None
            if first != i:
                raise ValidationError("labels", f"labels[{i}] repeats labels[{first}]")
        object.__setattr__(self, "effects", eff)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "spectra", spectra)

    @property
    def dim(self) -> int:
        return self.effects.shape[-1]


def _leaves(labels) -> list:
    """Every leaf of a label list; JSON labels nest lists and objects, to any
    depth, so the walk keeps its own list of nodes rather than recursing."""
    nodes, leaves = [labels], []
    for node in nodes:  # `nodes` grows as the walk finds nested ones
        for y in node.values() if isinstance(node, dict) else node:
            (nodes if isinstance(y, (list, tuple, dict)) else leaves).append(y)
    return leaves


def channel_from_classical(c: ClassicalChannel) -> QuantumChannel:
    """Kraus operators {√P(y|x) |y⟩⟨x|}; embeds a classical channel."""
    y, x = np.nonzero(c.transition)
    kraus = np.zeros((len(y), c.n_out, c.n_in), dtype=complex)
    kraus[np.arange(len(y)), y, x] = np.sqrt(c.transition[y, x])
    return QuantumChannel(kraus)


def channel_from_cq_ensemble(states) -> QuantumChannel:
    """κ(ρ) = Σ_x ρ_x ⟨x|ρ|x⟩ for a classical-quantum ensemble {ρ_x}."""
    states, spec = _density_with_spectrum(states, name="state")
    require_fit(state=(states, (len(states), *states.shape[-2:])))
    (x,), roots, vecs = _kraus_roots(spec)
    kraus = np.zeros((len(x), states.shape[-1], len(states)), dtype=complex)
    kraus[np.arange(len(x)), :, x] = roots[:, None] * vecs
    return QuantumChannel(kraus)


def channel_from_povm(p: Povm) -> QuantumChannel:
    """Measurement map κ(ρ) = Σ_y [tr E(y)ρ] |y⟩⟨y|, from the effects' spectra."""
    (y,), roots, vecs = _kraus_roots(p.spectra)
    kraus = np.zeros((len(y), len(p.effects), p.dim), dtype=complex)
    kraus[np.arange(len(y)), y, :] = roots[:, None] * vecs.conj()
    return QuantumChannel(kraus)


def partial_trace_channel(dims, keep) -> QuantumChannel:
    """The partial trace over the factors not in `keep`, as a channel."""
    dims, keep = as_keep(dims, keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    d_total = int(np.prod(dims))
    d_keep = int(np.prod([dims[i] for i in keep]))
    d_tr = int(np.prod([dims[i] for i in traced])) if traced else 1
    ident = np.eye(d_total, dtype=complex)
    t = ident.reshape(dims + [d_total]).transpose(keep + traced + [len(dims)])
    blocks = t.reshape(d_keep, d_tr, d_total)
    return QuantumChannel(blocks.transpose(1, 0, 2))


def identity_channel(dim: int) -> QuantumChannel:
    require_size("identity dimension", dim, 2)
    return QuantumChannel([np.eye(dim, dtype=complex)])


def depolarizing_channel(dim: int) -> QuantumChannel:
    """Fully depolarizing: κ(ρ) = tr(ρ) I/d, Kraus operators |i⟩⟨j|/√d."""
    require_size("depolarizing dimension", dim, 4)  # d² Kraus operators of d² entries
    kraus = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
    return QuantumChannel(kraus / np.sqrt(dim))
