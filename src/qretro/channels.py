"""Completely positive trace-preserving maps in their common guises.

Every channel is stored as a list of Kraus operators; every constructor
(Stinespring dilation, classical transition matrix, classical-quantum
ensemble, measurement map, partial trace) lowers to it, so application and
CPTP validation follow one uniform path.  The list is not minimal:
composition multiplies Kraus counts, so it can exceed the Choi rank.
Each Kraus contraction is a pair of BLAS matrix products, O(K·d³).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operator_core import (
    CPTP_TOL,
    PSD_TOL,
    Spectrum,
    ValidationError,
    _density_with_spectrum,
    as_hermitian,
    as_square,
    hermitian_part,
)


@dataclass(frozen=True)
class CptpReport:
    """Diagnostics from validate_cptp."""

    tp_deviation: float
    choi_min_eigenvalue: float
    accepted: bool


class QuantumChannel:
    """A CPTP map κ stored as a list of Kraus operators.

    Non-trace-preserving Kraus lists are rejected at construction; pass a
    list to :func:`validate_cptp` instead to diagnose a broken map.
    """

    def __init__(self, kraus):
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise ValidationError("kraus", "empty Kraus list")
        shape = ops[0].shape
        if len(shape) != 2 or any(k.shape != shape for k in ops):
            raise ValidationError("kraus", "Kraus operators must share one 2-D shape")
        self.kraus = np.stack(ops)
        self.dim_out, self.dim_in = shape
        dev = _tp_deviation(self.kraus)
        if dev > CPTP_TOL:
            raise ValidationError(
                "cptp", f"Σ K†K deviates from identity by {dev:.3e}"
            )

    def __call__(self, rho) -> np.ndarray:
        return apply_channel(self, rho)

    def then(self, other: "QuantumChannel") -> "QuantumChannel":
        """Composition: first self, then `other`."""
        if other.dim_in != self.dim_out:
            raise ValidationError(
                "shape", f"cannot compose: {other.dim_in} != {self.dim_out}"
            )
        kraus = [b @ a for b in other.kraus for a in self.kraus]
        return QuantumChannel(kraus)

    def choi_matrix(self) -> np.ndarray:
        return _choi(self.kraus)


def _choi(kraus: np.ndarray) -> np.ndarray:
    # Choi matrix (id ⊗ κ)(|Ω⟩⟨Ω|) with the input index as the slow factor.
    vecs = kraus.transpose(0, 2, 1).reshape(len(kraus), -1)
    return vecs.T @ vecs.conj()


def _tp_deviation(kraus: np.ndarray) -> float:
    # Σ K†K = M†M with the Kraus operators stacked as M, (K·d_out, d_in)
    n, dim_out, dim_in = kraus.shape
    m = kraus.reshape(n * dim_out, dim_in)
    return float(np.abs(m.conj().T @ m - np.eye(dim_in)).max())


def apply_channel(k: QuantumChannel, rho) -> np.ndarray:
    """κ(ρ) = Σ K ρ K†.  The input need not be a density operator."""
    rho = as_square(rho, "rho")
    if rho.shape[0] != k.dim_in:
        raise ValidationError(
            "shape", f"input dim {rho.shape[0]} != channel dim_in {k.dim_in}"
        )
    # A = [K_1 … K_K] as (d_out, K·d_in), so κ(ρ) = A (I_K ⊗ ρ) A†: the
    # (d_out·K, d_in) view of A times ρ is A (I_K ⊗ ρ), read back as
    # (d_out, K·d_in), then one product with A†.
    n = k.kraus.shape[0]
    a = k.kraus.transpose(1, 0, 2).reshape(k.dim_out, n * k.dim_in)
    t = (a.reshape(k.dim_out * n, k.dim_in) @ rho).reshape(k.dim_out, n * k.dim_in)
    return t @ a.conj().T


def validate_cptp(k) -> CptpReport:
    """Trace-preservation deviation and Choi-matrix minimum eigenvalue.

    Accepts a QuantumChannel or a bare Kraus list (which may violate CPTP).
    """
    if isinstance(k, QuantumChannel):
        kraus = k.kraus
    else:
        kraus = np.stack([np.asarray(m, dtype=complex) for m in k])
    dev = _tp_deviation(kraus)
    choi = _choi(kraus)
    wmin = float(np.linalg.eigvalsh(hermitian_part(choi)).min())
    return CptpReport(
        tp_deviation=dev,
        choi_min_eigenvalue=wmin,
        accepted=(dev <= CPTP_TOL and wmin >= -PSD_TOL),
    )


def channel_from_dilation(u, env, dims, traced, kept) -> QuantumChannel:
    """Lower a Stinespring dilation ρ ↦ tr_traced U(ρ ⊗ env)U† to Kraus form.

    `dims` lists the tensor factors with the channel input on factor 0 and
    the environment state `env` on the product of the remaining factors.
    `kept` is the single output factor; `traced` are the factors traced out
    (together they must cover all factors).
    """
    dims = [int(d) for d in dims]
    u = as_square(u, "u")
    d_total = int(np.prod(dims))
    if u.shape[0] != d_total:
        raise ValidationError("dims", f"U dim {u.shape[0]} != prod(dims) {d_total}")
    if float(np.abs(u.conj().T @ u - np.eye(d_total)).max()) > 1e-10:
        raise ValidationError("unitary", "U is not unitary within 1e-10")
    traced = sorted(set(int(i) for i in traced))
    kept = sorted(set(int(i) for i in kept)) if np.iterable(kept) else [int(kept)]
    if len(kept) != 1:
        raise ValidationError("dims", "kept must be a single subsystem")
    if sorted(traced + kept) != list(range(len(dims))):
        raise ValidationError("dims", "traced and kept must partition the factors")
    d_a = dims[0]
    env, spec = _density_with_spectrum(env, name="env")
    if env.shape[0] * d_a != d_total:
        raise ValidationError("dims", "env dimension inconsistent with dims")

    kraus = []
    (k_idx,) = kept
    perm = traced + kept  # row-axis order: traced factors first, kept last
    d_tr = int(np.prod([dims[i] for i in traced])) if traced else 1
    d_keep = dims[k_idx]
    for p, vec in zip(spec.eigenvalues, spec.eigenvectors.T):
        if p < 1e-14:  # rank-deficient environments (pure states) are common
            continue
        cols = u @ np.kron(np.eye(d_a), vec.reshape(-1, 1))  # (d_total, d_a)
        t = cols.reshape(dims + [d_a]).transpose(perm + [len(dims)])
        blocks = t.reshape(d_tr, d_keep, d_a)
        kraus.extend(np.sqrt(p) * blocks[j] for j in range(d_tr))
    return QuantumChannel(kraus)


@dataclass(frozen=True, eq=False)
class ClassicalChannel:
    """Column-stochastic transition matrix P(y|x), columns indexed by x."""

    transition: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.transition, dtype=float)
        if t.ndim != 2:
            raise ValidationError("shape", "transition must be a 2-D matrix")
        if not np.all(np.isfinite(t)):
            raise ValidationError("finite", "transition contains NaN or Inf entries")
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

    `spectra` holds the one `eigh` of each effect that the PSD check reads.
    """

    effects: tuple
    labels: tuple
    spectra: tuple

    def __init__(self, effects, labels=None):
        eff = tuple(as_hermitian(e, name="effect") for e in effects)
        if not eff:
            raise ValidationError("povm", "empty effect list")
        dim = eff[0].shape[0]
        if any(e.shape[0] != dim for e in eff):
            raise ValidationError("shape", "effects must share one dimension")
        spectra = tuple(Spectrum.of(e) for e in eff)
        for i, spec in enumerate(spectra):
            wmin = float(spec.eigenvalues.min())
            if wmin < -PSD_TOL:
                raise ValidationError("psd", f"effect {i} has eigenvalue {wmin:.3e}")
        total = sum(eff)
        if float(np.abs(total - np.eye(dim)).max()) > CPTP_TOL:
            raise ValidationError("completeness", "effects must sum to identity")
        labels = tuple(range(len(eff))) if labels is None else tuple(labels)
        if len(labels) != len(eff):
            raise ValidationError("labels", f"{len(labels)} labels for {len(eff)} effects")
        object.__setattr__(self, "effects", eff)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "spectra", spectra)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def effect(self, label):
        try:
            return self.effects[self.labels.index(label)]
        except ValueError:
            raise ValidationError("label", f"unknown outcome label {label!r}") from None


def channel_from_classical(c: ClassicalChannel) -> QuantumChannel:
    """Kraus operators {√P(y|x) |y⟩⟨x|}; embeds a classical channel."""
    t = c.transition
    kraus = []
    for y in range(c.n_out):
        for x in range(c.n_in):
            p = t[y, x]
            if p == 0.0:
                continue
            k = np.zeros((c.n_out, c.n_in), dtype=complex)
            k[y, x] = np.sqrt(p)
            kraus.append(k)
    return QuantumChannel(kraus)


def channel_from_cq_ensemble(states) -> QuantumChannel:
    """κ(ρ) = Σ_x ρ_x ⟨x|ρ|x⟩ for a classical-quantum ensemble {ρ_x}."""
    spectra = [_density_with_spectrum(s, name=f"state {x}")[1]
               for x, s in enumerate(states)]
    n_in = len(spectra)
    d_out = spectra[0].eigenvectors.shape[0]
    if any(spec.eigenvectors.shape[0] != d_out for spec in spectra):
        raise ValidationError("shape", "ensemble states must share one dimension")
    kraus = []
    for x, spec in enumerate(spectra):
        for lam, vec in zip(spec.eigenvalues, spec.eigenvectors.T):
            if lam < 1e-14:
                continue
            k = np.zeros((d_out, n_in), dtype=complex)
            k[:, x] = np.sqrt(lam) * vec
            kraus.append(k)
    return QuantumChannel(kraus)


def channel_from_povm(p: Povm) -> QuantumChannel:
    """Measurement map κ(ρ) = Σ_y [tr E(y)ρ] |y⟩⟨y|, from the effects' spectra."""
    n_out = len(p.effects)
    kraus = []
    for y, spec in enumerate(p.spectra):
        for lam, vec in zip(spec.eigenvalues, spec.eigenvectors.T):
            if lam < 1e-14:
                continue
            k = np.zeros((n_out, p.dim), dtype=complex)
            k[y, :] = np.sqrt(lam) * vec.conj()
            kraus.append(k)
    return QuantumChannel(kraus)


def partial_trace_channel(dims, keep) -> QuantumChannel:
    """The partial trace over the factors not in `keep`, as a channel."""
    dims = [int(d) for d in dims]
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ValidationError("keep", "empty keep set")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValidationError("keep", f"keep indices {keep} out of range")
    traced = [i for i in range(len(dims)) if i not in keep]
    d_total = int(np.prod(dims))
    d_keep = int(np.prod([dims[i] for i in keep]))
    d_tr = int(np.prod([dims[i] for i in traced])) if traced else 1
    ident = np.eye(d_total, dtype=complex)
    t = ident.reshape(dims + [d_total]).transpose(keep + traced + [len(dims)])
    blocks = t.reshape(d_keep, d_tr, d_total)
    kraus = [blocks[:, e, :] for e in range(d_tr)]
    return QuantumChannel(kraus)


def identity_channel(dim: int) -> QuantumChannel:
    return QuantumChannel([np.eye(dim, dtype=complex)])


def depolarizing_channel(dim: int) -> QuantumChannel:
    """Fully depolarizing: κ(ρ) = tr(ρ) I/d, Kraus operators |i⟩⟨j|/√d."""
    kraus = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
    return QuantumChannel(kraus / np.sqrt(dim))
