"""Dense complex-matrix kernel.

Hermitian algebra, tensor products, partial traces, eigendecompositions,
and the Jordan-product linear solve that every estimator in this package
reduces to.  Everything here is a pure function of dense numpy arrays;
matrices are small (desk scale, dims up to a few hundred), so no sparse
path is provided.

The validators, `Spectrum` and `solve_jordan` also take (…, d, d) stacks,
one numpy call per step for many small problems; a (d, d) operator is a
stack of one, and a failed check names a stack's element, as in `rho[3]`.

Validation happens once, where an operator enters a public function,
through `as_square`, `as_hermitian` and `as_density`.  A `Spectrum` is one
`eigh` of a checked operator.  `solve_jordan` and `pseudo_inverse_psd`
accept the `Spectrum` of an operator their caller has already checked and
decomposed; they then neither validate nor decompose again.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

# Tolerances, one home each.  Double-precision eigensolvers at desk-scale
# dimensions achieve these comfortably.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
SUPPORT_TOL = 1e-12  # relative to the largest eigenvalue
CPTP_TOL = 1e-10


class ValidationError(ValueError):
    """An input failed a named structural invariant."""

    def __init__(self, invariant: str, message: str):
        self.invariant = invariant
        super().__init__(f"{invariant}: {message}")


class NumericalFailure(RuntimeError):
    """A numerical routine failed to converge; never silently clamped."""


def failures(failed, name: str):
    """(index, `name[index]`) of each failing element, in order; a single
    operator's index is ()."""
    for k in np.argwhere(failed) if failed.any() else ():
        k = tuple(int(i) for i in k)
        yield k, name + "".join(f"[{i}]" for i in k)


def require(failed, invariant: str, name: str, message: str, value) -> None:
    """Raise ValidationError(invariant) for the first failure, `message`
    formatted with that element's `value`."""
    if bad := next(failures(failed, name), None):
        raise ValidationError(invariant, f"{bad[1]} {message.format(value[bad[0]])}")


def scalar(x):
    """A single operator's 0-d result as a Python scalar; a stack's as is."""
    return x.item() if np.ndim(x) == 0 else x


def dagger(m) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return m.conj().swapaxes(-1, -2)


def trace(m):
    return np.trace(m, axis1=-2, axis2=-1)


def as_square(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a non-empty square complex ndarray (or stack of them), rejecting NaN/Inf."""
    try:
        m = np.asarray(m, dtype=complex)
    except ValueError:  # ragged rows, or an entry that is not a number
        raise ValidationError("shape", f"{name} must be a rectangular array of numbers") from None
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise ValidationError("shape", f"{name} must be square and non-empty, "
                                       f"got shape {m.shape}")
    finite = np.isfinite(m).all(axis=(-2, -1))
    require(~finite, "finite", name, "contains NaN or Inf entries", finite)
    return m


def stack_shape(what: str, *stacks) -> tuple:
    """The broadcast of the leading (stack) shapes of operators used together."""
    try:
        return np.broadcast_shapes(*stacks)
    except ValueError:
        raise ValidationError("shape", f"{what} stacks {stacks} do not broadcast") from None


def hermitian_part(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    return (m + dagger(m)) / 2


def as_hermitian(m, name: str = "operator") -> np.ndarray:
    """Validate hermiticity and return the symmetrized matrix.

    Asymmetry below HERMITICITY_TOL (scaled by the matrix magnitude) is
    silently repaired by storing (M + M†)/2; anything larger is an error.
    """
    m = as_square(m, name)
    mh = dagger(m)
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    asym = np.abs(m - mh).max(axis=(-2, -1))
    require(asym > HERMITICITY_TOL * scale, "hermiticity", name,
            "deviates from Hermitian by {:.3e}", asym)
    return (m + mh) / 2


def as_density(m, name: str = "state") -> np.ndarray:
    """Validate a density operator: Hermitian, PSD, unit trace."""
    return _density_with_spectrum(m, name)[0]


def _density_with_spectrum(m, name: str = "state"):
    """`as_density`'s checks, the PSD test reading one `eigh`: (ρ, its Spectrum)."""
    rho = as_hermitian(m, name=name)
    spec = Spectrum.of(rho)
    tr = trace(rho).real
    require(abs(tr - 1.0) > TRACE_TOL, "trace", name, "has trace {}, expected 1", tr)
    spec.require_psd(name)
    return rho, spec


def jordan_product(a, b) -> np.ndarray:
    """Symmetrized product (ab + ba)/2; Hermitian for Hermitian a, b."""
    a = as_square(a, "a")
    b = as_square(b, "b")
    if a.shape != b.shape:
        raise ValidationError("shape", f"dimension mismatch {a.shape} vs {b.shape}")
    return _jordan(a, b)


def _jordan(a, b) -> np.ndarray:
    """Kernel of `jordan_product` for arrays already checked."""
    return (a @ b + b @ a) / 2


def jordan_trace_gap(x, y, z) -> float:
    """|tr x(y∘z) − tr (x∘y)z|, zero in exact arithmetic for all inputs."""
    lhs = trace(np.asarray(x, dtype=complex) @ jordan_product(y, z))
    rhs = trace(jordan_product(x, y) @ np.asarray(z, dtype=complex))
    return scalar(abs(lhs - rhs))


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the left factor as the slow index."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def embed(op, dims, factor: int) -> np.ndarray:
    """Embed `op` on tensor factor `factor` of a product space, identity elsewhere."""
    op = as_square(op, "op")
    dims, (factor,) = as_keep(dims, [factor])
    if op.shape != (dims[factor],) * 2:
        raise ValidationError(
            "dims", f"operator shape {op.shape} != dims[{factor}] = {dims[factor]}"
        )
    return reduce(tensor, [op if i == factor else np.eye(d) for i, d in enumerate(dims)])


def as_keep(dims, keep) -> tuple[list[int], list[int]]:
    """Positive subsystem dimensions, and a non-empty sorted set of indices into them."""
    try:
        dims, keep = [operator.index(d) for d in dims], sorted({operator.index(k) for k in keep})
    except TypeError:
        raise ValidationError("dims", "dims and keep must list integers") from None
    if not dims or min(dims) < 1:
        raise ValidationError("dims", f"dims must list positive dimensions, got {dims}")
    if not keep:
        raise ValidationError("keep", "empty keep set")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValidationError("keep", f"keep indices {keep} out of range")
    return dims, keep


def as_unitary(u, dim: int) -> np.ndarray:
    """A (dim, dim) matrix U with U†U = I within 1e-10."""
    u = as_square(u, "u")
    if u.shape != (dim, dim):
        raise ValidationError("dims", f"U shape {u.shape} != prod(dims) {dim}")
    if float(np.abs(u.conj().T @ u - np.eye(dim)).max()) > 1e-10:
        raise ValidationError("unitary", "U is not unitary within 1e-10")
    return u


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out the subsystems not listed in `keep`.

    `dims` lists the subsystem dimensions (slow index first); `keep` is a
    nonempty set of subsystem indices retained in their original order.
    """
    m = as_square(m)
    dims, keep = as_keep(dims, keep)
    if (int(np.prod(dims)),) * 2 != m.shape:
        raise ValidationError(
            "dims", f"prod(dims)={np.prod(dims)} != matrix shape {m.shape}"
        )
    # row index i, column index n+i; a traced factor shares one index
    n = len(dims)
    col = [n + i if i in keep else i for i in range(n)]
    out = np.einsum(m.reshape(dims + dims), list(range(n)) + col,
                    keep + [n + i for i in keep])
    dk = int(np.prod([dims[i] for i in keep]))
    return out.reshape(dk, dk)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator (or stack), eigenvalues ascending."""

    eigenvalues: np.ndarray  # (…, d)
    eigenvectors: np.ndarray  # (…, d, d), orthonormal columns

    @classmethod
    def of(cls, h) -> "Spectrum":
        """One `eigh` of an array already checked Hermitian."""
        try:
            return cls(*np.linalg.eigh(h))
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"Hermitian eigensolver failed: {exc}") from exc

    @property
    def wmax(self):
        return self.eigenvalues.max(axis=-1)

    def require_psd(self, name: str) -> None:
        """Reject eigenvalues below −PSD_TOL × max(1, λ_max)."""
        wmin = self.eigenvalues.min(axis=-1)
        require(wmin < -PSD_TOL * np.maximum(1.0, self.wmax), "psd", name,
                "has eigenvalue {:.3e} < 0", wmin)

    def support(self) -> np.ndarray:
        """Mask of eigenvalues above SUPPORT_TOL × λ_max (none if λ_max ≤ 0)."""
        return self.eigenvalues > SUPPORT_TOL * self.wmax[..., None]

    def rank(self):
        return scalar(np.count_nonzero(self.support(), axis=-1))

    def projector(self) -> np.ndarray:
        v = self.eigenvectors
        return hermitian_part((v * self.support()[..., None, :]) @ dagger(v))


def eig_hermitian(h) -> Spectrum:
    return Spectrum.of(as_hermitian(h))


def solve_jordan(a, b, *, spectrum: Spectrum | None = None):
    """Solve a ∘ x = b for Hermitian x, with a PSD.

    Works in the eigenbasis of a: x'_ij = 2 b'_ij / (λ_i + λ_j) where the
    denominator is above SUPPORT_TOL × λ_max, zero elsewhere (any value on
    the kernel of a leaves the risk unchanged; zero is canonical).  Since
    λ_i + λ_j ≤ 2 λ_max, nothing is kept when λ_max ≤ 0.

    Returns (x, residual) with residual = ‖a∘x − b‖_F; for full-rank a and
    Hermitian b this is the unique Hermitian solution and the residual is
    at rounding level.  A caller that has checked a and b already passes
    a's `spectrum`; nothing is then validated or decomposed again.
    """
    if spectrum is None:
        a, b = as_hermitian(a, name="a"), as_hermitian(b, name="b")
        if a.shape != b.shape:
            raise ValidationError("shape", f"dimension mismatch {a.shape} vs {b.shape}")
        spectrum = Spectrum.of(a)
        spectrum.require_psd("a")
    w, v = spectrum.eigenvalues, spectrum.eigenvectors
    vh = dagger(v)
    bp = vh @ b @ v
    denom = w[..., :, None] + w[..., None, :]
    keep = denom > SUPPORT_TOL * spectrum.wmax[..., None, None]
    xp = np.divide(2 * bp, denom, out=np.zeros_like(bp), where=keep)
    x = hermitian_part(v @ xp @ vh)
    return x, scalar(np.linalg.norm(_jordan(a, x) - b, axis=(-2, -1)))


def support_projector(h) -> np.ndarray:
    """Orthogonal projector onto the eigenvectors with λ > SUPPORT_TOL × λ_max."""
    return eig_hermitian(h).projector()


def support_rank(h) -> int:
    return eig_hermitian(h).rank()


def pseudo_inverse_psd(h, *, spectrum: Spectrum | None = None) -> np.ndarray:
    """Moore–Penrose inverse of a PSD matrix via eigendecomposition.

    A caller that has checked h already passes its `spectrum`.
    """
    if spectrum is None:
        spectrum = eig_hermitian(h)
        spectrum.require_psd("input")
    w, v, mask = spectrum.eigenvalues, spectrum.eigenvectors, spectrum.support()
    winv = np.divide(1.0, w, out=np.zeros_like(w), where=mask)
    return hermitian_part((v * winv[..., None, :]) @ dagger(v))
