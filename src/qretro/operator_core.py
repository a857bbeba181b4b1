"""Dense complex-matrix kernel.

Hermitian algebra, tensor products, partial traces, eigendecompositions,
and the Jordan-product linear solve that every estimator in this package
reduces to.  Everything here is a pure function of dense numpy arrays;
matrices are small (desk scale, dims up to a few hundred), so no sparse
path is provided.

Validation happens once, where an operator enters a public function,
through `as_square`, `as_hermitian` and `as_density`.  A `Spectrum` is one
`eigh` of a checked operator.  `solve_jordan` and `pseudo_inverse_psd`
accept the `Spectrum` of an operator their caller has already checked and
decomposed; they then neither validate nor decompose again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Default tolerances.  Double-precision eigensolvers at desk-scale
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


def as_square(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex ndarray, rejecting NaN/Inf."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("shape", f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("finite", f"{name} contains NaN or Inf entries")
    return m


def hermitian_part(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    return (m + m.conj().T) / 2


def as_hermitian(m, tol: float = HERMITICITY_TOL, name: str = "operator") -> np.ndarray:
    """Validate hermiticity and return the symmetrized matrix.

    Asymmetry below `tol` (scaled by the matrix magnitude) is silently
    repaired by storing (M + M†)/2; anything larger is an error.
    """
    m = as_square(m, name)
    scale = max(1.0, float(np.abs(m).max()))
    asym = float(np.abs(m - m.conj().T).max())
    if asym > tol * scale:
        raise ValidationError(
            "hermiticity", f"{name} deviates from Hermitian by {asym:.3e}"
        )
    return hermitian_part(m)


def as_density(m, psd_tol: float = PSD_TOL, trace_tol: float = TRACE_TOL,
               name: str = "state") -> np.ndarray:
    """Validate a density operator: Hermitian, PSD, unit trace."""
    rho = as_hermitian(m, name=name)
    _require_state(rho, np.linalg.eigvalsh(rho), psd_tol, trace_tol, name)
    return rho


def _density_with_spectrum(m, name: str = "state"):
    """`as_density`'s checks, the PSD test reading one `eigh`: (ρ, its Spectrum)."""
    rho = as_hermitian(m, name=name)
    spec = Spectrum.of(rho)
    _require_state(rho, spec.eigenvalues, PSD_TOL, TRACE_TOL, name)
    return rho, spec


def _require_state(rho, w, psd_tol: float, trace_tol: float, name: str) -> None:
    """Unit trace, and no eigenvalue w of ρ below −psd_tol."""
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > trace_tol:
        raise ValidationError("trace", f"{name} has trace {tr!r}, expected 1")
    wmin = float(w.min())
    if wmin < -psd_tol:
        raise ValidationError("psd", f"{name} has eigenvalue {wmin:.3e} < 0")


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
    lhs = np.trace(np.asarray(x, dtype=complex) @ jordan_product(y, z))
    rhs = np.trace(jordan_product(x, y) @ np.asarray(z, dtype=complex))
    return float(abs(lhs - rhs))


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the left factor as the slow index."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def embed(op, dims, factor: int) -> np.ndarray:
    """Embed `op` on tensor factor `factor` of a product space, identity elsewhere."""
    op = as_square(op, "op")
    dims = [int(d) for d in dims]
    if op.shape[0] != dims[factor]:
        raise ValidationError(
            "dims", f"operator dim {op.shape[0]} != dims[{factor}] = {dims[factor]}"
        )
    out = np.eye(1, dtype=complex)
    for i, d in enumerate(dims):
        out = tensor(out, op if i == factor else np.eye(d))
    return out


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out the subsystems not listed in `keep`.

    `dims` lists the subsystem dimensions (slow index first); `keep` is a
    nonempty set of subsystem indices retained in their original order.
    """
    m = as_square(m)
    dims = [int(d) for d in dims]
    if int(np.prod(dims)) != m.shape[0]:
        raise ValidationError(
            "dims", f"prod(dims)={np.prod(dims)} != matrix dim {m.shape[0]}"
        )
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValidationError("keep", "empty keep set")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValidationError("keep", f"keep indices {keep} out of range")
    # row index i, column index n+i; a traced factor shares one index
    n = len(dims)
    col = [n + i if i in keep else i for i in range(n)]
    out = np.einsum(m.reshape(dims + dims), list(range(n)) + col,
                    keep + [n + i for i in keep])
    dk = int(np.prod([dims[i] for i in keep]))
    return out.reshape(dk, dk)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns

    @classmethod
    def of(cls, h) -> "Spectrum":
        """One `eigh` of an array already checked Hermitian."""
        try:
            return cls(*np.linalg.eigh(h))
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"Hermitian eigensolver failed: {exc}") from exc

    @property
    def wmax(self) -> float:
        return float(self.eigenvalues.max()) if self.eigenvalues.size else 0.0

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def require_psd(self, name: str) -> None:
        """Reject eigenvalues below −PSD_TOL × max(1, λ_max)."""
        wmin = float(self.eigenvalues.min())
        if wmin < -PSD_TOL * max(1.0, self.wmax):
            raise ValidationError("psd", f"{name} has eigenvalue {wmin:.3e} < 0")

    def support(self, tol: float = SUPPORT_TOL) -> np.ndarray:
        """Mask of the eigenvalues above tol × λ_max (none if λ_max ≤ 0)."""
        w, wmax = self.eigenvalues, self.wmax
        return w > tol * wmax if wmax > 0 else np.zeros_like(w, dtype=bool)

    def rank(self, tol: float = SUPPORT_TOL) -> int:
        return int(np.count_nonzero(self.support(tol)))

    def projector(self, tol: float = SUPPORT_TOL) -> np.ndarray:
        vs = self.eigenvectors[:, self.support(tol)]
        return hermitian_part(vs @ vs.conj().T)


def eig_hermitian(h) -> Spectrum:
    return Spectrum.of(as_hermitian(h))


def solve_jordan(a, b, support_tol: float = SUPPORT_TOL, *,
                 spectrum: Spectrum | None = None):
    """Solve a ∘ x = b for Hermitian x, with a PSD.

    Works in the eigenbasis of a: x'_ij = 2 b'_ij / (λ_i + λ_j) where the
    denominator is above support_tol × λ_max, zero elsewhere (any value on
    the kernel of a leaves the risk unchanged; zero is canonical).

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
    w, v, wmax = spectrum.eigenvalues, spectrum.eigenvectors, spectrum.wmax
    bp = v.conj().T @ b @ v
    denom = w[:, None] + w[None, :]
    keep = denom > support_tol * wmax if wmax > 0 else False
    xp = np.divide(2 * bp, denom, out=np.zeros_like(bp), where=keep)
    x = hermitian_part(v @ xp @ v.conj().T)
    residual = float(np.linalg.norm(_jordan(a, x) - b))
    return x, residual


def support_projector(h, tol: float = SUPPORT_TOL) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors with λ > tol × λ_max."""
    return eig_hermitian(h).projector(tol)


def support_rank(h, tol: float = SUPPORT_TOL) -> int:
    return eig_hermitian(h).rank(tol)


def pseudo_inverse_psd(h, tol: float = SUPPORT_TOL, *,
                       spectrum: Spectrum | None = None) -> np.ndarray:
    """Moore–Penrose inverse of a PSD matrix via eigendecomposition.

    A caller that has checked h already passes its `spectrum`.
    """
    if spectrum is None:
        spectrum = eig_hermitian(h)
        spectrum.require_psd("input")
    w, v, mask = spectrum.eigenvalues, spectrum.eigenvectors, spectrum.support(tol)
    winv = np.divide(1.0, w, out=np.zeros_like(w), where=mask)
    return hermitian_part((v * winv) @ v.conj().T)
