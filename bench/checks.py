"""Correctness checks computed apart from qretro, with numpy only.

Each check takes the inputs the benchmark generated and the `results`
object of one report, and raises CheckFailed naming the first property
that does not hold.  None of them compares against a stored copy of an
earlier output: they recompute the answer in closed form, or test a
property the method guarantees.
"""

from __future__ import annotations

import json

import numpy as np

# The library's own solve is accurate to rounding (about 1e-13 on these
# inputs); these tolerances sit several decades above that and several
# decades below any error that changes a reported figure.
RESIDUAL_TOL = 1e-9  # relative to the norm of the right-hand side
RISK_TOL = 1e-9  # relative to max(1, tr ρX²)
SLACK_FLOOR = -1e-8
RISK_GAP_TOL = 1e-8
GRID_GAP_TOL = 1e-6
CLOSED_FORM_TOL = 1e-9


class CheckFailed(AssertionError):
    """An output of the program failed an independent check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _reject_constant(name):
    raise CheckFailed(f"report is not strict JSON: contains {name}")


def parse_strict(text: str) -> dict:
    """Parse a report, rejecting the NaN/Infinity tokens json.dumps allows."""
    return json.loads(text, parse_constant=_reject_constant)


def results_bytes(report: dict) -> bytes:
    return json.dumps(report["results"], sort_keys=True).encode()


# --- matrices ---------------------------------------------------------------

def decode_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def apply_kraus(kraus, m) -> np.ndarray:
    """κ(m) = Σ K m K†, one matrix product at a time."""
    out = np.zeros((kraus[0].shape[0],) * 2, dtype=complex)
    for k in kraus:
        out += k @ m @ k.conj().T
    return out


def _jordan(a, b):
    return (a @ b + b @ a) / 2


def _tr(m) -> complex:
    return complex(np.trace(m))


def variance(rho, x) -> float:
    return (_tr(rho @ x @ x) - _tr(rho @ x) ** 2).real


# --- dense channels -----------------------------------------------------------

def check_personick_kraus(rho, x, kraus, results) -> None:
    """Normal equation on the support, risk identity and risk range."""
    xc = decode_matrix(results["estimator"])
    scale = max(1.0, float(np.abs(xc).max()))
    _require(float(np.abs(xc - xc.conj().T).max()) <= 1e-12 * scale,
             "Personick estimator is not Hermitian")
    krho = apply_kraus(kraus, rho)
    rhs = apply_kraus(kraus, _jordan(rho, x))
    w, v = np.linalg.eigh(krho)
    keep = v[:, w > 1e-12 * w.max()]
    proj = keep @ keep.conj().T
    residual = float(np.linalg.norm(proj @ (_jordan(krho, xc) - rhs) @ proj))
    _require(residual <= RESIDUAL_TOL * float(np.linalg.norm(rhs)),
             f"normal-equation residual {residual:.3e} on the support of κ(ρ)")
    _require(results["support_rank"] == keep.shape[1],
             f"support rank {results['support_rank']} != {keep.shape[1]}")
    second = _tr(rho @ x @ x).real
    tol = RISK_TOL * max(1.0, second)
    risk = second - _tr(krho @ xc @ xc).real
    _require(abs(results["min_risk"] - risk) <= tol,
             f"min_risk {results['min_risk']!r} != tr ρX² − tr κ(ρ)X̌² = {risk!r}")
    _require(-tol <= results["min_risk"] <= variance(rho, x) + tol,
             f"min_risk {results['min_risk']!r} outside [0, Var_ρ(X)]")


def check_complex_kraus(rho, x, kraus, results, hermitian_risk: float) -> None:
    """X̌κ(ρ) = κ(Xρ), the complex risk identity, and complex ≤ Hermitian risk."""
    xc = decode_matrix(results["estimator"])
    krho = apply_kraus(kraus, rho)
    rhs = apply_kraus(kraus, x @ rho)
    residual = float(np.linalg.norm(xc @ krho - rhs))
    _require(residual <= RESIDUAL_TOL * float(np.linalg.norm(rhs)),
             f"X̌κ(ρ) − κ(Xρ) has norm {residual:.3e}")
    second = _tr(rho @ x.conj().T @ x).real
    tol = RISK_TOL * max(1.0, second)
    risk = second - _tr(krho @ xc.conj().T @ xc).real
    _require(abs(results["min_risk"] - risk) <= tol,
             f"complex min_risk {results['min_risk']!r} != {risk!r}")
    _require(-tol <= results["min_risk"] <= hermitian_risk + tol,
             f"complex risk {results['min_risk']!r} exceeds the Hermitian "
             f"risk {hermitian_risk!r}")


def check_personick_depolarizing(rho, x, results) -> None:
    """Through full depolarization the estimator is (tr ρX)·I, the risk Var_ρ(X)."""
    xc = decode_matrix(results["estimator"])
    mean = _tr(rho @ x).real
    scale = max(1.0, abs(mean))
    err = float(np.abs(xc - mean * np.eye(len(xc))).max())
    _require(err <= RESIDUAL_TOL * scale, f"estimator differs from (tr ρX)·I by {err:.3e}")
    var = variance(rho, x)
    _require(abs(results["min_risk"] - var) <= RISK_TOL * max(1.0, var),
             f"min_risk {results['min_risk']!r} != Var_ρ(X) = {var!r}")


# --- QFI monotonicity sweep ---------------------------------------------------

def check_qfi_sweep(count: int, results) -> None:
    """Count, monotonicity, and slack = Personick risk of the SLD."""
    rows = results["rows"]
    _require(results["count"] == count and len(rows) == count,
             f"sweep ran {results['count']} / {len(rows)} checks, expected {count}")
    _require(results["all_monotone"] is True, "all_monotone is not true")
    _require(results["min_slack"] >= SLACK_FLOOR,
             f"min_slack {results['min_slack']!r} < {SLACK_FLOOR}")
    _require(results["max_risk_gap"] <= RISK_GAP_TOL,
             f"max_risk_gap {results['max_risk_gap']!r} > {RISK_GAP_TOL}")
    slacks = []
    for i, row in enumerate(rows):
        _require(row["j_in"] >= 0 and row["j_out"] >= 0,
                 f"row {i}: negative Fisher information")
        diff = row["j_in"] - row["j_out"]
        _require(abs(row["slack"] - diff) <= 1e-12 * max(1.0, row["j_in"]),
                 f"row {i}: slack {row['slack']!r} != J_in − J_out = {diff!r}")
        slacks.append(row["slack"])
    _require(min(slacks) == results["min_slack"],
             f"min_slack {results['min_slack']!r} != smallest row slack {min(slacks)!r}")


# --- Gaussian smoothing -------------------------------------------------------

def product_mean(mean_r, cov_r, mean_e, cov_e) -> np.ndarray:
    """Mean of the pointwise product of two Gaussians."""
    prec_r = np.linalg.inv(cov_r)
    prec_e = np.linalg.inv(cov_e)
    return np.linalg.solve(prec_r + prec_e, prec_r @ mean_r + prec_e @ mean_e)


def check_gaussian(state, effect, coeffs, offset, results) -> None:
    """Closed-form product mean and estimate, and the grid oracle's gap."""
    mean = product_mean(state["mean"], state["covariance"],
                        effect["mean"], effect["covariance"])
    estimate = float(coeffs @ mean + offset)
    tol = CLOSED_FORM_TOL * max(1.0, abs(estimate))
    _require(abs(results["estimate"] - estimate) <= tol,
             f"estimate {results['estimate']!r} != closed form {estimate!r}")
    got_mean = np.asarray(results["product"]["mean"], dtype=float)
    _require(float(np.abs(got_mean - mean).max()) <= CLOSED_FORM_TOL * max(1.0, float(np.abs(mean).max())),
             "product mean differs from the closed form")
    _require(results["numeric_gap"] <= GRID_GAP_TOL,
             f"numeric_gap {results['numeric_gap']!r} > {GRID_GAP_TOL}")
    _require(abs(results["numeric_estimate"] - estimate) <= GRID_GAP_TOL,
             f"grid estimate {results['numeric_estimate']!r} != closed form {estimate!r}")
