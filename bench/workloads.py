"""The three workloads: a fixed cycle of scenarios made from the seed.

Each operation is one scenario as JSON text, exactly what `qretro <kind>
--input` reads, and a check that runs on its report.  Inputs are drawn with
numpy alone from the benchmark seed; qretro receives only the text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

DENSE_DIM = 64  # Kraus-list scenarios: d=64, K=4
DENSE_KRAUS = 4
DEPOLARIZING_DIM = 20  # K = d² = 400 Kraus operators
SWEEPS_PER_CYCLE = 3
SWEEP_COUNT = 200
SWEEP_DIMS = [2, 3, 4]
ONE_MODE_PER_CYCLE = 7


@dataclass(frozen=True)
class Op:
    name: str
    text: str
    # check(results, results of the earlier operations of this cycle by name)
    check: Callable[[dict, dict], None]


def generator(seed: int, workload: str) -> np.random.Generator:
    salt = sum(ord(c) for c in workload)
    return np.random.Generator(np.random.PCG64([seed, salt]))


# --- dense channels -------------------------------------------------------------

def _ginibre(gen, rows, cols):
    return gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))


def _density(gen, d):
    g = _ginibre(gen, d, d)
    m = g @ g.conj().T
    return m / np.trace(m).real


def _hermitian(gen, d):
    g = _ginibre(gen, d, d)
    return (g + g.conj().T) / 2


def _isometry_kraus(gen, d, k):
    """K Kraus operators cut from a Haar-random Stinespring isometry (kd × d)."""
    q, r = np.linalg.qr(_ginibre(gen, k * d, d))
    iso = q * (np.diag(r) / np.abs(np.diag(r)))
    return [iso[e * d:(e + 1) * d] for e in range(k)]


def _encode(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def dense_channel(seed: int) -> list[Op]:
    gen = generator(seed, "dense-channel")
    d = DENSE_DIM
    kraus = _isometry_kraus(gen, d, DENSE_KRAUS)
    rho, x = _density(gen, d), _hermitian(gen, d)
    common = {"rho": _encode(rho), "x": _encode(x),
              "channel": {"kraus": [_encode(k) for k in kraus]}}
    dd = DEPOLARIZING_DIM
    rho_dep, x_dep = _density(gen, dd), _hermitian(gen, dd)
    depolarizing = {"kind": "personick", "rho": _encode(rho_dep), "x": _encode(x_dep),
                    "channel": {"depolarizing": dd}}
    return [
        Op("personick-kraus", json.dumps({"kind": "personick", **common}),
           lambda res, cyc: checks.check_personick_kraus(rho, x, kraus, res)),
        Op("complex-kraus", json.dumps({"kind": "complex", **common}),
           lambda res, cyc: checks.check_complex_kraus(
               rho, x, kraus, res, cyc["personick-kraus"]["min_risk"])),
        Op("personick-depolarizing", json.dumps(depolarizing),
           lambda res, cyc: checks.check_personick_depolarizing(rho_dep, x_dep, res)),
    ]


# --- QFI monotonicity sweeps --------------------------------------------------------

def qfi_sweep(seed: int) -> list[Op]:
    gen = generator(seed, "qfi-sweep")
    ops = []
    for i in range(SWEEPS_PER_CYCLE):
        scenario = {"kind": "qfi-mono", "seed": int(gen.integers(0, 2**31)),
                    "sweep": {"count": SWEEP_COUNT, "dims": SWEEP_DIMS}}
        ops.append(Op(f"sweep-{i}", json.dumps(scenario),
                      lambda res, cyc: checks.check_qfi_sweep(SWEEP_COUNT, res)))
    return ops


# --- Gaussian grid smoothing --------------------------------------------------------

def symplectic_form(n):
    """Ω for the (q₁..qₙ, p₁..pₙ) ordering."""
    eye, zero = np.eye(n), np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def _passive(gen, n):
    """Orthogonal symplectic matrix of a Haar-random n-mode interferometer."""
    q, r = np.linalg.qr(_ginibre(gen, n, n))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    a, b = u.real, u.imag
    return np.block([[a, -b], [b, a]])


def physical_covariance(gen, n, max_squeeze, max_thermal):
    """V = S·diag(ν, ν)/2·Sᵀ with S = O₁·Z(r)·O₂ symplectic and ν ≥ 1.

    The symplectic eigenvalues ν/2 are at least the vacuum's 1/2, so
    V + iΩ/2 ≥ 0 holds by construction; it is checked anyway.
    """
    r = gen.uniform(0.0, max_squeeze, size=n)
    nu = gen.uniform(1.0, max_thermal, size=n)
    z = np.diag(np.concatenate([np.exp(-r), np.exp(r)]))
    s = _passive(gen, n) @ z @ _passive(gen, n)
    cov = s @ np.diag(np.concatenate([nu, nu])) @ s.T / 2
    cov = (cov + cov.T) / 2
    if np.linalg.eigvalsh(cov + 0.5j * symplectic_form(n)).min() < -1e-12:
        raise ValueError("generated covariance violates V + iΩ/2 ≥ 0")
    return cov


def _gaussian_op(gen, name, n, max_squeeze, max_thermal):
    dim = 2 * n
    state = {"mean": gen.uniform(-1.0, 1.0, size=dim),
             "covariance": physical_covariance(gen, n, max_squeeze, max_thermal)}
    effect = {"mean": gen.uniform(-1.0, 1.0, size=dim),
              "covariance": physical_covariance(gen, n, max_squeeze, max_thermal),
              "weight": float(gen.uniform(0.5, 2.0))}
    coeffs = gen.uniform(-1.5, 1.5, size=dim)
    offset = float(gen.uniform(-1.0, 1.0))
    as_json = lambda g: {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                         for k, v in g.items()}
    scenario = {"kind": "gaussian", "state": as_json(state), "effect": as_json(effect),
                "x": {"coeffs": coeffs.tolist(), "offset": offset},
                "numeric_check": True}
    return Op(name, json.dumps(scenario),
              lambda res, cyc: checks.check_gaussian(state, effect, coeffs, offset, res))


def gaussian_grid(seed: int) -> list[Op]:
    gen = generator(seed, "gaussian-grid")
    # the two-mode grid is 81 points per axis, so its Gaussians are kept
    # broad enough (r ≤ 0.3, ν ≤ 1.2) for the trapezoid rule to resolve
    # them to well below the 1e-6 gap the check allows
    ops = [_gaussian_op(gen, "two-mode", 2, 0.3, 1.2)]
    ops += [_gaussian_op(gen, f"one-mode-{i}", 1, 0.6, 2.0)
            for i in range(ONE_MODE_PER_CYCLE)]
    return ops


WORKLOADS = {
    "dense-channel": dense_channel,
    "qfi-sweep": qfi_sweep,
    "gaussian-grid": gaussian_grid,
}
