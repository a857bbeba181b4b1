"""Acceptance gate: every criterion at its pinned tolerance.

Criteria 1–6 chain several runs of a selftest check on their own seed, fold
them with `selftest.figures`, and hold each figure to its threshold in
`selftest.CHECKS`.  Run with
`pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion.  The last tests pin the counts of settable values and of public
names in the library, and keep deleted names deleted.
"""

import dataclasses
import importlib
import inspect
import json
import time
import warnings
from itertools import chain

import numpy as np

from qretro import fisher, selftest
from qretro.channels import ClassicalChannel, depolarizing_channel, identity_channel
from qretro.estimators import classical_conditional_expectation
from qretro.gaussian import GaussianWigner, LinearQuadrature, quadrature_estimator
from qretro.sampling import random_density, random_gaussian_wigner, random_hermitian, rng


def _report(name, passed, detail=""):
    print(f"{'PASS' if passed else 'FAIL'}  {name}  {detail}")
    assert passed, f"{name}: {detail}"


def _figures(name, gen, runs, *after):
    """A check's figures over `runs` runs chained on `gen`, then the `after` pairs."""
    check, thresholds = selftest.CHECKS[name]
    return selftest.figures(thresholds, chain(*(check(gen) for _ in range(runs)), *after))


def _within(figures):
    return all(value <= threshold for value, threshold in figures.values())


def _describe(figures):
    return ", ".join(f"worst {name} {value:.3e}" for name, (value, _) in figures.items())


def test_criterion_1_picture_equivalence():
    gen = rng(101)
    start = time.perf_counter()
    figures = _figures("dilation_bridge", gen, 5)
    elapsed = time.perf_counter() - start
    _report("criterion 1: picture equivalence",
            _within(figures) and elapsed < 10.0,
            f"{_describe(figures)}, {elapsed:.2f}s")


def test_criterion_2_personick_optimality():
    gen = rng(202)
    start = time.perf_counter()
    figures = _figures("personick_optimality", gen, 20)
    elapsed = time.perf_counter() - start
    _report("criterion 2: optimality of the normal equation",
            _within(figures) and elapsed < 30.0,
            f"{_describe(figures)}, {elapsed:.2f}s")


def test_criterion_3_classical_reduction():
    gen = rng(303)
    figures = _figures("classical_reduction", gen, 5)
    bsc = ClassicalChannel([[0.8, 0.2], [0.2, 0.8]])
    est, _ = classical_conditional_expectation([0.5, 0.5], bsc, [0.0, 1.0])
    bsc_gap = max(abs(est[0] - 0.2), abs(est[1] - 0.8))
    _report("criterion 3: classical reduction",
            _within(figures) and bsc_gap <= 1e-12,
            f"{_describe(figures)}, BSC gap {bsc_gap:.3e}")


def test_criterion_4_weak_values():
    gen = rng(404)
    figures = _figures("weak_values", gen, 10)
    _report("criterion 4: weak values", _within(figures), _describe(figures))


def test_criterion_5_qfi_monotonicity():
    gen = rng(505)
    figures = _figures("qfi_monotonicity", gen, 4)
    family = fisher.unitary_rotation_family(random_density(gen, 3),
                                            random_hermitian(gen, 3))
    ident = fisher.monotonicity_check(family, identity_channel(3), 0.2)
    depol = fisher.monotonicity_check(family, depolarizing_channel(3), 0.2)
    line = fisher.diagonal_line_family([0.5, 0.5], [0.5, -0.5])
    fisher_gap = max(abs(fisher.qfi(line.density(t), fisher.sld(line, t)) - j)
                     for t, j in [(0.0, 1.0), (0.5, 1.0 / (1 - 0.25))])
    _report("criterion 5: QFI monotonicity",
            _within(figures) and abs(ident.slack) <= 1e-10 and depol.j_out <= 1e-10
            and fisher_gap <= 1e-8,
            f"{_describe(figures)}, "
            f"identity slack {ident.slack:.3e}, depolarized J_out {depol.j_out:.3e}, "
            f"classical Fisher gap {fisher_gap:.3e}")


def test_criterion_6_gaussian_estimator():
    gen = rng(606)
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        figures = _figures("gaussian_oracle", gen, 10,
                           selftest._gaussian_oracle_gaps(gen, 2, 20))
    # the oracle may warn only that its own grid error bound is loose
    messages = [str(w.message) for w in caught]
    wr = random_gaussian_wigner(gen, 1)
    flat = GaussianWigner(mean=np.zeros(2), covariance=1e6 * np.eye(2))
    x = LinearQuadrature(coeffs=np.array([1.0, -0.7]), offset=0.3)
    flat_gap = abs(quadrature_estimator(wr, flat, x)
                   - float(x.coeffs @ wr.mean + x.offset))
    elapsed = time.perf_counter() - start
    _report("criterion 6: Gaussian estimator vs numeric oracle",
            _within(figures) and flat_gap <= 1e-4 and elapsed < 60.0
            and all(m.startswith(("grid spacing", "grid truncation")) for m in messages),
            f"{_describe(figures)}, flat-effect gap {flat_gap:.3e}, "
            f"{len(messages)} grid warnings, {elapsed:.2f}s")


def test_criterion_7_selftest_determinism():
    first = selftest.run_selftest(seed=7)
    second = selftest.run_selftest(seed=7)
    identical = json.dumps(first["results"], sort_keys=True) == \
        json.dumps(second["results"], sort_keys=True)
    _report("criterion 7: selftest determinism",
            identical and first["results"]["all_passed"],
            f"all_passed={first['results']['all_passed']}, identical={identical}")


# A new parameter with a default is a knob every caller may now set, and a new
# public function, class or method is API every caller may now use; one that
# is added moves its pin, and the change that moves it says why.
SETTABLE_VALUES = 20
PUBLIC_SURFACE = 106
LIBRARY_MODULES = ["channels", "estimators", "fisher", "gaussian", "operator_core",
                   "sampling", "scenario", "selftest"]


def _library_members():
    """(name, object) for the public functions and classes of the library
    modules, and for the public methods and `__init__` of those classes."""
    for modname in LIBRARY_MODULES:
        module = importlib.import_module(f"qretro.{modname}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield f"{modname}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # a classmethod's function
                    # a dataclass's generated __init__ repeats its fields
                    if (inspect.isfunction(member) and (attr == "__init__" or attr[0] != "_")
                            and member.__code__.co_filename == module.__file__):
                        yield f"{modname}.{name}.{attr}", member


def _settable_values():
    """Parameters with defaults of the public functions and methods of the
    library modules, and fields with defaults of their dataclasses."""
    found = []
    for name, obj in _library_members():
        if dataclasses.is_dataclass(obj):
            found += [f"{name}.{f.name}" for f in dataclasses.fields(obj)
                      if f.default is not dataclasses.MISSING
                      or f.default_factory is not dataclasses.MISSING]
        if inspect.isfunction(obj):
            found += [f"{name}({p.name})" for p in inspect.signature(obj).parameters.values()
                      if p.default is not inspect.Parameter.empty]
    return found


def test_settable_value_count_is_pinned():
    found = _settable_values()
    _report("settable values", len(found) == SETTABLE_VALUES,
            f"{len(found)} found, {SETTABLE_VALUES} pinned: {', '.join(found)}")


def test_public_surface_is_pinned():
    found = [name for name, _ in _library_members() if not name.endswith(".__init__")]
    _report("public surface", len(found) == PUBLIC_SURFACE,
            f"{len(found)} found, {PUBLIC_SURFACE} pinned: {', '.join(found)}")


def test_deleted_names_stay_deleted():
    # each was a second path to a result a remaining public name gives
    import qretro
    from qretro.channels import QuantumChannel

    gone = [(fisher, "sld_pushforward_check"), (fisher, "PushforwardReport"),
            (fisher, "qfi_at"), (fisher, "_push"), (fisher, "FD_STEP"),
            (qretro, "sld_pushforward_check"),
            (qretro, "PushforwardReport"), (qretro, "qfi_at")]
    left = [name for owner, name in gone if hasattr(owner, name)]
    left += [f"QuantumChannel.{name}" for name in ("choi_matrix", "__call__")
             if name in vars(QuantumChannel)]
    _report("deleted names", not left, f"still defined: {left}")
