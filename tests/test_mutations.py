"""Every golden scenario with one field deleted or replaced by a hostile value.

A mutated scenario must either run to a report that `serialize_report`
accepts (every number finite) or fail with a `ValidationError` or
`NumericalFailure`: never a numpy or Python traceback, a non-finite
result, or a run without end.  The cases are enumerated, not sampled: each
field path of each golden scenario except `kind`, descending into the first
three entries of each list, is deleted or set to each value of `VALUES`.
"""

import copy
import json
import math
import signal
from pathlib import Path

import pytest

from qretro.operator_core import NumericalFailure, ValidationError
from qretro.scenario import run_scenario, serialize_report

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDENS = sorted(SCENARIO_DIR.glob("*.json"))
DELETE = object()
VALUES = [None, True, 0, -1, 1e308, -1e-320, math.nan, math.inf, "a", [], [[]], {}, [1],
          [[1, 2], [3]], [[[1, 2, 3]]], 10**30, 10**400, 2.5]
SECONDS = 2  # a case that runs longer is taken to hang


def _paths(node, prefix=()):
    """The path of every entry below `node`, up to three entries of each list."""
    if isinstance(node, dict):
        entries = node.items()
    elif isinstance(node, list):
        entries = list(enumerate(node))[:3]
    else:
        return
    for key, value in entries:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutated(scenario, path, value):
    out = copy.deepcopy(scenario)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def _cases(scenario):
    for path in _paths(scenario):
        if path != ("kind",):
            for value in [DELETE] + VALUES:
                yield path, value


class _Hang(Exception):
    pass


def _raise_hang(signum, frame):
    raise _Hang


def _failure(scenario):
    """None if the scenario ends in a clean report or a clean error, else what happened."""
    signal.alarm(SECONDS)
    try:
        report = run_scenario(scenario)
    except (ValidationError, NumericalFailure):
        return None
    except _Hang:
        return f"ran past {SECONDS} s"
    except Exception as exc:  # noqa: BLE001 — the failure this test looks for
        return f"{type(exc).__name__}: {exc}"
    finally:
        signal.alarm(0)
    try:
        serialize_report(report)
    except ValidationError as exc:  # the library let a non-finite number through
        return str(exc)
    return None


def test_mutation_cases_cover_every_path_and_value():
    counts = [len(list(_cases(json.loads(path.read_text())))) for path in GOLDENS]
    assert len(GOLDENS) == 8 and sum(counts) == 5852


@pytest.mark.parametrize("golden", GOLDENS, ids=lambda p: p.stem)
def test_mutated_scenario_ends_cleanly(golden):
    scenario = json.loads(golden.read_text())
    previous = signal.signal(signal.SIGALRM, _raise_hang)
    try:
        failed = [(path, value, why) for path, value in _cases(scenario)
                  if (why := _failure(_mutated(scenario, path, value)))]
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not failed, "\n".join(f"{list(p)} {'deleted' if v is DELETE else f'= {v!r}'}: {w}"
                                  for p, v, w in failed)


def _golden(stem):
    return json.loads((SCENARIO_DIR / f"{stem}.json").read_text())


@pytest.mark.parametrize("scenario", [
    # (M + M†)/2 overflows in as_hermitian: a real weak value of NaN
    _mutated(_golden("weak_value_qubit"), ("x", 0, 0), [1e308, 0.0]),
    # every entry of x at 1e308: a complex weak value of ∞
    _mutated(_golden("weak_value_qubit"), ("x",), [[[1e308, 0.0]] * 2] * 2),
    _mutated(_golden("risk_identity"), ("xcheck", 1, 1), [1e308, 0.0]),
    # the grid oracle's moment is NaN
    _mutated(_golden("gaussian_midpoint"), ("x", "coeffs", 0), 1e308),
    # the closed-form estimate X(m) is ∞
    _mutated(_mutated(_golden("gaussian_midpoint"), ("x", "coeffs"), [1e308, 0.0]),
             ("effect", "mean"), [4.0, 0.0]),
], ids=["weak-value-x00", "weak-value-every-x", "risk-xcheck11", "oracle-moment",
        "closed-form-estimate"])
def test_non_finite_results_are_range_errors(scenario):
    with pytest.raises(ValidationError, match="^range:"):
        run_scenario(scenario)
