"""Span tracer that wraps qretro's public functions from outside the library.

Every wrapped function is replaced in each namespace where a caller looks
it up (a module that did ``from .channels import apply_channel`` holds its
own reference), so installing the tracer changes no file of the library.
A span records its layer, its parent span and its duration; a layer's self
time is the span's duration minus the time covered by its child spans.
The root span is the whole operation; its self time is the part of the
operation that no wrapped function covers (the untraced remainder).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer -> targets, each "module:attribute" or "module:Class.method".
# numpy's eigensolvers are wrapped in numpy.linalg, where qretro looks them
# up as np.linalg.eigh / np.linalg.eigvalsh.
LAYERS = {
    "channels.apply": ["qretro.channels:apply_channel"],
    "channels.construct": [
        "qretro.channels:QuantumChannel.__init__",
        "qretro.channels:QuantumChannel.then",
        "qretro.channels:validate_cptp",
        "qretro.channels:channel_from_dilation",
        "qretro.channels:channel_from_classical",
        "qretro.channels:channel_from_cq_ensemble",
        "qretro.channels:channel_from_povm",
        "qretro.channels:partial_trace_channel",
        "qretro.channels:identity_channel",
        "qretro.channels:depolarizing_channel",
    ],
    "operator_core.validate": [
        "qretro.operator_core:as_square",
        "qretro.operator_core:as_hermitian",
        "qretro.operator_core:as_density",
    ],
    "operator_core.eig": [
        "numpy.linalg:eigh",
        "numpy.linalg:eigvalsh",
        "qretro.operator_core:eig_hermitian",
        "qretro.operator_core:support_rank",
        "qretro.operator_core:support_projector",
    ],
    "operator_core.solve": [
        "qretro.operator_core:solve_jordan",
        "qretro.operator_core:pseudo_inverse_psd",
    ],
    "estimators.personick": ["qretro.estimators:personick_estimator"],
    "estimators.complex": ["qretro.estimators:complex_estimator"],
    "fisher.sld": ["qretro.fisher:sld"],
    "fisher.check": [
        "qretro.fisher:monotonicity_check",
        "qretro.fisher:qfi",
        "qretro.fisher:push_family",
        "qretro.fisher:unitary_rotation_family",
        "qretro.fisher:StateFamily.density",
        "qretro.fisher:StateFamily.derivative",
    ],
    "sampling": [
        "qretro.sampling:rng",
        "qretro.sampling:random_hermitian",
        "qretro.sampling:random_unitary",
        "qretro.sampling:random_psd",
        "qretro.sampling:random_density",
        "qretro.sampling:random_channel",
    ],
    "gaussian.grid": ["qretro.gaussian:numeric_wigner_integral"],
    "gaussian.closed_form": [
        "qretro.gaussian:gaussian_product",
        "qretro.gaussian:quadrature_estimator",
    ],
    "scenario.decode": [
        "qretro.scenario:decode_complex_matrix",
        "qretro.scenario:decode_channel",
        "qretro.scenario:decode_povm",
        "qretro.scenario:decode_family",
        "qretro.scenario:_decode_gaussian",
    ],
    "scenario.encode": [
        "qretro.scenario:serialize_report",
        "qretro.scenario:encode_complex_matrix",
        "qretro.scenario:encode_real_vector",
        "qretro.scenario:encode_real_matrix",
    ],
}

ROOT = "remainder"


def _kraus_count(k, *args, **kwargs):
    return int(k.kraus.shape[0])


def _grid_points(w_list, x=None, points_per_axis=None, *args, **kwargs):
    # mirrors numeric_wigner_integral's default: 801 per axis for one mode,
    # 81 for two
    n_modes = list(w_list)[0].n_modes
    per_axis = points_per_axis or (801 if n_modes == 1 else 81)
    return per_axis ** (2 * n_modes)


# counter -> (targets, amount per call); amount None counts calls
COUNTERS = {
    "channels.apply_calls": (["qretro.channels:apply_channel"], None),
    "channels.kraus_applied": (["qretro.channels:apply_channel"], _kraus_count),
    "operator_core.validate_calls": (LAYERS["operator_core.validate"], None),
    "operator_core.eigensolves": (["numpy.linalg:eigh", "numpy.linalg:eigvalsh"], None),
    "fisher.sld_calls": (["qretro.fisher:sld"], None),
    "gaussian.grid_calls": (["qretro.gaussian:numeric_wigner_integral"], None),
    "gaussian.grid_points": (["qretro.gaussian:numeric_wigner_integral"], _grid_points),
}


class Tracer:
    """Collects spans while installed and inside a root span."""

    def __init__(self, keep_spans: bool = False):
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []  # (id, parent, op, layer, target, start, end)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._op = -1
        self._patches: list[tuple] = []

    # --- spans ----------------------------------------------------------------

    def run_root(self, op_index: int, fn):
        """Run fn() as the root span of operation `op_index`.

        Returns (result, duration in seconds).
        """
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        self._op = op_index
        self._next_id += 1
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.self_time[ROOT] += (end - start) - frame[1]
            self.calls["operation"] += 1
            if self.keep_spans:
                self.spans.append((frame[0], None, op_index, ROOT, "operation", start, end))
        return result, end - start

    def wrap(self, fn, layer: str, target: str, counters):
        # kept to plain local operations: as_square alone is called 9,000
        # times per sweep, so every step here shows in the tracing overhead
        tracer = self
        stack, self_time, calls = self._stack, self.self_time, self.calls
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_time[layer] += duration - frame[1]
                parent[1] += duration
                calls[target] += 1
                if tracer.keep_spans:
                    tracer.spans.append((frame[0], parent[0], tracer._op, layer, target,
                                         start, end))
                for name, amount in counters:
                    tracer.counts[name] += 1 if amount is None else amount(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        """Replace every target in every namespace that holds a reference."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qretro" or name.startswith("qretro."))]
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, attr, original = _resolve(target)
                counters = [(name, amount) for name, (where, amount) in COUNTERS.items()
                            if target in where]
                wrapped = self.wrap(original, layer, target, counters)
                self._patch(owner, attr, wrapped)
                if isinstance(owner, type):
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original and mod is not owner:
                            self._patch(mod, name, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _resolve(target: str):
    module_name, path = target.split(":")
    owner = sys.modules[module_name]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, getattr(owner, attr)
