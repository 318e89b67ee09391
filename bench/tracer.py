"""Per-module tracing of the relumhe package, applied from outside.

Every target function is replaced, under every ``relumhe.*`` module name
that is bound to it (found by object identity), with a wrapper that
records a span: function, start, end and the enclosing span.  Bindings made
by ``from .x import y`` and module globals called from the same module are
therefore timed as well.  A target name that no longer exists is listed as
absent instead of failing the run, so a refactor of the package cannot
break the traced run.

Spans are kept in memory in compact arrays and written out by
:meth:`Tracer.write`; per-function call counts, span time and self time
(span time minus the time covered by child spans) are accumulated as the
spans close.  The arrays are allocated once at their full size and only
freed after the run: growing them would free large blocks, which makes
glibc raise its mmap threshold, and from then on the package's numpy
temporaries would no longer be fresh zero pages, so a traced op would run
faster than an untraced one (up to 40% on ``wine-regularized``).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = (
    "numlin",
    "relu_net",
    "orthant_geo",
    "pe_design",
    "neighborhood",
    "mhe_train",
    "experiment_cli",
)

# Functions wrapped per module.  Every function another module calls must be
# listed, or its time lands in the caller's self time; small helpers called
# only from inside their own module are left out to keep the overhead down,
# and so are the constructors, properties and dunder methods of the data
# classes, which do next to nothing.
TARGETS = {
    "numlin": (
        "as_matrix", "as_vector", "default_rank_rtol", "pinv", "numeric_rank",
        "subspace_projectors", "greville_append", "greville_pinv",
    ),
    "relu_net": (
        "pre_activations", "observability_map", "observability_jacobian", "forward",
        "multilayer_rank_deficiency", "WeightState.from_parts", "WeightState.replace_w",
    ),
    "orthant_geo": (
        "observability_certificate", "sign_matrix", "elementary_vectors", "cone_basis",
        "_tope_enumeration", "_compose_closure", "_elementary_from_basis", "_row_basis",
        "_affine_topes", "_improve_margin", "_cone_rows", "_cone_point", "_dehomogenize",
    ),
    "pe_design": (
        "design_pe_input", "design_pe_input_bias", "design_pe_batches", "verify_pe",
        "_balance_rows", "_check_plan", "_select_indicator_rows", "_interior_witnesses",
        "_schedule_contraction",
    ),
    "neighborhood": (
        "ObservableNeighborhood.build", "ObservableNeighborhood.state_of", "k_matrix",
        "membership", "retract",
    ),
    "mhe_train": (
        "mhe_step", "regularized_mhe_step", "train", "train_regularized", "gd_baseline",
        "adam_baseline", "convergence_report", "assemble_H", "projectors_for_batch",
        "BatchSchedule.partition", "_batch_sensitivities", "_empirical_zeta",
        "_loss_gradient", "_mse", "_Recorder.record",
    ),
    "experiment_cli": (
        "run", "gen_synthetic", "load_csv", "_sample_certified_weights", "_run_synthetic",
        "_run_wine", "_write_csv", "_write_matrix_csv", "_write_json", "_init_general_state",
    ),
}

# Spans beyond this many are counted in the statistics but not kept, which
# bounds the memory of a long traced run.
MAX_SPANS = 200_000


class Tracer:
    """Wraps the target functions while installed; records spans and counters."""

    def __init__(self):
        self.names: list[str] = []  # function id -> "layer.qualname"
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.absent: list[str] = []
        self.counters: dict[str, float] = {}
        self.op = -1  # index of the op in progress, set by the caller
        # array * n allocates the full size at once, with no temporary.
        self.span_op = array("i", [0]) * MAX_SPANS
        self.span_fn = array("i", [0]) * MAX_SPANS
        self.span_parent = array("i", [0]) * MAX_SPANS
        self.span_start = array("d", [0.0]) * MAX_SPANS
        self.span_end = array("d", [0.0]) * MAX_SPANS
        self.spans = 0  # spans kept, from the front of the arrays
        self.dropped_spans = 0
        self._open: list[list] = []  # [span id, child time] per open span
        self._restore: list[tuple[object, str, object]] = []
        self._hooks = {
            "orthant_geo._tope_enumeration": self._on_enumeration,
            "orthant_geo.observability_certificate": self._on_certificate,
            "neighborhood.retract": self._on_retract,
        }

    # -- counters -----------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _on_enumeration(self, args, kwargs, result) -> None:
        r, n = args[0].shape
        self.count("orthant_geo.topes", len(result))
        self.count(f"enumeration_shape:{r}x{n}")

    def _on_certificate(self, args, kwargs, result) -> None:
        self.count("orthant_geo.certified", int(result.observable))

    def _on_retract(self, args, kwargs, result) -> None:
        proposed = args[2] if len(args) > 2 else kwargs["to"]
        self.count("neighborhood.retract_shortened", int(result is not proposed))

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, key: str, fn):
        idx = len(self.names)
        self.names.append(key)
        self.layer_of.append(key.split(".", 1)[0])
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        hook = self._hooks.get(key)
        opened = self._open
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # The span's slot is taken on entry, so children can name it.
            sid = tracer.spans
            if sid < MAX_SPANS:
                tracer.spans += 1
                tracer.span_op[sid] = tracer.op
                tracer.span_fn[sid] = idx
                tracer.span_parent[sid] = opened[-1][0] if opened else -1
            else:
                sid = -1
            frame = [sid, 0.0]  # span id, time covered by child spans
            opened.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            finally:
                t1 = clock()
                opened.pop()
                dur = t1 - t0
                if opened:
                    opened[-1][1] += dur
                tracer.calls[idx] += 1
                tracer.total_s[idx] += dur
                tracer.self_s[idx] += dur - frame[1]
                if sid >= 0:
                    tracer.span_start[sid] = t0
                    tracer.span_end[sid] = t1
                else:
                    tracer.dropped_spans += 1

        return traced

    def install(self) -> None:
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "relumhe" or name.startswith("relumhe."))
        ]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"relumhe.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                raw = owner.__dict__.get(attr) if owner is not None else None
                if not (inspect.isfunction(raw) or isinstance(raw, classmethod)):
                    self.absent.append(key)
                    continue
                if owner_name:
                    # A method: the class object is shared by every binding.
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(key, raw.__func__))
                    else:
                        wrapped = self._wrap(key, raw)
                    self._restore.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                    continue
                wrapped = self._wrap(key, raw)
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is raw:
                            self._restore.append((mod, bound, raw))
                            setattr(mod, bound, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def calls_of(self, *keys: str) -> int:
        return sum(self.calls[i] for i, k in enumerate(self.names) if k in keys)

    def time_of(self, *keys: str) -> float:
        return sum(self.total_s[i] for i, k in enumerate(self.names) if k in keys)

    def layer_self_s(self, layer: str) -> float:
        return sum(s for s, lay in zip(self.self_s, self.layer_of) if lay == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(c for c, lay in zip(self.calls, self.layer_of) if lay == layer)

    def write(self, path: Path, extra: dict) -> None:
        payload = {
            **extra,
            "absent": self.absent,
            "counters": self.counters,
            "functions": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, c, t, s in zip(self.names, self.calls, self.total_s, self.self_s)
            },
            "layers": {
                layer: {"calls": self.layer_calls(layer), "self_s": self.layer_self_s(layer)}
                for layer in LAYERS
            },
            "dropped_spans": self.dropped_spans,
            # Span i: made during op[i], of span_functions[function[i]], inside
            # span parent[i] (-1 at the top), perf_counter start and end in s.
            "span_functions": self.names,
            "spans": {
                "op": self.span_op[: self.spans].tolist(),
                "function": self.span_fn[: self.spans].tolist(),
                "parent": self.span_parent[: self.spans].tolist(),
                "start_s": self.span_start[: self.spans].tolist(),
                "end_s": self.span_end[: self.spans].tolist(),
            },
        }
        path.write_text(json.dumps(payload) + "\n")
