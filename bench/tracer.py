"""In-process tracing of particat's public functions, from outside the library.

The tracer wraps every public function of every ``particat`` module (the
names in each module's ``__all__``) plus the two hot methods
``Partition.make`` and ``SparseEchelon.insert``.  The modules import
each other's functions by name (``from .partition import compose``), so each
wrapper is bound in *every* ``particat.*`` namespace that holds the original,
not only in the defining module.

Hot leaves such as ``compose`` run hundreds of thousands of times, so calls
are aggregated online: a call stack of child-time accumulators gives each
call its self time (duration minus the time covered by traced children).
Full spans (name, start, end, parent, op id) are kept only for ops and for
coarse calls, whose counts stay small.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable, Optional

MODULES = (
    "partition",
    "structure",
    "categories",
    "fusion",
    "matrix_model",
    "linalg",
    "verify",
    "cli",
)

METHODS = (("partition", "Partition", "make"), ("linalg", "SparseEchelon", "insert"))

# Calls recorded as full spans; everything else is aggregated only.
COARSE = frozenset(
    {
        "categories.closure",
        "fusion.fusion",
        "fusion.fusion_brute_force",
        "fusion.decompose_power",
        "matrix_model.check_functor",
        "matrix_model.projection_rank",
        "matrix_model.projection_matrix",
        "matrix_model.class_projection",
        "matrix_model.independent",
        "matrix_model.brauer_kernel_dim",
        "verify.suite_functor",
        "verify.suite_structure",
        "verify.suite_fusion",
        "cli.run",
    }
)


# What `items` counts, from a call's result.
ITEMS: dict[str, Callable] = {
    "categories.closure": len,  # members
    "structure.enumerate_mixing": len,  # mixing diagrams
    "fusion.fusion": lambda result: len(result.members),  # members kept
    "fusion.fusion_candidates": len,  # distinct grafts
    "linalg.SparseEchelon.insert": int,  # inserts that found a pivot
}


class FuncStats:
    __slots__ = ("calls", "total_s", "self_s", "items", "repeat_calls")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.items = 0
        self.repeat_calls = 0


class Tracer:
    """Installs wrappers, aggregates per-function stats, records spans."""

    def __init__(self) -> None:
        self.stats: dict[str, FuncStats] = {}
        self.spans: list[list] = []
        self.op_id: Optional[int] = None
        # one [child_seconds, span_index] accumulator per active traced call
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._projective_keys: set = set()
        self._candidates_depth = 0
        self.mix_under_candidates = 0
        # the op timer replaces this with a clock that stops during its
        # yardstick probes, so no probe time lands in a layer
        self.clock: Callable[[], float] = time.perf_counter

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        entry = self.stats.setdefault(name, FuncStats())
        items = ITEMS.get(name)
        coarse = name in COARSE
        stack = self._stack
        spans = self.spans
        clock = self.clock
        tracer = self
        is_projectives = name == "categories.projectives"
        is_candidates = name == "fusion.fusion_candidates"
        is_mix = name == "structure.mix"

        def wrapper(*args, **kwargs):
            if is_projectives:
                key = args[:2]  # (spec, k)
                if key in tracer._projective_keys:
                    entry.repeat_calls += 1
                tracer._projective_keys.add(key)
            elif is_mix and tracer._candidates_depth:
                tracer.mix_under_candidates += 1
            span_index = -1
            if coarse:
                parent = stack[-1][1] if stack else -1
                span_index = len(spans)
                spans.append([name, 0.0, 0.0, parent, tracer.op_id])
            frame = [0.0, span_index]
            stack.append(frame)
            if is_candidates:
                tracer._candidates_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if is_candidates:
                    tracer._candidates_depth -= 1
                stack.pop()
                entry.calls += 1
                entry.total_s += elapsed
                entry.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if coarse:
                    spans[span_index][1] = start
                    spans[span_index][2] = start + elapsed
            if items is not None:
                entry.items += items(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions and rebind them in every namespace."""
        layers = {m: importlib.import_module(f"particat.{m}") for m in MODULES}
        namespaces = [
            mod
            for modname, mod in list(sys.modules.items())
            if mod is not None
            and (modname == "particat" or modname.startswith("particat."))
        ]
        wrappers: dict[int, Callable] = {}
        for short, mod in layers.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._set(ns, attr, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(layers[short], cls_name)
            raw = cls.__dict__[meth]
            name = f"{short}.{cls_name}.{meth}"
            if isinstance(raw, staticmethod):
                self._set(cls, meth, staticmethod(self._wrap(name, raw.__func__)))
            else:
                self._set(cls, meth, self._wrap(name, raw))

    def uninstall(self) -> None:
        """Restore every binding that :meth:`install` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id: int, name: str) -> int:
        """Open the span of one workload op; returns its span index."""
        self.op_id = op_id
        parent = self._stack[-1][1] if self._stack else -1
        self.spans.append([f"op.{name}", self.clock(), 0.0, parent, op_id])
        index = len(self.spans) - 1
        self._stack.append([0.0, index])
        return index

    def end_op(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = self.clock()
        self.op_id = None

    # -- report -------------------------------------------------------------

    def flat_metrics(self) -> dict[str, float]:
        """Every counter as ``<module>.<function>.<stat>`` plus module totals."""
        out: dict[str, float] = {}
        module_self: dict[str, float] = {m: 0.0 for m in MODULES}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.items"] = st.items
            out[f"{name}.repeat_calls"] = st.repeat_calls
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.total_s"] = st.total_s
            module_self[name.split(".", 1)[0]] += st.self_s
        for mod, value in module_self.items():
            out[f"{mod}.self_s"] = value
        kept = self.stats["fusion.fusion"].items
        grafted = self.mix_under_candidates
        out["fusion.graft_keep_ratio"] = kept / grafted if grafted else 0.0
        out["fusion.graft_kept"] = kept
        out["fusion.graft_attempted"] = grafted
        return out
