"""Outside-in span tracer for the tvssl layers.

The tracer wraps the public functions of the library modules from outside
and leaves ``src/`` untouched. A wrapped function is replaced under every
name it is reached by: module globals of every loaded ``tvssl`` module (so
``binary.tv_prox``, ``multiclass.tv_prox`` and the ``project_box_eq`` that
``qp_box_eq`` looks up inside ``opt_core`` are all caught) and values of
module-level dicts (the trainer tables in ``bench_cli``). The factor classes
are patched on the class itself.

Each wrapped call becomes an in-memory span ``(name, start, end, parent,
extra)``; a span's self time is its duration minus the durations of its
children. Spans are kept in memory and aggregated when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

PACKAGE = "tvssl"
# Modules whose public functions are layers, in import order.
LAYER_MODULES = ("graph", "kernel", "data_io", "opt_core", "binary", "multiclass", "bench_cli")
# Classes whose constructor and ``solve`` are layers: (module, class, name
# of the constructor span). Factor solves also record their column count.
LAYER_CLASSES = (
    ("opt_core", "SpdFactor", "factor"),
    ("opt_core", "LuFactor", "factor"),
    ("binary", "SvmProxSolver", "init"),
)


def _max_iters(sig: inspect.Signature, args, kwargs) -> int:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return int(bound.arguments["max_iters"])


def _prox_extra(sig):
    def extra(args, kwargs, result):
        g, z = args[0], args[1]
        trace = result[1]
        cap = _max_iters(sig, args, kwargs)
        return {
            "iters": trace.iterations_run,
            "cap_hit": trace.iterations_run >= cap,
            "gap": trace.final_gap,
            "vectors": max(1, int(np.size(z)) // max(1, g.n_nodes)),
        }

    return extra


def _qp_extra(sig):
    def extra(args, kwargs, result):
        cap = _max_iters(sig, args, kwargs)
        return {"iters": result.iterations, "cap_hit": result.iterations >= cap}

    return extra


def _solve_extra(args, kwargs, result):
    b = np.asarray(args[1] if len(args) > 1 else kwargs["b"])
    return {"cols": b.shape[1] if b.ndim == 2 else 1}


class Patches:
    """Attribute and dict-entry replacements that can be undone in reverse."""

    def __init__(self):
        self._undo: list = []  # (owner, key, original, is_dict)

    def __bool__(self) -> bool:
        return bool(self._undo)

    @staticmethod
    def modules():
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]

    def set_attr(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key), False))
        setattr(owner, key, value)

    def replace_everywhere(self, original, wrapper) -> None:
        """Swap ``original`` for ``wrapper`` under every module-global name
        and module-level dict value of the package that refers to it."""
        for mod in self.modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self.set_attr(mod, key, wrapper)
                elif isinstance(val, dict) and not key.startswith("__"):
                    for k, v in list(val.items()):
                        if v is original:
                            self._undo.append((val, k, original, True))
                            val[k] = wrapper

    def undo(self) -> None:
        for owner, key, original, is_dict in reversed(self._undo):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()


class Tracer:
    """Installs span wrappers on the library's layers and records spans.

    ``install()`` patches, ``uninstall()`` restores the originals, so a run
    can alternate traced and untraced stretches on the same inputs.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches = Patches()
        self.phase = None

    # -- recording --------------------------------------------------------

    def _span(self, name, fn, extra=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, self.phase, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, kwargs, result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname in LAYER_MODULES:
            mod = sys.modules[f"{PACKAGE}.{modname}"]
            for key, fn in list(vars(mod).items()):
                if key.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue  # imported here, traced under its home module
                name = f"{modname}.{key}"
                extra = None
                if name == "opt_core.tv_prox":
                    extra = _prox_extra(inspect.signature(fn))
                elif name == "opt_core.qp_box_eq":
                    extra = _qp_extra(inspect.signature(fn))
                self._patches.replace_everywhere(fn, self._span(name, fn, extra))
        for modname, clsname, init_label in LAYER_CLASSES:
            cls = getattr(sys.modules[f"{PACKAGE}.{modname}"], clsname)
            prefix = f"{modname}.{clsname}"
            cols = _solve_extra if modname == "opt_core" else None
            for attr, label, extra in (("__init__", init_label, None), ("solve", "solve", cols)):
                wrapper = self._span(f"{prefix}.{label}", cls.__dict__[attr], extra)
                self._patches.set_attr(cls, attr, wrapper)

    def uninstall(self) -> None:
        self._patches.undo()

    # -- aggregation ------------------------------------------------------

    def layer_table(self, phase=None) -> dict:
        """Per span name: calls, total and self seconds, and the extras,
        over the spans recorded in ``phase`` (all phases when None)."""
        child = [0.0] * len(self.spans)
        for name, ph, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        table: dict = {}
        for i, (name, ph, t0, t1, parent, extra) in enumerate(self.spans):
            if phase is not None and ph != phase:
                continue
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extras": []})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child[i]
            if extra is not None:
                row["extras"].append(extra)
        return table
