"""Span tracer for the traced benchmark run.

The tracer wraps taan's public functions from outside the package: each
wrapper is written into every ``taan`` module namespace that holds the
original object, because ``training``, ``analysis`` and ``cli`` import
``forward``, ``build_gram``, ``train`` and the rest by name, while
``_backend.apl_forward`` is read as a module attribute at call time.
``uninstall`` puts every original object back, so code run afterwards is the
unmodified program.

A span is (name, start, end, parent id), kept in flat in-memory arrays and
written out once by ``save``.  The ``moments`` functions are called
thousands of times per Gram build, so they are counted and timed without a
span each; their time is charged to the enclosing span as child time.
"""

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# Module -> layer name used in metric names.
LAYERS = {
    "taan._backend": "backend",
    "taan.apl": "apl",
    "taan.moments": "moments",
    "taan.metrics": "metrics",
    "taan.regularizers": "regularizers",
    "taan.network": "network",
    "taan.training": "training",
    "taan.data": "data",
    "taan.analysis": "analysis",
    "taan.cli": "cli",
}

# The kernels are numba dispatchers under the numba backend, not Python
# functions, so they are named explicitly.  The CLI is traced at its entry
# point only: its subcommand helpers are internal to ``main``, and wrapping
# them would split the CLI layer's own time off ``cli.main.self_s``.
EXPLICIT = {
    "taan._backend": ("apl_forward", "apl_backward"),
    "taan.cli": ("main",),
}

# (module, class, attribute, span name) for traced methods.
METHODS = (
    ("taan.network", "ModelGradients", "zeros_like", "network.grads_zeros"),
    ("taan.network", "ModelGradients", "add_", "network.grads_add"),
    ("taan.training", "History", "to_csv", "training.history_to_csv"),
)

AGGREGATED_LAYERS = ("moments",)

# Spans whose first argument's length is counted as elements processed.
ELEMENT_SPANS = ("backend.apl_forward", "backend.apl_backward")


def _public_functions(modname, module):
    if modname in EXPLICIT:
        return [n for n in EXPLICIT[modname] if hasattr(module, n)]
    return [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == modname
    ]


class Tracer:
    """Collects spans for every wrapped call between install and uninstall."""

    def __init__(self):
        self.names = []
        self._index = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.leaf_ns = array("q")
        self.elems = {}
        self.errors = {layer: 0 for layer in LAYERS.values()}
        self.leaf_calls = {}
        self.leaf_time_ns = {}
        self.missing = []
        self._stack = [-1]
        self._in_leaf = False
        self._patches = []

    def _name_index(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _span(self, fn, name, layer):
        idx = self._name_index(name)
        perf = time.perf_counter_ns
        start, end, parent = self.start, self.end, self.parent
        names, leaf_ns, stack = self.name, self.leaf_ns, self._stack
        errors = self.errors
        count_elems = name in ELEMENT_SPANS
        self.elems.setdefault(name, 0)
        elems = self.elems

        def wrapper(*args, **kwargs):
            sid = len(start)
            start.append(0)
            end.append(0)
            parent.append(stack[-1])
            names.append(idx)
            leaf_ns.append(0)
            if count_elems:
                elems[name] += len(args[0])
            stack.append(sid)
            start[sid] = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                end[sid] = perf()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def _leaf(self, fn, name, layer):
        perf = time.perf_counter_ns
        self.leaf_calls.setdefault(name, 0)
        self.leaf_time_ns.setdefault(name, 0)
        calls, spent = self.leaf_calls, self.leaf_time_ns
        leaf_ns, stack, errors = self.leaf_ns, self._stack, self.errors

        def wrapper(*args, **kwargs):
            # A leaf called from inside another leaf of the layer is part of
            # the outer call, so only the outermost call is counted.
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                dt = perf() - t0
                self._in_leaf = False
                calls[name] += 1
                spent[name] += dt
                if stack[-1] >= 0:
                    leaf_ns[stack[-1]] += dt

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        """Wrap every traced function wherever a taan module holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {
            name: importlib.import_module(name) for name in LAYERS
        }
        holders = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "taan" or name.startswith("taan."))
        ]
        for modname, module in modules.items():
            layer = LAYERS[modname]
            for fname in _public_functions(modname, module):
                original = getattr(module, fname)
                if any(orig is original for _, _, orig in self._patches):
                    continue
                name = f"{layer}.{fname}"
                make = self._leaf if layer in AGGREGATED_LAYERS else self._span
                wrapper = make(original, name, layer)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, attr, original))
                            setattr(holder, attr, wrapper)
        for modname, cls_name, attr, name in METHODS:
            cls = getattr(modules[modname], cls_name, None)
            descriptor = None if cls is None else vars(cls).get(attr)
            if descriptor is None:
                self.missing.append(f"{modname}.{cls_name}.{attr}")
                continue
            layer = LAYERS[modname]
            if isinstance(descriptor, classmethod):
                wrapped = classmethod(self._span(descriptor.__func__, name, layer))
            else:
                wrapped = self._span(descriptor, name, layer)
            self._patches.append((cls, attr, descriptor))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches = []

    def arrays(self):
        """Spans as numpy arrays plus per-span self time in ns."""
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        leaf = np.frombuffer(self.leaf_ns, dtype=np.int64).copy()
        dur = end - start
        child = leaf.copy()
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "start": start,
            "end": end,
            "parent": parent,
            "name": name,
            "leaf_ns": leaf,
            "dur": dur,
            "child_ns": child,
            "self_ns": dur - child,
        }

    def check(self):
        """Self-time invariants.

        Every child span lies inside its parent, siblings do not overlap,
        and so a parent's self time plus its children's durations equals
        its duration and is never negative.  Returns a list of violations.
        """
        a = self.arrays()
        problems = []
        if np.any(a["dur"] < 0):
            problems.append("span with negative duration")
        if np.any(a["self_ns"] < 0):
            problems.append(
                f"{int(np.sum(a['self_ns'] < 0))} spans with negative self time"
            )
        if np.any(a["self_ns"] + a["child_ns"] != a["dur"]):
            problems.append("self time plus children differs from duration")
        kids = np.nonzero(a["parent"] >= 0)[0]
        p = a["parent"][kids]
        if np.any(a["start"][kids] < a["start"][p]) or np.any(
            a["end"][kids] > a["end"][p]
        ):
            problems.append("child span outside its parent")
        order = kids[np.lexsort((a["start"][kids], p))]
        same = a["parent"][order[1:]] == a["parent"][order[:-1]]
        if np.any(a["start"][order[1:]][same] < a["end"][order[:-1]][same]):
            problems.append("overlapping sibling spans")
        roots = np.nonzero(a["parent"] < 0)[0]
        rs = roots[np.argsort(a["start"][roots], kind="stable")]
        if np.any(a["start"][rs[1:]] < a["end"][rs[:-1]]):
            problems.append("overlapping root spans")
        return problems

    def layer_stats(self):
        """name -> {calls, s, self_s, elems} over all recorded work."""
        a = self.arrays()
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=a["dur"], minlength=n)
        own = np.bincount(a["name"], weights=a["self_ns"], minlength=n)
        stats = {}
        for i, name in enumerate(self.names):
            stats[name] = {
                "calls": int(calls[i]),
                "s": float(total[i]) * 1e-9,
                "self_s": float(own[i]) * 1e-9,
                "elems": int(self.elems.get(name, 0)),
            }
        for name, count in self.leaf_calls.items():
            seconds = self.leaf_time_ns[name] * 1e-9
            stats[name] = {
                "calls": count,
                "s": seconds,
                "self_s": seconds,
                "elems": 0,
            }
        return stats

    def save(self, path):
        """Write every span once, as numpy arrays (ids are row numbers)."""
        a = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            start_ns=a["start"],
            end_ns=a["end"],
            parent=a["parent"],
            name=a["name"],
            self_ns=a["self_ns"],
        )


def module_snapshot():
    """Every attribute of every loaded taan module and traced class."""
    snap = {}
    for modname, module in sorted(sys.modules.items()):
        if module is None or not (modname == "taan" or modname.startswith("taan.")):
            continue
        for attr, value in vars(module).items():
            snap[(modname, attr)] = value
    for modname, cls_name, _attr, _name in METHODS:
        cls = getattr(sys.modules.get(modname), cls_name, None)
        if cls is not None:
            for attr, value in vars(cls).items():
                snap[(modname, cls_name, attr)] = value
    return snap


def changed_attributes(before, after):
    """Keys whose object is not the identical original."""
    return sorted(
        ".".join(key)
        for key in before.keys() | after.keys()
        if before.get(key) is not after.get(key)
    )
