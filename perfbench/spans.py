"""Outside-in span tracer for the npshell layers.

Inside ``with tracer.active(op_id):`` every public function of the six
layer modules (cli, transmission, potentials, harmonics, kelvin, oracle) is
replaced, in every ``npshell.*`` namespace that binds it, by a wrapper that
records a span:
(name, start, end, parent span, op id) plus one size taken from the
arguments or the result.  ``QuadratureRule.surface_nodes``/``polar_nodes``
are wrapped on the class, and ``harmonics._norm_legendre`` is wrapped so the
Legendre recurrence shows as its own span.  Leaving the block puts the
originals back, so untraced ops run the unmodified library.

Spans are kept in flat arrays in memory and analysed (self time per layer,
inclusive stage times, counts) after the run.  The wrapper's bookkeeping
after a call counts toward its caller's self time; the traced run reports
that cost as ``trace.overhead_frac``.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("cli", "transmission", "potentials", "harmonics", "kelvin", "oracle")
EXTRA = {"harmonics": ("_norm_legendre",)}
CLASS_METHODS = {"oracle": {"QuadratureRule": ("surface_nodes", "polar_nodes")}}


def _size(obj) -> int:
    return int(getattr(obj, "size", 0) or 0)


def _nbytes(obj) -> int:
    return int(getattr(obj, "nbytes", 0) or 0)


# How each span's `size` is measured: by default the bytes of the returned
# array; a few functions record an argument's size instead.
SIZE_OF = {
    "harmonics.eval_ylm": lambda a, kw, r: _size(np.asarray(a[2])) if len(a) > 2 else 0,
    "oracle.fsum_c": lambda a, kw, r: _size(np.asarray(a[0])),
    "transmission.energy": lambda a, kw, r: len(a[0].phi_i),
    "oracle.QuadratureRule.surface_nodes": lambda a, kw, r: _size(r[1]),
    "oracle.QuadratureRule.polar_nodes": lambda a, kw, r: _size(r[1]),
}


class Tracer:
    """Records spans from wrapped layer functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self._name_id: dict[str, int] = {}
        self.sid = array("q")
        self.name = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.size = array("q")
        self.node_sets: dict[tuple, int] = {}
        self.current = -1
        self.next_sid = 0
        self.op_id = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self._wrappers: dict[int, object] = {}

    # -- recording -------------------------------------------------------

    def _register(self, qualname: str, layer: str) -> int:
        if qualname not in self._name_id:
            self._name_id[qualname] = len(self.names)
            self.names.append(qualname)
            self.layer_of.append(LAYERS.index(layer))
        return self._name_id[qualname]

    def wrap(self, fn, qualname: str, layer: str):
        nid = self._register(qualname, layer)
        size_of = SIZE_OF.get(qualname, lambda a, kw, r: _nbytes(r))
        node_method = qualname.startswith("oracle.QuadratureRule.")
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tr.current
            sid = tr.next_sid
            tr.next_sid = sid + 1
            tr.current = sid
            ok = False
            res = None
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
                ok = True
                return res
            finally:
                t1 = perf_counter()
                tr.current = parent
                tr.sid.append(sid)
                tr.name.append(nid)
                tr.t0.append(t0)
                tr.t1.append(t1)
                tr.parent.append(parent)
                tr.op.append(tr.op_id)
                size = 0
                if ok:
                    try:
                        size = size_of(args, kwargs, res)
                        if node_method:
                            rule = args[0]
                            radius = args[1] if len(args) > 1 else kwargs.get("radius", 1.0)
                            key = (qualname, rule.n_theta, rule.n_phi, float(radius))
                            tr.node_sets[key] = tr.node_sets.get(key, 0) + 1
                    except (AttributeError, IndexError, TypeError):
                        pass  # a changed signature loses this count, never the op
                tr.size.append(size)

        return wrapper

    # -- patching --------------------------------------------------------

    def _prepare(self) -> None:
        """Build one wrapper per function and the list of places to patch."""
        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"npshell.{layer}")
            for attr, obj in list(vars(mod).items()):
                public = not attr.startswith("_") or attr in EXTRA.get(layer, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = obj
                    self._wrappers[id(obj)] = self.wrap(obj, f"{layer}.{attr}", layer)
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    wrapper = self.wrap(fn, f"{layer}.{cls_name}.{meth}", layer)
                    self._patches.append((cls, meth, fn, wrapper))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "npshell" or modname.startswith("npshell.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if originals.get(id(obj)) is obj:
                    self._patches.append((mod, attr, obj, self._wrappers[id(obj)]))

    @contextmanager
    def active(self, op_id: int):
        """Trace everything called inside the block as op `op_id`."""
        if not self._patches:
            self._prepare()
        self.op_id = op_id
        for owner, attr, _orig, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, orig, _wrapper in self._patches:
                setattr(owner, attr, orig)
            self.op_id = -1

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "sid": np.frombuffer(self.sid, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span (and the name table) as one .npz file."""
        np.savez(path, names=np.array(self.names), layer_of=np.array(self.layer_of),
                 **self.arrays())


def self_times(sid: np.ndarray, t0: np.ndarray, t1: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans of one thread nest, so children of one parent never overlap and
    the covered time is the sum of their durations.  `parent` holds the
    parent's span id, or -1 at top level.
    """
    dur = t1 - t0
    if len(sid) == 0:
        return dur
    index = np.full(int(sid.max()) + 1, -1, dtype=np.int64)
    index[sid] = np.arange(len(sid))
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    has_parent[has_parent] = index[parent[has_parent]] >= 0
    np.add.at(covered, index[parent[has_parent]], dur[has_parent])
    return dur - covered
