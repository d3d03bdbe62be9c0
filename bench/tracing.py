"""Per-layer tracing installed from the benchmark, with ``src/`` untouched.

A wrapper replaces each traced function at every module attribute that
callers look up: functions imported by name into other modules are
patched in each importing namespace, methods on their class.  Calls made
while an op is running record a span (name, start, end, parent, op id) in
flat in-memory arrays; generators are timed inside each ``next()``.  Count
wrappers only count.  Spans are written once, when the run ends.

Layer names are the package's module names without the leading underscore
(``_scan`` is ``scan``), because metric names start with a letter.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "mathieu_kit"
BLOCK_ROWS = 1 << 16


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


# -- counters recorded at the span boundaries ----------------------------------------


def _batch_mul_done(tr, args, kwargs, result, state) -> None:
    tr.counts["scan.batch_mul.rows"] += len(_arg(args, kwargs, 1, "x"))


def _idempotent_coords_done(tr, args, kwargs, result, state) -> None:
    ambient = _arg(args, kwargs, 0, "ambient")
    basis_rows = _arg(args, kwargs, 1, "basis_rows")
    tr.counts["scan.idempotent_coords.vectors"] += ambient.field.order ** len(basis_rows)
    tr.counts["scan.idempotent_coords.found"] += len(result)


def _build_power_chunk_start(tr, args, kwargs):
    return tr.counts["scan.batch_mul.calls"]


def _build_power_chunk_done(tr, args, kwargs, chunk, batch_mul_before) -> None:
    # the chunk holds powers a^1..a^horizon: the block itself plus one
    # batch_mul per further power
    horizon = 1 + tr.counts["scan.batch_mul.calls"] - batch_mul_before
    c = tr.counts
    c["scan.build_power_chunk.elements"] += chunk.count
    c["scan.build_power_chunk.rows_kept"] += len(chunk.rows)
    c["scan.build_power_chunk.rows_built"] += chunk.count * horizon
    c["scan.build_power_chunk.max_horizon"] = max(c["scan.build_power_chunk.max_horizon"], horizon)


def _power_chunks_start(tr, args, kwargs):
    return tr.counts["scan.build_power_chunk.calls"]


def _power_chunks_done(tr, args, kwargs, result, builds_before) -> None:
    if tr.counts["scan.build_power_chunk.calls"] == builds_before:
        tr.counts["scan.power_chunks.cache_hits"] += 1


def _membership_bitmap_done(tr, args, kwargs, result, state) -> None:
    tr.counts["scan.membership_bitmap.rows"] += len(_arg(args, kwargs, 0, "rows"))


def _radical_enumerate_done(tr, args, kwargs, result, state) -> None:
    tr.counts["mathieu.radical_enumerate.elements"] += _arg(args, kwargs, 0, "v").ambient.size


#: (module, attribute, span name, start hook, done hook).  The start hook's
#: return value reaches the done hook; for a generator the done hook runs
#: when the generator is exhausted or closed.
SPANS = (
    ("_scan", "batch_mul", "scan.batch_mul", None, _batch_mul_done),
    ("_scan", "idempotent_coords", "scan.idempotent_coords", None, _idempotent_coords_done),
    ("_scan", "build_power_chunk", "scan.build_power_chunk",
     _build_power_chunk_start, _build_power_chunk_done),
    ("_scan", "power_chunks", "scan.power_chunks", _power_chunks_start, _power_chunks_done),
    ("_scan", "membership_bitmap", "scan.membership_bitmap", None, _membership_bitmap_done),
    ("mathieu", "decide_mathieu", "mathieu.decide_mathieu", None, None),
    ("mathieu", "oracle_mathieu", "mathieu.oracle_mathieu", None, None),
    ("mathieu", "radical_enumerate", "mathieu.radical_enumerate", None, _radical_enumerate_done),
    ("matrixlab", "classify_codim1", "matrixlab.classify_codim1", None, None),
    ("subspace", "max_theta_ideal", "subspace.max_theta_ideal", None, None),
    ("subspace", "enumerate_subspaces", "subspace.enumerate_subspaces", None, None),
    ("subspace", "Subspace.span", "subspace.Subspace.span", None, None),
    ("algebra", "minimal_polynomial", "algebra.minimal_polynomial", None, None),
    ("algebra", "power_cycle", "algebra.power_cycle", None, None),
    ("_linalg", "rref", "linalg.rref", None, None),
    ("_linalg", "in_span", "linalg.in_span", None, None),
    ("experiments", "catalog", "experiments.catalog", None, None),
    ("experiments", "run_suite", "experiments.run_suite", None, None),
    ("cli", "main", "cli.main", None, None),
)

#: (module, attribute, counter): called too often for a span each.
COUNTS = (
    ("fields", "Field.add", "fields.ops.calls"),
    ("fields", "Field.sub", "fields.ops.calls"),
    ("fields", "Field.mul", "fields.ops.calls"),
    ("fields", "Field.neg", "fields.ops.calls"),
    ("fields", "Field.inv", "fields.ops.calls"),
    ("algebra", "Algebra._mul_coords", "algebra.mul_coords.calls"),
)

#: Every function defined in this module is one span of the serialize layer.
SERIALIZE = "serialize"


class Tracer:
    """Spans and counters of the ops run while it is installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.current_op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, name: str, on_start, on_done):
        nid = self._intern(name)
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.current_op < 0:
                return fn(*args, **kwargs)
            self.counts[calls] += 1
            state = on_start(self, args, kwargs) if on_start else None
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if isinstance(result, types.GeneratorType):
                return self._iterate(result, nid, name, args, kwargs, state, on_done)
            if on_done:
                on_done(self, args, kwargs, result, state)
            return result

        return wrapper

    def _iterate(self, it, nid, name, args, kwargs, state, on_done):
        yielded = name + ".yielded"
        try:
            while True:
                idx = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts[yielded] += 1
                yield item
        finally:
            it.close()
            if on_done:
                on_done(self, args, kwargs, None, state)

    def _count_wrapper(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.current_op >= 0:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ----------------------------------------------------------------------

    def _replace(self, module_name: str, attr: str, make) -> None:
        module = sys.modules[f"{PACKAGE}.{module_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(make(raw.__func__))
            else:
                patched = make(raw)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, patched)
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        """Wrap every traced function; :meth:`uninstall` restores them."""
        for module, attr, name, on_start, on_done in SPANS:
            self._replace(module, attr, lambda fn, n=name, s=on_start, d=on_done:
                          self._span_wrapper(fn, n, s, d))
        for module, attr, key in COUNTS:
            self._replace(module, attr, lambda fn, k=key: self._count_wrapper(fn, k))
        ser = sys.modules[f"{PACKAGE}.{SERIALIZE}"]
        for attr, value in list(vars(ser).items()):
            if isinstance(value, types.FunctionType) and value.__module__ == ser.__name__:
                self._replace(SERIALIZE, attr, lambda fn, a=attr:
                              self._span_wrapper(fn, f"serialize.{a}", None, None))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- results -------------------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def write(self, path: Path) -> None:
        """Write every span, with the name table, as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.arrays())


def self_times(start, end, parent) -> tuple[np.ndarray, np.ndarray]:
    """(duration, self time) per span: self time is the duration minus the
    durations of the span's direct children."""
    start = np.asarray(start, dtype=np.float64)
    dur = np.asarray(end, dtype=np.float64) - start
    parent = np.asarray(parent, dtype=np.int64)
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur, dur - child


def layer_metrics(tr: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer metrics, as totals per traced round (or ratios of totals)."""
    arr = tr.arrays()
    dur, own = self_times(arr["start"], arr["end"], arr["parent"])
    in_op = arr["op"] >= 0
    k = len(tr.names)
    self_by = np.bincount(arr["name"][in_op], weights=own[in_op], minlength=k)
    incl_by = np.bincount(arr["name"][in_op], weights=dur[in_op], minlength=k)
    self_s = {n: float(self_by[i]) for i, n in enumerate(tr.names)}
    incl_s = {n: float(incl_by[i]) for i, n in enumerate(tr.names)}
    c = tr.counts

    def per_round(x) -> float:
        return float(x) / rounds

    def ratio(num, den) -> float:
        return float(num) / den if den else 0.0

    m = {}
    for name in ("scan.batch_mul", "scan.power_chunks", "mathieu.decide_mathieu",
                 "mathieu.oracle_mathieu", "mathieu.radical_enumerate",
                 "subspace.max_theta_ideal", "subspace.Subspace.span",
                 "algebra.minimal_polynomial", "algebra.power_cycle", "linalg.rref",
                 "linalg.in_span"):
        m[f"{name}.calls"] = per_round(c[f"{name}.calls"])
    for name in ("scan.batch_mul", "scan.idempotent_coords", "scan.build_power_chunk",
                 "scan.membership_bitmap", "mathieu.decide_mathieu",
                 "mathieu.oracle_mathieu", "mathieu.radical_enumerate",
                 "matrixlab.classify_codim1", "subspace.max_theta_ideal",
                 "subspace.enumerate_subspaces", "subspace.Subspace.span",
                 "algebra.minimal_polynomial", "algebra.power_cycle", "linalg.rref",
                 "linalg.in_span", "experiments.catalog", "experiments.run_suite",
                 "cli.main"):
        m[f"{name}.self_s"] = per_round(self_s.get(name, 0.0))
    m["serialize.self_s"] = per_round(
        sum(v for n, v in self_s.items() if n.startswith("serialize."))
    )
    rows = c["scan.batch_mul.rows"]
    m["scan.batch_mul.rows"] = per_round(rows)
    m["scan.batch_mul.ms_per_block"] = 1000 * ratio(incl_s.get("scan.batch_mul", 0.0),
                                                    rows / BLOCK_ROWS)
    m["scan.idempotent_coords.vectors"] = per_round(c["scan.idempotent_coords.vectors"])
    m["scan.idempotent_coords.idempotents_per_vector"] = ratio(
        c["scan.idempotent_coords.found"], c["scan.idempotent_coords.vectors"])
    elements = c["scan.build_power_chunk.elements"]
    m["scan.build_power_chunk.elements"] = per_round(elements)
    m["scan.build_power_chunk.us_per_element"] = 1e6 * ratio(
        incl_s.get("scan.build_power_chunk", 0.0), elements)
    m["scan.build_power_chunk.max_horizon"] = float(c["scan.build_power_chunk.max_horizon"])
    m["scan.build_power_chunk.rows_kept_ratio"] = ratio(
        c["scan.build_power_chunk.rows_kept"], c["scan.build_power_chunk.rows_built"])
    m["scan.power_chunks.cache_hits"] = per_round(c["scan.power_chunks.cache_hits"])
    m["scan.membership_bitmap.rows"] = per_round(c["scan.membership_bitmap.rows"])
    m["mathieu.radical_enumerate.elements"] = per_round(c["mathieu.radical_enumerate.elements"])
    m["subspace.enumerate_subspaces.yielded"] = per_round(c["subspace.enumerate_subspaces.yielded"])
    m["algebra.mul_coords.calls"] = per_round(c["algebra.mul_coords.calls"])
    m["fields.ops.calls"] = per_round(c["fields.ops.calls"])
    return m
