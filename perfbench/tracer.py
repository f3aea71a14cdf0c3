"""Span tracer for the benchmark's traced runs.

`install()` wraps the public functions and ring operations the benchmark
calls into, from outside the package: no file under src/ changes.  Each
wrapped call records one span (name, start, end, parent span, job id) in
flat arrays kept in memory; `dump()` writes them when the process ends.

Python binds imported names in each importer, so a wrapper is rebound in
every `dyckgen` module that holds the original object (for example
`genfun` lives in cli, cluster, touchdown, verify and the package root).
Submodules are reached through `sys.modules`, because the package
attribute `dyckgen.genfun` is the function, not the module.

A wrapped operator that returns NotImplemented hands it back unchanged
and its span is dropped: the reflected operand's method does the work
and records its own span.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from fractions import Fraction

DROPPED = -1   # name id of a span whose call returned NotImplemented

# (module, class, attribute, span name, attribute aliases of the same method)
METHODS = (
    ("dyckgen.exact", "QLaurent", "__mul__", "exact.QLaurent.mul",
     ("__rmul__",)),
    ("dyckgen.exact", "QLaurent", "__add__", "exact.QLaurent.add",
     ("__radd__",)),
    ("dyckgen.exact", "QLaurent", "divexact", "exact.QLaurent.divexact", ()),
    ("dyckgen.exact", "TPoly", "__mul__", "exact.TPoly.mul", ("__rmul__",)),
    ("dyckgen.exact", "LSeries", "__mul__", "exact.LSeries.mul",
     ("__rmul__",)),
    ("dyckgen.exact", "LSeries", "divide", "exact.LSeries.divide", ()),
    ("dyckgen.exact", "LSeries", "exp", "exact.LSeries.exp", ()),
    ("dyckgen.exact", "LSeries", "log", "exact.LSeries.log", ()),
)

# (module, attribute, span name)
FUNCTIONS = (
    ("dyckgen.spectral", "fk_polynomial", "spectral.fk_polynomial"),
    ("dyckgen.genfun", "genfun", "genfun.genfun"),
    ("dyckgen.genfun", "continued_fraction", "genfun.continued_fraction"),
    ("dyckgen.cluster", "genfun_via_cluster", "cluster.genfun_via_cluster"),
    ("dyckgen.cluster", "p_restricted", "cluster.p_restricted"),
    ("dyckgen.touchdown", "tilde_genfun", "touchdown.tilde_genfun"),
    ("dyckgen.touchdown", "tilde_genfun_ratio", "touchdown.tilde_genfun_ratio"),
    ("dyckgen.oracle", "enumerate_paths", "oracle.enumerate_paths"),
)

# Called too often for a span each (one call per composition summed):
# counted only, so their time stays in the caller's self time.
COUNTED = (
    ("dyckgen.cluster", "c2", "cluster.c2"),
)

# lru caches read through cache_info(), which leaves them unchanged.
CACHES = (
    ("dyckgen.spectral", "fk_polynomial", "spectral.fk_polynomial"),
    ("dyckgen.genfun", "_inv_fk", "genfun.inv_fk"),
    ("dyckgen.touchdown", "tilde_secular", "touchdown.tilde_secular"),
)

SUITES = ("determinants", "genfun", "duality", "recursions", "cluster",
          "touchdown")

CLI_COMMANDS = ("genfun", "table", "verify")   # spans cli.cmd_<command>

SPAN_STATS = ("calls", "total_s", "self_s")
SPANS = (tuple(m[3] for m in METHODS) + tuple(f[2] for f in FUNCTIONS)
         + tuple("verify." + s for s in SUITES)
         + tuple("cli.cmd_" + c for c in CLI_COMMANDS))
COUNTERS = (("exact.QLaurent.mul.term_products",
             "exact.QLaurent.mul.max_operand_terms")
            + tuple(c[2] + ".calls" for c in COUNTED)
            + tuple(c[2] + s for c in CACHES for s in (".hits", ".misses")))


class Tracer:
    """In-memory span store.  One instance per traced process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.jobs = array("i")
        self.job = 0
        self.counts = {}
        self.maxima = {}
        self._stack = [-1]
        self._cache_base = {}
        self._caches = {}

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, before=None):
        """Return fn wrapped so that each call records a span; `before`
        sees the call's arguments first (used for operand sizes)."""
        nid = self.name_id(name)
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, jobs, stack = self.parents, self.jobs, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if result is NotImplemented:
                name_ids[i] = DROPPED
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def counted(self, name, fn):
        counts = self.counts
        key = name + ".calls"
        counts[key] = 0

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def watch_cache(self, name, cached):
        self._caches[name] = cached
        info = cached.cache_info()
        self._cache_base[name] = (info.hits, info.misses)

    def cache_deltas(self):
        out = {}
        for name, cached in self._caches.items():
            info = cached.cache_info()
            h0, m0 = self._cache_base[name]
            out[name + ".hits"] = info.hits - h0
            out[name + ".misses"] = info.misses - m0
        return out

    def dump(self, path, extra=None):
        """Write the spans (binary arrays) and a JSON sidecar at path."""
        with open(path + ".bin", "wb") as f:
            for arr in (self.name_ids, self.starts, self.ends, self.parents,
                        self.jobs):
                arr.tofile(f)
        meta = {"names": self.names, "n": len(self.starts),
                "counts": dict(self.counts), "maxima": dict(self.maxima),
                "caches": self.cache_deltas()}
        meta.update(extra or {})
        with open(path + ".json", "w") as f:
            json.dump(meta, f)


def load(path):
    """Read back what `dump` wrote: (meta, spans) with spans a list of
    (name, start, end, parent, job) tuples; dropped spans keep name None."""
    with open(path + ".json") as f:
        meta = json.load(f)
    n = meta["n"]
    arrays = [array(code) for code in "iddii"]
    with open(path + ".bin", "rb") as f:
        for arr in arrays:
            arr.fromfile(f, n)
    names = meta["names"]
    spans = [(names[nid] if nid != DROPPED else None, s, e, p, j)
             for nid, s, e, p, j in zip(*arrays)]
    return meta, spans


def _rebind(modules, old, new):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in value.items():
                    if item is old:
                        value[key] = new


def _qlaurent_sizes(tracer):
    counts, maxima = tracer.counts, tracer.maxima
    counts["exact.QLaurent.mul.term_products"] = 0
    maxima["exact.QLaurent.mul.max_operand_terms"] = 0
    qlaurent = sys.modules["dyckgen.exact"].QLaurent

    def before(args):
        a, b = args
        if isinstance(b, qlaurent):
            nb = b.num_terms()
        elif isinstance(b, (int, Fraction)):
            nb = 1
        else:
            return   # NotImplemented: the reflected method does the work
        na = a.num_terms()
        counts["exact.QLaurent.mul.term_products"] += na * nb
        if max(na, nb) > maxima["exact.QLaurent.mul.max_operand_terms"]:
            maxima["exact.QLaurent.mul.max_operand_terms"] = max(na, nb)

    return before


def install(tracer):
    """Wrap every traced layer boundary of the imported package."""
    import dyckgen.cli  # noqa: F401  (the package root loads the rest)
    modules = [m for n, m in sys.modules.items()
               if n == "dyckgen" or n.startswith("dyckgen.")]
    for modname, attr, name in CACHES:
        tracer.watch_cache(name, getattr(sys.modules[modname], attr))
    for modname, clsname, attr, name, aliases in METHODS:
        cls = getattr(sys.modules[modname], clsname)
        orig = cls.__dict__[attr]
        before = _qlaurent_sizes(tracer) if name == "exact.QLaurent.mul" \
            else None
        traced = tracer.wrap(name, orig, before)
        setattr(cls, attr, traced)
        for alias in aliases:
            if cls.__dict__[alias] is not orig:
                raise RuntimeError(f"{clsname}.{alias} is no longer an alias "
                                   f"of {attr}; trace it separately")
            setattr(cls, alias, traced)
    for modname, attr, name in FUNCTIONS:
        orig = getattr(sys.modules[modname], attr)
        _rebind(modules, orig, tracer.wrap(name, orig))
    for modname, attr, name in COUNTED:
        orig = getattr(sys.modules[modname], attr)
        _rebind(modules, orig, tracer.counted(name, orig))
    verify = sys.modules["dyckgen.verify"]
    for suite in SUITES:
        orig = getattr(verify, "suite_" + suite)
        _rebind(modules, orig, tracer.wrap("verify." + suite, orig))
