"""Span tracer for the matroidkit benchmark, installed from outside.

`install` wraps the public functions of each traced module, and the public
methods of the classes each module defines, so that every call records a
span: its name, the ground-set size it worked on and its duration.  Spans
are folded into per-(name, n) totals as they close, so a run of millions of
calls needs no per-span memory.  Self time is a span's duration minus the
part its child spans cover.

Only the benchmark's traced child process imports this module; the timed
runs never load it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import sys
import time

MODULES = ("core", "builders", "connectivity", "structures", "minors",
           "harness", "cli", "corpus")

# Constant-time accessors and bit helpers, called millions of times per run.
# A span costs about a microsecond, which is more than the work these do, so
# tracing them would measure the tracer rather than the layer.
SKIP = frozenset({
    "core.bit", "core.mask_of", "core.elems", "core.popcount", "core.lex_key",
    "core.Matroid.id_of", "core.Matroid.set_of", "core.Matroid.label_list",
    "core.Matroid.fmt", "core.Matroid.table", "core.Matroid.rank_of",
    "core.Matroid.corank_of", "core.Matroid.is_loop", "core.Matroid.is_coloop",
})

# A call of the key span that opens no child span of the value is a cache hit.
CACHE_PROBES = {"minors.has_minor": "minors.labellings"}

CALLS, SELF, INCL, FOUND, HITS = range(5)


class Tracer:
    """Stack of open spans plus per-(name, n) totals of the closed ones.

    `stats[(name, n)]` is [calls, self seconds, inclusive seconds, calls
    that returned something other than None, cache hits].  `n` is the
    ground-set size of the span's first Matroid argument, else its `n`
    argument, else the size its first tagged child span worked on.
    """

    def __init__(self, clock=time.perf_counter, matroid=()):
        self.clock = clock
        self.matroid = matroid
        self.stats: dict = {}
        # frame: [name, n, seconds covered by children, names of children]
        self.root = [None, None, 0.0, set()]
        self.stack = [self.root]
        self.started = clock()
        self.traced: list[str] = []

    def _row(self, name, n):
        row = self.stats.get((name, n))
        if row is None:
            row = self.stats[(name, n)] = [0, 0.0, 0.0, 0, 0]
        return row

    def _close(self, frame, dur, found, count=True):
        name, n, child, kids = frame
        parent = self.stack[-1]
        parent[2] += dur
        parent[3].add(name)
        if parent[1] is None:
            parent[1] = n
        row = self._row(name, n)
        row[SELF] += dur - child
        row[INCL] += dur
        if count:
            row[CALLS] += 1
            row[FOUND] += found
            probe = CACHE_PROBES.get(name)
            if probe is not None and probe not in kids:
                row[HITS] += 1

    def wrap(self, fn, name):
        """Return a traced stand-in for `fn`; generator functions get one
        span per resumption, so their self time lands where they run."""
        params = list(inspect.signature(fn).parameters)
        n_at = params.index("n") if "n" in params else None
        matroid = self.matroid
        stack = self.stack
        clock = self.clock
        close = self._close

        if inspect.isgeneratorfunction(fn):
            def resumed(gen, n):
                while True:
                    stack.append([name, n, 0.0, set()])
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(stack.pop(), clock() - t0, False, count=False)
                    yield item

            def traced_gen(*args, **kwargs):
                n = _tag(args, kwargs, matroid, n_at)
                self._row(name, n)[CALLS] += 1
                return resumed(fn(*args, **kwargs), n)
            traced = traced_gen
        else:
            def traced_call(*args, **kwargs):
                n = _tag(args, kwargs, matroid, n_at)
                stack.append([name, n, 0.0, set()])
                found = False
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                    found = out is not None
                    return out
                finally:
                    close(stack.pop(), clock() - t0, found)
            traced = traced_call
        return functools.update_wrapper(traced, fn)

    def wall(self) -> float:
        return self.clock() - self.started

    def covered(self) -> float:
        """Seconds inside at least one span."""
        return self.root[2]


def _tag(args, kwargs, matroid, n_at):
    for a in args:
        if isinstance(a, matroid):
            return a.n
    if n_at is not None:
        if n_at < len(args):
            return args[n_at]
        return kwargs.get("n")
    return None


def _targets(package, modules):
    """(owner, attribute, function, span name) for every public function
    of each module and every public method of its classes.  A module that
    no longer exists yields nothing."""
    for short in modules:
        try:
            mod = importlib.import_module(f"{package}.{short}")
        except ImportError:
            continue
        for attr, val in vars(mod).items():
            if (attr.startswith("_")
                    or getattr(val, "__module__", None) != mod.__name__):
                continue
            if inspect.isfunction(val):
                yield mod, attr, val, f"{short}.{attr}"
            elif inspect.isclass(val) and not issubclass(val, BaseException):
                for meth, fn in vars(val).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        yield val, meth, fn, f"{short}.{attr}.{meth}"


def _swap(obj, table):
    """`obj` with every wrapped function replaced by its stand-in, rebuilt
    only when something inside changed."""
    if callable(obj) and id(obj) in table:
        return table[id(obj)]
    if isinstance(obj, (tuple, list)):
        new = [_swap(x, table) for x in obj]
        if any(a is not b for a, b in zip(new, obj)):
            return type(obj)(new)
    elif isinstance(obj, dict):
        new = {k: _swap(v, table) for k, v in obj.items()}
        if any(new[k] is not v for k, v in obj.items()):
            return new
    return obj


def install(package="matroidkit", modules=MODULES, skip=SKIP) -> Tracer:
    """Trace `package` in place and return the tracer.

    Every module of the package that holds a traced function under any
    name, or inside a module-level tuple, list or dict, is rebound to the
    stand-in, because modules that import by name would otherwise keep
    calling the original.
    """
    targets = list(_targets(package, modules))
    tracer = Tracer(matroid=getattr(sys.modules.get(f"{package}.core"),
                                    "Matroid", ()))
    table = {}
    for owner, attr, fn, name in targets:
        if name in skip or id(fn) in table:
            continue
        table[id(fn)] = tracer.wrap(fn, name)
        setattr(owner, attr, table[id(fn)])
        tracer.traced.append(name)
    swapped = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.split(".")[0] != package:
            continue
        for attr, val in list(vars(mod).items()):
            if id(val) not in swapped:
                swapped[id(val)] = _swap(val, table)
            if swapped[id(val)] is not val:
                setattr(mod, attr, swapped[id(val)])
    return tracer


# Metrics computed from several spans: (source spans, stats -> value).
def _sum(stats, name, col, n=None):
    return sum(row[col] for (nm, k), row in stats.items()
               if nm == name and (n is None or k == n))


def _ratio(a, b):
    return a / b if b else 0.0


def _uncovered(wall, covered):
    return _ratio(wall - covered, wall)


DERIVED = {
    "core.rank_table.cells": (
        ["core.rank_table"],
        lambda t: float(sum(row[CALLS] << k for (nm, k), row in t.stats.items()
                            if nm == "core.rank_table" and k is not None))),
    "core.is_isomorphic.found_ratio": (
        ["core.is_isomorphic"],
        lambda t: _ratio(_sum(t.stats, "core.is_isomorphic", FOUND),
                         _sum(t.stats, "core.is_isomorphic", CALLS))),
    "minors.cache_hit_ratio": (
        ["minors.has_minor", "minors.labellings"],
        lambda t: _ratio(_sum(t.stats, "minors.has_minor", HITS),
                         _sum(t.stats, "minors.has_minor", CALLS))),
    "trace.uncovered_frac": ([], lambda t: _uncovered(t.wall(), t.covered())),
}
STATS = {"self_s": SELF, "calls": CALLS, "s": INCL}


def layer_metrics(names, tracer):
    """Values of the named per-layer metrics, and the span names they need
    that the package no longer has (their metrics read 0).

    A name is `<span>[.n<k>].<stat>` with stat `self_s`, `calls` or `s`
    (inclusive seconds), or one of DERIVED.  Names this tracer cannot
    compute are left out.
    """
    values, absent = {}, set()
    for name in names:
        if name in DERIVED:
            sources, fn = DERIVED[name]
            values[name] = fn(tracer)
        else:
            head, _, stat = name.rpartition(".")
            if stat not in STATS:
                continue
            span, _, last = head.rpartition(".")
            n = int(last[1:]) if re.fullmatch(r"n\d+", last) else None
            if n is None:
                span = head
            sources = [span]
            values[name] = float(_sum(tracer.stats, span, STATS[stat], n))
        absent.update(s for s in sources if s not in tracer.traced)
    return values, sorted(absent)
