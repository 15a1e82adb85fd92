"""Span tracing of treesym's public functions, installed from outside.

``Tracer.install`` rebinds every traced function at every name it is bound
to in the ``treesym`` modules, so cross-module ``from .x import f`` bindings
(``treesym.cli.run_theorem_suite``, ``treesym.coloring.a_values``, ...) are
traced too. Each call records one span (name, parent, start, end) in flat
arrays kept in memory; ``write`` saves them when the run ends. A span's self
time is its duration minus the durations of its child spans.

Generator functions (``enumerate_automorphisms``, ``all_trees``) record one
span per resumption, so the time spent inside them is charged to them and
not to their consumer; their ``calls`` count generators created.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from weakref import WeakKeyDictionary

TRACED = {
    "trees": ("parse_edge_list", "center", "root_at"),
    "canon": ("subtree_codes", "child_classes", "colored_subtree_codes"),
    "autom": ("aut_order", "motion", "enumerate_automorphisms"),
    "asym": ("a_values", "asym_rooted", "asym_unrooted"),
    "coloring": (
        "combinadic_unrank",
        "unrank_unrooted",
        "construct_distinguishing",
        "verify_distinguishing",
        "extend_ray_coloring",
    ),
    "corpus": ("tree_from_pruefer", "all_trees", "run_theorem_suite", "conjecture_check"),
    "oracle": ("brute_asym", "brute_graph_aut"),
    "treelike": ("treelike_distinguish",),
    "cli": ("main",),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Functions whose result the package caches per RootedTree instance: a hit is
# a call that gets back the identical object the same live tree got before.
CACHED = ("canon.subtree_codes", "asym.a_values")


class Tracer:
    def __init__(self):
        self.names = list(TRACED_NAMES)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.hits = {name: 0 for name in CACHED}
        self.automorphisms = 0
        self.colorings_scanned = 0
        self._stack: list[int] = []
        self._last: dict[str, WeakKeyDictionary] = {name: WeakKeyDictionary() for name in CACHED}
        self._restore: list[tuple[object, str, object]] = []
        self.active = False

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "treesym" or name.startswith("treesym.")]
        for nid, qual in enumerate(self.names):
            mod, fn = qual.split(".")
            original = getattr(sys.modules[f"treesym.{mod}"], fn)
            wrapper = self._wrap(nid, qual, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, value))
                        setattr(m, attr, wrapper)
        self.active = True

    def uninstall(self) -> None:
        for m, attr, value in reversed(self._restore):
            setattr(m, attr, value)
        self._restore.clear()
        self.active = False

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, nid: int, qual: str, fn):
        clock = time.perf_counter
        starts, ends, stack, calls = self.span_start, self.span_end, self._stack, self.calls
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                calls[nid] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = tracer._open(nid)
                        starts[idx] = clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            ends[idx] = clock()
                            stack.pop()
                        if qual == "autom.enumerate_automorphisms":
                            tracer.automorphisms += 1
                        yield item
                finally:
                    it.close()

            traced_gen.__wrapped__ = fn
            return traced_gen

        observe = self._observer(qual)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[nid] += 1
            idx = tracer._open(nid)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observer(self, qual: str):
        """Constant-time bookkeeping on a traced call's arguments and result."""
        if qual in CACHED:
            last = self._last[qual]

            def observe_cache(args, result):
                rt = args[0]
                if last.get(rt) is result:
                    self.hits[qual] += 1
                else:
                    last[rt] = result

            return observe_cache
        if qual == "oracle.brute_graph_aut":
            def observe_graph_aut(args, result):
                self.automorphisms += len(result)

            return observe_graph_aut
        if qual == "oracle.brute_asym":
            def observe_brute_asym(args, result):
                self.colorings_scanned += result.total_colorings

            return observe_brute_asym
        return None

    # -- results ------------------------------------------------------------

    def mark(self) -> int:
        """Span count so far; ``self_times(since=mark)`` covers later spans only."""
        return len(self.span_name)

    def self_times(self, since: int = 0, until: int | None = None) -> list[float]:
        """Summed self time per traced name over spans ``since`` <= index < ``until``.

        Callers pass marks taken while no span was open, so no span in the
        range has a parent outside it.
        """
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        n = len(names) if until is None else until
        child = [0.0] * (n - since)
        out = [0.0] * len(self.names)
        for i in range(n - 1, since - 1, -1):
            d = ends[i] - starts[i]
            out[names[i]] += d - child[i - since]
            p = parents[i]
            if p >= since:
                child[p - since] += d
        return out

    def write(self, path_stem: str, meta: dict) -> None:
        """Save the spans: ``<stem>.json`` describes ``<stem>.bin``.

        The binary file holds four arrays of ``count`` items back to back:
        name index (int32), parent span index or -1 (int32), start and end
        (float64 seconds from ``time.perf_counter``).
        """
        header = dict(meta)
        header.update(
            names=self.names,
            count=len(self.span_name),
            arrays=[
                ["name", self.span_name.typecode],
                ["parent", self.span_parent.typecode],
                ["start", self.span_start.typecode],
                ["end", self.span_end.typecode],
            ],
            byteorder=sys.byteorder,
        )
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
        with open(path_stem + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
