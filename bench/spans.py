"""Per-layer tracing from outside the program.

``install(tracer)`` wraps every public function of the traced stabkit
modules (plus ``NSLattice.ns_dot``) and patches the wrapper into every
stabkit module that bound the name, so calls made through an imported name
are seen too. Spans stay in memory and are written when the traced run
ends: name, start, end, parent, job id. Every job has its own top-level
span, so every span belongs to one job. Repeated calls of one function
under the same parent span, in one pass or over several, are merged into
one span that carries ``calls`` and ``busy_s`` (the summed duration), which
keeps memory bounded by jobs times call tree instead of the call count;
self time is unaffected because spans of one thread nest. A generator's
span counts only the time spent inside it, not the consumer's time between
items.

Self time of a span is its busy time minus the busy time of its child
spans. Layer metrics are totals over the traced passes divided by the
number of passes, so they read "per pass over the job list".
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from typing import Dict, List

# module -> layer name used in the metric names
LAYERS = ("cli", "serialize", "manifest", "lattice", "linalg", "walls", "nef",
          "rank2", "support", "ellipsoid", "charges", "hn")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, unit) of every per-layer metric, as BENCHMARK.json lists them
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    PER_LAYER = [(m["name"], m["unit"]) for m in json.load(_f)["per_layer"]]

HOOK = "trace.hook"  # bookkeeping of the hooks below, kept out of self times


class Tracer:
    def __init__(self):
        # span: [name, parent, job, calls, busy, start, end]
        self.spans: List[list] = []
        self.index: Dict[tuple, int] = {}
        self.stack: List[int] = []
        self.counters: Dict[str, int] = {}
        self.job = None
        self.collect = None  # points yielded inside the current root search

    def span(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        # the job id keeps the top-level span of each job apart; spans
        # below it are then per job through their parent
        key = (parent, name, self.job)
        idx = self.index.get(key)
        if idx is None:
            idx = len(self.spans)
            self.index[key] = idx
            self.spans.append([name, parent, self.job, 0, 0.0, None, None])
        return idx

    def close(self, idx: int, t0: float, t1: float, calls: int = 1):
        s = self.spans[idx]
        s[3] += calls
        s[4] += t1 - t0
        if s[5] is None:
            s[5] = t0
        s[6] = t1

    def count(self, key: str, n) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def begin_job(self, job_id: str) -> None:
        self.job = job_id
        self.stack = []
        self.stack.append(self.span("job"))
        self._job_t0 = time.perf_counter()

    def end_job(self) -> None:
        self.close(self.stack.pop(), self._job_t0, time.perf_counter())
        self.job = None

    def hook(self, fn, *args) -> None:
        """Run benchmark bookkeeping inside its own span so that its time
        is not charged to the traced function's caller."""
        idx = self.span(HOOK)
        t0 = time.perf_counter()
        fn(*args)
        self.close(idx, t0, time.perf_counter())

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, parent, job, calls, busy, start, end) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "parent": parent, "job": job,
                                    "start": start, "end": end, "calls": calls,
                                    "busy_s": busy}) + "\n")

    def self_times(self) -> Dict[str, float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] >= 0:
                child[s[1]] += s[4]
        out: Dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s[0]] = out.get(s[0], 0.0) + s[4] - child[i]
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for s in self.spans:
            out[s[0]] = out.get(s[0], 0) + s[3]
        return out


# -- hooks: counts measured where the work happens ------------------------------------


def _after_scan_walls(tr, args, result):
    _, slice_, _, bound = args[:4]
    tr.count("walls.candidates", (2 * bound + 1) ** (slice_.lattice.rank + 2))
    tr.count("walls.walls_found", len(result))


def _after_dumps(tr, args, result):
    tr.count("serialize.bytes_out", len(result.encode("utf-8")))


def _after_decomposition_scan(tr, args, result):
    tr.count("nef.decompositions_found", len(result))


def _after_min_root_norm(tr, args, result):
    tr.count("support.min_root_norm.points", result.points_visited)


def _count_roots(tr, gram, points):
    m = [[int(x) for x in row] for row in gram]
    n = len(m)
    roots = 0
    for x in points:
        if sum(x[i] * m[i][j] * x[j] for i in range(n) for j in range(n) if m[i][j]) == -2:
            roots += 1
    tr.count("support.search_points", len(points))
    tr.count("support.search_roots", roots)


AFTER = {
    "walls.scan_walls": _after_scan_walls,
    "serialize.dumps": _after_dumps,
    "nef.decomposition_scan": _after_decomposition_scan,
    "support.min_root_norm": _after_min_root_norm,
}


def _wrap(tr: Tracer, name: str, fn):
    after = AFTER.get(name)

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            idx = None
            items = 0
            collect = tr.collect
            try:
                while True:
                    if idx is None:
                        idx = tr.span(name)
                    tr.stack.append(idx)
                    t0 = time.perf_counter()
                    try:
                        x = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = time.perf_counter()
                        tr.stack.pop()
                        tr.close(idx, t0, t1, calls=0)
                    items += 1
                    if collect is not None:
                        collect.append(x)
                    yield x
            finally:
                it.close()
                if idx is not None:
                    tr.spans[idx][3] += 1
                tr.count("ellipsoid.points_yielded", items)
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tr.span(name)
        tr.stack.append(idx)
        searching = name == "support.min_root_norm"
        if searching:
            outer, tr.collect = tr.collect, []
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            t1 = time.perf_counter()
            tr.stack.pop()
            tr.close(idx, t0, t1)
            if searching and type(exc).__name__ == "BudgetError":
                tr.count("support.budget_exhausted", 1)
            raise
        else:
            t1 = time.perf_counter()
            tr.stack.pop()
            tr.close(idx, t0, t1)
            if after is not None:
                tr.hook(after, tr, args, result)
            return result
        finally:
            if searching:
                points, tr.collect = tr.collect, outer
                gram = args[3] if len(args) > 3 else kwargs["ambient_gram"]
                tr.hook(_count_roots, tr, gram, points)
    return wrapper


_patched: List[tuple] = []


def install(tr: Tracer) -> Tracer:
    """Wrap the traced functions so that ``tr`` records them; ``uninstall``
    undoes it, and ``tr`` may be installed again to record more passes."""
    modules = {layer: importlib.import_module(f"stabkit.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrapped[id(obj)] = (obj, _wrap(tr, f"{layer}.{attr}", obj))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "stabkit" or mod_name.startswith("stabkit.")):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                _patched.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    lattice = modules["lattice"]
    orig = lattice.NSLattice.ns_dot
    _patched.append((lattice.NSLattice, "ns_dot", orig))
    lattice.NSLattice.ns_dot = _wrap(tr, "lattice.ns_dot", orig)
    return tr


def uninstall() -> None:
    while _patched:
        owner, attr, obj = _patched.pop()
        setattr(owner, attr, obj)


def layer_metrics(tr: Tracer, workload, passes: int):
    """Every per-layer metric of PER_LAYER, per traced pass."""
    self_s = tr.self_times()
    calls = tr.calls()
    layer_self: Dict[str, float] = {}
    for name, value in self_s.items():
        layer = name.split(".")[0]
        if layer in LAYERS:
            layer_self[layer] = layer_self.get(layer, 0.0) + value
    c = tr.counters
    presentations = [job.meta for job in workload.jobs if job.kind in ("hn", "validate")]
    derived = {
        "walls.wall_yield": (c.get("walls.walls_found", 0) / c["walls.candidates"]
                             if c.get("walls.candidates") else 0.0),
        "support.root_ratio": (c.get("support.search_roots", 0) / c["support.search_points"]
                               if c.get("support.search_points") else 0.0),
        # input sizes of one pass: objects and listed edges of every
        # presentation an hn or validate-category job reads
        "hn.objects": sum(len(m["objects"]) for m in presentations),
        "hn.edges": sum(m["edges"] for m in presentations),
    }
    out = {}
    for name, unit in PER_LAYER:
        if name.startswith("trace."):
            continue
        if name in derived:
            value = derived[name]
        elif name.endswith(".calls"):
            value = calls.get(name[:-len(".calls")], 0) / passes
        elif name.endswith(".self_s"):
            key = name[:-len(".self_s")]
            value = (layer_self.get(key, 0.0) if key in LAYERS else self_s.get(key, 0.0)) / passes
        else:
            value = c.get(name, 0) / passes
        out[name] = (value, unit)
    return out
