"""Span tracing of methodgit's layers from outside the package.

Tracer.install() replaces layer functions by wrappers that record one span
(name, start, end, parent, run id) per call, plus a few counts read off the
arguments and results.  Spans stay in memory until the run ends.  Nothing
under src/ is changed; uninstall() puts the original functions back.

A target that a later version of methodgit no longer has is skipped, and
the metrics drawn from it read 0.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter, defaultdict
from importlib import import_module

# import_module, because the package root rebinds some submodule names
# (extract, evaluate) to functions of the same name.
m_evaluate = import_module("methodgit.evaluate")
m_extract = import_module("methodgit.extract")
m_gitstore = import_module("methodgit.gitstore")
m_rewrite = import_module("methodgit.rewrite")
m_tracking = import_module("methodgit.tracking")

# Layer metrics, in report order.  Every `.s` metric is self time: the span
# durations minus the time covered by nested traced spans.
PER_LAYER = (
    ("gitstore.read.calls", "count"),
    ("gitstore.read.bytes", "bytes"),
    ("gitstore.read.s", "s"),
    ("gitstore.delta.applied", "count"),
    ("gitstore.delta.s", "s"),
    ("gitstore.delta.per_object", "count"),
    ("gitstore.parse_tree.s", "s"),
    ("gitstore.write.calls", "count"),
    ("gitstore.write.new_share", "share"),
    ("gitstore.write.bytes", "bytes"),
    ("gitstore.write.s", "s"),
    ("lexer.tokens", "count"),
    ("lexer.tokenize.s", "s"),
    ("extract.methods", "count"),
    ("extract.s", "s"),
    ("emit.render.calls", "count"),
    ("emit.render.bytes", "bytes"),
    ("emit.render.s", "s"),
    ("naming.s", "s"),
    ("rewrite.convert_blob.calls", "count"),
    ("rewrite.convert_blob.skipped", "count"),
    ("rewrite.blob_cache.hit_share", "share"),
    ("rewrite.tree_cache.hit_share", "share"),
    ("rewrite.topo.s", "s"),
    ("rewrite.self.s", "s"),
    ("tracking.flatten.calls", "count"),
    ("tracking.flatten.hit_share", "share"),
    ("tracking.flatten.s", "s"),
    ("tracking.fingerprint.calls", "count"),
    ("tracking.fingerprint.s", "s"),
    ("tracking.similarity.calls", "count"),
    ("tracking.similarity.s", "s"),
    ("tracking.candidates_per_disappearance", "count"),
    ("tracking.disappearance.hit_share", "share"),
    ("tracking.walk.s", "s"),
    ("evaluate.resolve.s", "s"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
)

# Spans whose self time is rewrite-layer work (tree walking, cache
# lookups, commit writing).
_REWRITE_SELF = ("rewrite_history", "convert_tree", "convert_java_blob", "convert_blob")


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        # name -> [calls, hits] of keyed lookups, and the keys seen this pass
        self.hits: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._seen: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def begin_run(self) -> None:
        """Start one traced pass; cache-hit bookkeeping restarts with it."""
        self.run_id += 1
        for seen in self._seen.values():
            seen.clear()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def _lookup(self, name: str):
        """A function that counts a lookup of key under name and tells
        whether it is a hit: the key was asked for before in this pass,
        which is what an unbounded cache would answer from memory."""
        stats = self.hits[name]
        seen = self._seen[name]

        def hit(key) -> bool:
            stats[0] += 1
            if key in seen:
                stats[1] += 1
                return True
            seen.add(key)
            return False

        return hit

    def _wrap(self, owner, attr: str, name: str, after=None, key=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self
        hit = self._lookup(name) if key is not None else None

        def wrapper(*args, **kwargs):
            # A cache hit costs less than a span would; it is counted only.
            if hit is not None and hit(key(*args)):
                return original(*args, **kwargs)
            result = tracer.span(name, original, *args, **kwargs)
            if after is not None:
                after(tracer.counts, args, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        w = self._wrap
        w(m_gitstore.ObjectStore, "read", "read",
          after=lambda n, a, r: n.update({"read.bytes": len(r[1])}))
        w(m_gitstore, "_apply_delta", "apply_delta")
        w(m_gitstore, "parse_tree", "parse_tree")
        repeated_id = self._lookup("write_object")

        def count_write(counts: Counter, args, oid: str) -> None:
            counts["write.bytes"] += len(args[2])
            repeated_id(oid)

        w(m_gitstore.RepoWriter, "write_object", "write_object", after=count_write)
        w(m_extract, "tokenize", "tokenize",
          after=lambda n, a, r: n.update({"tokens": len(r.tokens)}))
        w(m_rewrite, "extract", "extract",
          after=lambda n, a, r: n.update({"methods": len(r[0])}))
        w(m_rewrite, "render", "render",
          after=lambda n, a, r: n.update({"render.bytes": len(r)}))
        w(m_rewrite, "method_file_name", "method_file_name")
        w(m_rewrite, "convert_blob", "convert_blob",
          after=lambda n, a, r: n.update({"convert_blob.skipped": r is None}))
        w(m_rewrite, "_topo_order", "topo_order")
        converter = getattr(m_rewrite, "_TreeConverter", None)
        if converter is not None:
            w(converter, "convert_tree", "convert_tree", key=lambda s, oid: oid)
            w(converter, "_convert_java_blob", "convert_java_blob", key=lambda s, oid: oid)
        w(m_tracking, "fingerprint", "fingerprint")
        w(m_tracking, "similarity", "similarity")
        w(m_tracking, "_flatten", "flatten",
          key=lambda store, oid, caches: (id(caches), oid))
        w(m_tracking, "_disappearance", "disappearance",
          key=lambda store, commit, tree, ptree, blob, config, caches: (
              id(caches), commit, blob, config.detect_copies, config.metric))
        follow = getattr(m_tracking, "follow", None)
        w(m_tracking, "follow", "follow")
        # evaluate imported follow by name, so its binding is wrapped too.
        if follow is not None and getattr(m_evaluate, "follow", None) is follow:
            self._saved.append((m_evaluate, "follow", follow))
            m_evaluate.follow = m_tracking.follow

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [end - start for start, end in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[i] - self.starts[i]
        return out

    def metrics(self, overhead_share: float) -> dict[str, float]:
        """Per-layer metrics: counts and seconds per traced pass (per query
        on track), shares over all traced passes."""
        passes = max(self.run_id, 1)
        names = self.names
        busy: dict[str, float] = defaultdict(float)
        calls: Counter = Counter(names)
        for name, t in zip(names, self.self_times()):
            busy[name] += t
        n = self.counts
        h = self.hits

        def hit_share(name: str) -> float:
            lookups, hits = h[name]
            return _share(hits, lookups)

        delta_reads = len({
            p for i, p in enumerate(self.parents)
            if names[i] == "apply_delta" and p >= 0 and names[p] == "read"
        })
        misses = h["disappearance"][0] - h["disappearance"][1]
        writes, repeats = h["write_object"]
        first_follow: dict[int, float] = {}
        roots: dict[int, float] = {}
        for i, name in enumerate(names):
            if name == "follow":
                first_follow.setdefault(self.runs[i], self.starts[i])
            elif name == "evaluate":
                roots[self.runs[i]] = self.starts[i]
        resolve = sum(first_follow.get(run, start) - start for run, start in roots.items())
        values = {
            "gitstore.read.calls": calls["read"],
            "gitstore.read.bytes": n["read.bytes"],
            "gitstore.read.s": busy["read"],
            "gitstore.delta.applied": calls["apply_delta"],
            "gitstore.delta.s": busy["apply_delta"],
            "gitstore.parse_tree.s": busy["parse_tree"],
            "gitstore.write.calls": calls["write_object"],
            "gitstore.write.bytes": n["write.bytes"],
            "gitstore.write.s": busy["write_object"],
            "lexer.tokens": n["tokens"],
            "lexer.tokenize.s": busy["tokenize"],
            "extract.methods": n["methods"],
            "extract.s": busy["extract"],
            "emit.render.calls": calls["render"],
            "emit.render.bytes": n["render.bytes"],
            "emit.render.s": busy["render"],
            "naming.s": busy["method_file_name"],
            "rewrite.convert_blob.calls": calls["convert_blob"],
            "rewrite.convert_blob.skipped": n["convert_blob.skipped"],
            "rewrite.topo.s": busy["topo_order"],
            "rewrite.self.s": sum(busy[name] for name in _REWRITE_SELF),
            "tracking.flatten.calls": h["flatten"][0],
            "tracking.flatten.s": busy["flatten"],
            "tracking.fingerprint.calls": calls["fingerprint"],
            "tracking.fingerprint.s": busy["fingerprint"],
            "tracking.similarity.calls": calls["similarity"],
            "tracking.similarity.s": busy["similarity"],
            "tracking.walk.s": busy["follow"],
            "evaluate.resolve.s": resolve,
        }
        out = {name: value / passes for name, value in values.items()}
        out.update({
            "gitstore.delta.per_object": _share(calls["apply_delta"], delta_reads),
            "gitstore.write.new_share": _share(writes - repeats, writes),
            "rewrite.blob_cache.hit_share": hit_share("convert_java_blob"),
            "rewrite.tree_cache.hit_share": hit_share("convert_tree"),
            "tracking.flatten.hit_share": hit_share("flatten"),
            "tracking.candidates_per_disappearance": _share(calls["similarity"], misses),
            "tracking.disappearance.hit_share": hit_share("disappearance"),
            "trace.overhead_share": overhead_share,
            "trace.spans": len(names) / passes,
        })
        return out

    def write(self, path: str) -> None:
        """Write every span as TSV: name, start, end, parent index, run id."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            f.write("name\tstart\tend\tparent\trun\n")
            for i, name in enumerate(self.names):
                f.write(f"{name}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\t"
                        f"{self.parents[i]}\t{self.runs[i]}\n")
