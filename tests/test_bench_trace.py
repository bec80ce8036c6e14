"""Smoke test of the benchmark's traced path.

bench/spans.py wraps layer functions by module and name, and reads counts
off their arguments and results.  A refactor that renames one of them or
changes what it returns makes a traced bench run (`--trace 1`) fail or
report zeros; this test shows it in tier-1.  It only reads bench/.
"""

from __future__ import annotations

import importlib.util
import os

from methodgit import ObjectStore, TrackerConfig, follow, rewrite_history

from conftest import GETTER_PATH_NEW

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The functions spans.py wraps, as (module, owner within it or None, name).
# Its _wrap skips a target that is gone, so this list pins them.
WRAP_TARGETS = (
    ("gitstore", "ObjectStore", "read"),
    ("gitstore", None, "_apply_delta"),
    ("gitstore", None, "parse_tree"),
    ("gitstore", "RepoWriter", "write_object"),
    ("extract", None, "tokenize"),
    ("rewrite", None, "extract"),
    ("rewrite", None, "render"),
    ("rewrite", None, "method_file_name"),
    ("rewrite", None, "convert_blob"),
    ("rewrite", None, "_topo_order"),
    ("rewrite", "_TreeConverter", "convert_tree"),
    ("rewrite", "_TreeConverter", "_convert_java_blob"),
    ("tracking", None, "fingerprint"),
    ("tracking", None, "similarity"),
    ("tracking", None, "_flatten"),
    ("tracking", None, "_disappearance"),
    ("tracking", None, "follow"),
)


def test_every_wrap_target_is_wrapped():
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = {(id(owner), attr) for owner, attr, _ in tracer._saved}
        for module, owner, name in WRAP_TARGETS:
            target = getattr(spans, f"m_{module}")
            if owner is not None:
                target = getattr(target, owner)
            assert (id(target), name) in wrapped, (module, owner, name)
    finally:
        tracer.uninstall()


def test_traced_conversion_and_query_count_every_layer(person_repo, tmp_path):
    tracer = load_spans().Tracer()
    tracer.begin_run()
    tracer.install()
    try:
        dst = str(tmp_path / "dst.git")
        rewrite_history(person_repo, dst)
        with ObjectStore(dst) as store:
            steps = follow(store, GETTER_PATH_NEW, TrackerConfig(threshold=60))
    finally:
        tracer.uninstall()
    assert [s.kind.value for s in steps] == ["RENAME", "ADD"]
    metrics = tracer.metrics(0.0)
    assert metrics["lexer.tokens"] > 0
    assert metrics["extract.methods"] > 0
    assert metrics["tracking.similarity.calls"] > 0
