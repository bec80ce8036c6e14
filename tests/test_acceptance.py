"""Acceptance gate: ten end-to-end criteria with fixed tolerances.

Each test computes its verdict, prints one

    [ACCEPTANCE] criterion N (name): PASS|FAIL

line directly to the terminal (bypassing pytest capture), and then asserts
the verdict so the suite fails loudly when a criterion regresses.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

import pytest

from methodgit import ObjectStore
from methodgit.evaluate import OracleEntry, evaluate
from methodgit.naming import NamePolicy, field_file_name, method_file_name, shorten
from methodgit.rewrite import rewrite_history
from methodgit.tracking import (
    FollowCaches,
    Metric,
    TrackerConfig,
    count_renames,
    follow,
)

from brute import _flatten as flatten_tree
from brute import brute_follow, fraction
from conftest import (
    ENGINEER_JAVA,
    FINER,
    FINER_NO_H1,
    FINER_NO_H2,
    GETTER_PATH_NEW,
    PERSON_JAVA,
    PLAIN,
    SETTER_PATH_NEW,
    build_linear_repo,
    convert,
    extract,
    render_method,
    sim,
    write_commit_graph,
)
from repogen import build_metrics_repo, generate_java_repo, generate_text_repo
from test_emit import RECONSTRUCT_CONFIG, reconstruct


@pytest.fixture
def verdict(request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def report(number: int, name: str, ok: bool) -> None:
        line = f"[ACCEPTANCE] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
        if capman is None:
            print(line, flush=True)
        else:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        assert ok, line

    return report


def ratio(source_a: str, source_b: str, name_a: str, name_b: str, config):
    score = sim(
        render_method(source_a, name_a, config),
        render_method(source_b, name_b, config),
        Metric.LINES,
    )
    return score.numerator, score.denominator


def test_criterion_1_rename_ratios(verdict):
    started = time.monotonic()
    getter = ratio(PERSON_JAVA, ENGINEER_JAVA, "getLength", "getHeight", FINER_NO_H2)
    setter = ratio(PERSON_JAVA, ENGINEER_JAVA, "setLength", "setHeight", FINER_NO_H2)
    ok = getter == (8, 10) and setter == (11, 15)
    ok = ok and time.monotonic() - started < 1.0
    verdict(1, "method rename similarity ratios", ok)


IF_NULL = """\
class A {
void m() { if (a == null) {
return;
} }
}
"""

WHILE_SUM = """\
class B {
static int n() { while (go) {
total++;
} }
}
"""


def test_criterion_2_single_token_ablation(verdict):
    started = time.monotonic()
    pair = (IF_NULL, WHILE_SUM, "m", "n")
    plain = ratio(*pair, PLAIN)
    no_h1 = ratio(*pair, FINER_NO_H1)
    tagged = ratio(*pair, FINER)
    ok = plain == (1, 3) and no_h1 == (5, 12) and tagged == (0, 12)
    ok = ok and time.monotonic() - started < 1.0
    verdict(2, "single-token ablation", ok)


SET_HEIGHT = """\
class Counter {
  public void setHeight() {
    height++;
  }
}
"""


def test_criterion_3_body_elision_ablation(verdict):
    started = time.monotonic()
    pair = (PERSON_JAVA, SET_HEIGHT, "getLength", "setHeight")
    without_h2 = ratio(*pair, FINER_NO_H2)
    with_h2 = ratio(*pair, FINER)
    ok = without_h2 == (5, 10) and with_h2 == (1, 6)
    ok = ok and time.monotonic() - started < 1.0
    verdict(3, "body elision ablation", ok)


def test_criterion_4_end_to_end_tracking(tmp_path, verdict):
    started = time.monotonic()
    src = str(tmp_path / "src.git")
    build_linear_repo(
        src,
        [
            {"Person.java": PERSON_JAVA.encode()},
            {"Engineer.java": ENGINEER_JAVA.encode()},
        ],
    )
    finer = str(tmp_path / "finer.git")
    plain = str(tmp_path / "plain.git")
    convert(src, finer, FINER)
    convert(src, plain, PLAIN)

    def renames(repo: str, path: str, threshold: int) -> int:
        # line-ratio metric: the scenario's 4/6, 7/11, and 1/3 scores are
        # matched-lines over max-lines
        cfg = TrackerConfig(threshold=threshold, metric=Metric.LINES)
        with ObjectStore(repo) as store:
            return count_renames(follow(store, path, cfg))

    ok = renames(finer, GETTER_PATH_NEW, 60) == 1
    ok = ok and renames(finer, SETTER_PATH_NEW, 60) == 1
    ok = ok and renames(plain, GETTER_PATH_NEW, 60) == 0
    ok = ok and renames(plain, SETTER_PATH_NEW, 60) == 0
    ok = ok and renames(plain, GETTER_PATH_NEW, 30) >= 1
    ok = ok and time.monotonic() - started < 5.0
    verdict(4, "end-to-end rename tracking", ok)


def snapshot_store(root: str) -> dict[str, bytes]:
    out: dict[str, bytes] = {}
    for base, _dirs, names in os.walk(root):
        for name in names:
            full = os.path.join(base, name)
            with open(full, "rb") as handle:
                out[os.path.relpath(full, root)] = handle.read()
    return out


def packed_object_count(root: str) -> int:
    with ObjectStore(root) as store:
        return sum(pack.count for pack in store._load_packs())


def test_criterion_5_deterministic_conversion(tmp_path, verdict):
    started = time.monotonic()
    src = str(tmp_path / "src.git")
    generate_java_repo(src, n_commits=100, n_files=12, seed=5)
    first = str(tmp_path / "first.git")
    second = str(tmp_path / "second.git")
    stats = rewrite_history(src, first)
    rewrite_history(src, second)
    snap_a, snap_b = snapshot_store(first), snapshot_store(second)
    ok = stats.commits_processed == 100
    ok = ok and packed_object_count(first) > 100 and snap_a == snap_b
    ok = ok and time.monotonic() - started < 60.0
    verdict(5, "deterministic conversion", ok)


def test_criterion_6_brute_force_equivalence(tmp_path, verdict):
    # Each history is walked three times: without a commit-graph, with one
    # of every commit, and with one of an ancestor-closed prefix, where the
    # walk reads the newer commits from their objects and the older ones
    # from the graph.
    started = time.monotonic()
    mismatches = 0
    checked = 0
    for seed in range(20):
        repo = str(tmp_path / f"r{seed}.git")
        n_commits = 8 + seed % 13
        generate_text_repo(repo, n_commits=n_commits, max_files=30, seed=seed)
        with ObjectStore(repo) as store:
            tip = store.peel(store.resolve_ref("refs/heads/master"), lambda _: False)[0]
            head_paths = sorted(flatten_tree(store, store.read_commit(tip).tree))
            metric = Metric.GIT_BYTES if seed % 2 == 0 else Metric.LINES
            configs = [
                TrackerConfig(threshold=threshold, detect_copies=copies, metric=metric)
                for threshold in (20, 50, 80)
                for copies in (False, True)
            ]
            wants = {
                (path, cfg): brute_follow(
                    store, path, tip, cfg.threshold, cfg.detect_copies, metric.value
                )
                for path in head_paths
                for cfg in configs
            }
        for graph_commits in (0, None, n_commits // 2):
            if graph_commits != 0:
                write_commit_graph(repo, graph_commits)
            with ObjectStore(repo) as store:
                assert (store.commit_graph() is not None) == (graph_commits != 0)
                caches = FollowCaches()
                for (path, cfg), want in wants.items():
                    steps = follow(store, path, cfg, caches=caches)
                    got = [
                        (
                            s.commit_id,
                            s.kind.value,
                            s.old_path,
                            s.new_path,
                            fraction(s.score),
                        )
                        for s in steps
                    ]
                    checked += 1
                    if got != want:
                        mismatches += 1
    ok = mismatches == 0 and checked >= 1500
    ok = ok and time.monotonic() - started < 120.0
    verdict(6, "brute-force tracking equivalence", ok)


CORPUS_TEMPLATE = """\
package corpus.pIDX;

import java.util.List;

/** Sample IDX utility. */
class CLASSNAME {
  private int count = IDX;
  private String label = "sIDX";
  static final int[] TABLE = { 1, 2, IDX };

  CLASSNAME(int seed) {
    this.count = seed + IDX;
  }

  /** Folds the array twice and clamps the total. */
  int sum(int[] xs) {
    int total = 0;
    outer:
    for (int i = 0; i < xs.length; i++) {
      for (int j = 0; j < i; j++) {
        if (xs[j] == xs[i]) {
          break outer;
        }
      }
      total += xs[i];
    }
    for (int x : xs) {
      total += x;
    }
    while (total > IDX) {
      total--;
    }
    do {
      total++;
    } while (total < 0);
    return total;
  }

  String describe(int v) {
    if (v == 0) {
      return "zero";
    } else if (v < 0) {
      return "neg";
    } else {
      return "pos" + v;
    }
  }

  int pick(int v) {
    switch (v) {
      case 0:
        return IDX;
      case 1:
        break;
      default:
        v++;
    }
    int r = switch (v) {
      case 2 -> 20;
      case 3 -> {
        yield v * 2;
      }
      default -> v;
    };
    return r;
  }

  void risky(List<String> items) {
    try (java.io.StringReader reader = new java.io.StringReader(label)) {
      count = reader.read();
    } catch (java.io.IOException e) {
      throw new IllegalStateException(e);
    } finally {
      count = 0;
    }
    assert count >= 0 : "negative count";
    synchronized (this) {
      count += items.size();
    }
  }

  Runnable task(int base) {
    Runnable inner = new Runnable() {
      public void run() {
        count = base;
      }
    };
    java.util.function.IntSupplier one = () -> base + 1;
    java.util.function.IntBinaryOperator op = (a, b) -> a + b;
    return inner;
  }

  static int total(String fmt, int... vals) {
    return vals.length + fmt.length();
  }

  static <T extends Comparable<T>> T max(T a, T b) {
    return a.compareTo(b) >= 0 ? a : b;
  }

  double casty(Object o) {
    double d = (double) ((Integer) o).intValue();
    return (d) * (d + 1);
  }

  EXTRA
}
"""

EXTRA_MEMBERS = (
    "enum Mode { ON, OFF; int flag() { return ordinal(); } }",
    "record Pair(int a, int b) {\n"
    "    Pair {\n"
    "      if (a > b) {\n"
    "        throw new IllegalArgumentException(\"bad\");\n"
    "      }\n"
    "    }\n"
    "    int gap() { return b - a; }\n"
    "  }",
    "interface Step { int apply(int v); default int twice(int v) "
    "{ return apply(apply(v)); } }",
    "abstract static class Base { abstract int weight(); int doubled() "
    "{ return weight() * 2; } }",
    "static class Holder { static int slot; static { slot = 9; } int read() "
    "{ return slot; } }",
)


def corpus_source(index: int) -> str:
    return (
        CORPUS_TEMPLATE.replace("CLASSNAME", f"Sample{index}")
        .replace("IDX", str(index))
        .replace("EXTRA", EXTRA_MEMBERS[index % len(EXTRA_MEMBERS)])
    )


def test_criterion_7_token_stream_reconstruction(verdict):
    from methodgit.emit import render

    files = 0
    methods_checked = 0
    mismatches = 0
    for index in range(50):
        source = corpus_source(index)
        methods, _fields = extract(source)
        files += 1
        for decl in methods:
            rendered = render(decl, RECONSTRUCT_CONFIG)
            if reconstruct(rendered, decl) != decl.tokens:
                mismatches += 1
            methods_checked += 1
    ok = files == 50 and methods_checked >= 450 and mismatches == 0
    verdict(7, "token stream reconstruction", ok)


def test_criterion_8_file_naming(verdict):
    methods, fields = extract(PERSON_JAVA)
    setter = next(m for m in methods if m.name == "setLength")
    ok = method_file_name(setter) == "Person#public_void_setLength(int).mjava"
    ok = ok and field_file_name(fields[0]) == "Person#private_int_length.fjava"

    policy = NamePolicy(max_file_name_bytes=64)
    for i in range(40):
        base = (
            f"Klass{i}#public_java.util.List<String>_"
            + "veryLongName" * (i + 3)
            + "(int,java.lang.String)"
        )
        name = shorten(base, policy, ".mjava")
        ok = ok and name != base + ".mjava"
        ok = ok and len(name.encode()) <= 64
        ok = ok and name.endswith(".mjava")
        stem = name[: -len(".mjava")]
        ok = ok and stem[-9] == "_"
        ok = ok and all(c in "0123456789abcdef" for c in stem[-8:])
    verdict(8, "file naming", ok)


def test_criterion_9_metrics_arithmetic(tmp_path, verdict):
    repo = str(tmp_path / "metrics.git")
    expected = build_metrics_repo(repo)
    store = ObjectStore(repo)
    oracle = [OracleEntry(p, n) for p, n in sorted(expected.items())]
    metrics, skipped = evaluate(store, oracle, thresholds=(50,))
    row = metrics[0]
    ok = not skipped
    ok = ok and (row.precision, row.recall, row.f_measure) == (
        Fraction(1),
        Fraction(4, 5),
        Fraction(8, 9),
    )

    tp = fp = fn = 0
    cfg = TrackerConfig(threshold=50, detect_copies=True)
    for entry in oracle:
        detected = count_renames(follow(store, entry.method_path, cfg))
        tp += min(detected, entry.expected_rename_count)
        fp += max(detected - entry.expected_rename_count, 0)
        fn += max(entry.expected_rename_count - detected, 0)
    ok = ok and (row.true_positives, row.false_positives, row.false_negatives) == (
        tp,
        fp,
        fn,
    )
    ok = ok and tp + fn == sum(e.expected_rename_count for e in oracle)
    store.close()
    verdict(9, "evaluation metrics arithmetic", ok)


def test_criterion_10_conversion_throughput(tmp_path, verdict):
    src = str(tmp_path / "big.git")
    generate_java_repo(src, n_commits=1000, n_files=200, seed=10)
    started = time.monotonic()
    stats = rewrite_history(src, str(tmp_path / "big-finer.git"))
    elapsed = time.monotonic() - started
    ok = stats.commits_processed == 1000 and elapsed <= 60.0
    verdict(10, "conversion throughput", ok)
