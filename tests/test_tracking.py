"""Tracking unit tests: fingerprints, similarity, configuration, and the
backward walk over hand-built histories."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import tempfile
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from methodgit import (
    Metric,
    ObjectStore,
    RepoWriter,
    TrackerConfig,
    count_renames,
    fingerprint,
    follow,
    similarity,
)
from methodgit.commitgraph import path_keys
from methodgit.errors import RepositoryError, TrackError
from methodgit.gitstore import FILE_MODES
from methodgit.rewrite import rewrite_history
from methodgit.tracking import (
    AmbiguousStart,
    FollowCaches,
    PathNotFound,
    SimilarityScore,
    StepKind,
    _candidates,
    _disappearance,
    _flatten,
    _lookup,
    steps_to_json,
    steps_to_tsv,
)

from brute import _flatten as brute_flatten
from brute import brute_follow, brute_similarity, fraction, split_fingerprint
from conftest import (
    AUTHOR,
    build_linear_repo,
    run_python,
    sim,
    write_commit_graph,
    write_tree_dict,
)
from repogen import generate_java_repo, generate_text_repo


def test_fingerprint_counts_lines_and_bytes():
    fp = fingerprint(b"one\ntwo\n")
    assert fp.line_count == 2
    assert fp.total_bytes == 8
    assert sum(fp.lines.values()) == 2
    assert sum(fp.chunks.values()) == 2


def test_fingerprint_last_line_without_newline():
    fp = fingerprint(b"one\ntwo")
    assert fp.line_count == 2
    assert fp.total_bytes == 7


def test_fingerprint_empty():
    fp = fingerprint(b"")
    assert fp.line_count == 0
    assert fp.total_bytes == 0
    assert not fp.chunks


def test_long_lines_split_into_64_byte_chunks():
    line = b"x" * 150 + b"\n"
    fp = fingerprint(line)
    assert fp.line_count == 1
    sizes = sorted(len(piece) for piece, n in fp.chunks.items() for _ in range(n))
    assert sizes == [23, 64, 64]


# Letters, a space and every byte that str.splitlines takes as a line end;
# bytes.splitlines takes only LF and CR.
_LINE_ENDS = st.lists(st.sampled_from(list(b"ab \n\r\x0b\x0c\x1c\x85"))).map(bytes)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_LINE_ENDS, st.lists(_LINE_ENDS, max_size=4).map((b"a" * 60).join)))
@example(b"")
@example(b"a" * 64)
@example(b"a" * 65)
@example(b"a" * 63 + b"\n" + b"b" * 64 + b"\n" + b"c" * 65 + b"\r\n")
@example(b"\r" * 70 + b"\n")
def test_fingerprint_equals_the_split_reference(content):
    assert fingerprint(content) == split_fingerprint(content)


def test_similarity_lines_identical_prefix():
    a = b"alpha\nbeta\ngamma\n"
    b = b"alpha\nbeta\ndelta\nepsilon\n"
    score = sim(a, b, Metric.LINES)
    assert (score.numerator, score.denominator) == (2, 4)


def test_similarity_lines_counts_duplicates_as_multiset():
    a = b"dup\ndup\nuniq\n"
    b = b"dup\ndup\ndup\n"
    score = sim(a, b, Metric.LINES)
    assert (score.numerator, score.denominator) == (2, 3)


def test_similarity_git_bytes_weighs_line_length():
    a = b"aaaaaaaaaa\nb\n"
    b = b"aaaaaaaaaa\nc\n"
    score = sim(a, b, Metric.GIT_BYTES)
    assert (score.numerator, score.denominator) == (11, 13)


def test_similarity_both_empty_is_one():
    for metric in Metric:
        score = sim(b"", b"", metric)
        assert fraction(score) == 1


def test_similarity_one_empty_is_zero():
    score = sim(b"", b"data\n", Metric.GIT_BYTES)
    assert score.numerator == 0
    assert score.denominator == 5


def test_score_string_is_unreduced():
    assert str(SimilarityScore(8, 10)) == "8/10"
    assert fraction(SimilarityScore(8, 10)) == Fraction(4, 5)


@given(st.binary(max_size=300), st.binary(max_size=300))
def test_similarity_is_symmetric(a, b):
    for metric in Metric:
        sa = sim(a, b, metric)
        sb = sim(b, a, metric)
        assert (sa.numerator, sa.denominator) == (sb.numerator, sb.denominator)


@given(
    st.lists(
        st.text(alphabet="abcd", min_size=3, max_size=3), min_size=0, max_size=20
    ),
    st.lists(
        st.text(alphabet="abcd", min_size=3, max_size=3), min_size=0, max_size=20
    ),
)
def test_metrics_agree_on_equal_length_lines(lines_a, lines_b):
    a = "".join(line + "\n" for line in lines_a).encode()
    b = "".join(line + "\n" for line in lines_b).encode()
    got_bytes = fraction(sim(a, b, Metric.GIT_BYTES))
    got_lines = fraction(sim(a, b, Metric.LINES))
    assert got_bytes == got_lines


def test_tracker_config_threshold_bounds():
    TrackerConfig(threshold=1)
    TrackerConfig(threshold=100)
    with pytest.raises(TrackError):
        TrackerConfig(threshold=0)
    with pytest.raises(TrackError):
        TrackerConfig(threshold=101)


def track(repo: str, path: str, **kwargs):
    with ObjectStore(repo) as store:
        return follow(store, path, TrackerConfig(**kwargs))


def test_follow_add_only(tmp_path):
    repo = str(tmp_path / "r.git")
    ids = build_linear_repo(repo, [{"a.txt": b"one\ntwo\n"}])
    steps = track(repo, "a.txt", threshold=60)
    assert [s.kind for s in steps] == [StepKind.ADD]
    assert steps[0].commit_id == ids[0]
    assert steps[0].new_path == "a.txt"
    assert steps[0].old_path is None


def test_follow_modify_chain(tmp_path):
    repo = str(tmp_path / "r.git")
    ids = build_linear_repo(
        repo,
        [
            {"a.txt": b"one\n"},
            {"a.txt": b"one\ntwo\n"},
            {"a.txt": b"one\ntwo\n"},
            {"a.txt": b"one\ntwo\nthree\n"},
        ],
    )
    steps = track(repo, "a.txt", threshold=60)
    assert [s.kind for s in steps] == [
        StepKind.MODIFY,
        StepKind.MODIFY,
        StepKind.ADD,
    ]
    assert steps[0].commit_id == ids[3]
    assert steps[1].commit_id == ids[1]
    assert steps[2].commit_id == ids[0]


def test_follow_rename_and_score(tmp_path):
    repo = str(tmp_path / "r.git")
    ids = build_linear_repo(
        repo,
        [
            {"old.txt": b"one\ntwo\nthree\nfour\n"},
            {"new.txt": b"one\ntwo\nthree\nfive\n"},
        ],
    )
    steps = track(repo, "new.txt", threshold=60, metric=Metric.LINES)
    assert [s.kind for s in steps] == [StepKind.RENAME, StepKind.ADD]
    rename = steps[0]
    assert rename.commit_id == ids[1]
    assert rename.old_path == "old.txt"
    assert rename.new_path == "new.txt"
    assert (rename.score.numerator, rename.score.denominator) == (3, 4)
    assert steps[1].new_path == "old.txt"


def test_follow_threshold_boundary_is_inclusive(tmp_path):
    repo = str(tmp_path / "r.git")
    build_linear_repo(
        repo,
        [
            {"old.txt": b"one\ntwo\nthree\nfour\n"},
            {"new.txt": b"one\ntwo\nthree\nfive\n"},
        ],
    )
    at = track(repo, "new.txt", threshold=75, metric=Metric.LINES)
    above = track(repo, "new.txt", threshold=76, metric=Metric.LINES)
    assert count_renames(at) == 1
    assert count_renames(above) == 0


def test_follow_rename_tie_breaks_lexicographically(tmp_path):
    repo = str(tmp_path / "r.git")
    content = b"shared\nlines\nhere\n"
    ids = build_linear_repo(
        repo,
        [
            {"b.txt": content, "a.txt": content},
            {"z.txt": content},
        ],
    )
    steps = track(repo, "z.txt", threshold=50)
    assert steps[0].kind is StepKind.RENAME
    assert steps[0].old_path == "a.txt"
    assert steps[0].commit_id == ids[1]


def test_follow_copy_detection(tmp_path):
    repo = str(tmp_path / "r.git")
    content = b"alpha\nbeta\ngamma\n"
    ids = build_linear_repo(
        repo,
        [
            {"orig.txt": content},
            {"orig.txt": content, "copy.txt": content},
        ],
    )
    no_copies = track(repo, "copy.txt", threshold=50)
    assert [s.kind for s in no_copies] == [StepKind.ADD]
    with_copies = track(repo, "copy.txt", threshold=50, detect_copies=True)
    assert [s.kind for s in with_copies] == [StepKind.COPY, StepKind.ADD]
    copy = with_copies[0]
    assert copy.old_path == "orig.txt"
    assert copy.commit_id == ids[1]
    assert fraction(copy.score) == 1


def test_follow_deleted_file_beats_retained_for_rename(tmp_path):
    repo = str(tmp_path / "r.git")
    build_linear_repo(
        repo,
        [
            {"gone.txt": b"p\nq\nr\n", "stays.txt": b"p\nq\nr\n"},
            {"stays.txt": b"p\nq\nr\n", "new.txt": b"p\nq\nr\n"},
        ],
    )
    steps = track(repo, "new.txt", threshold=50)
    # Without copy detection only the deleted path is a candidate.
    assert steps[0].kind is StepKind.RENAME
    assert steps[0].old_path == "gone.txt"


def test_follow_prefers_first_parent(tmp_path):
    repo = str(tmp_path / "r.git")
    writer = RepoWriter(repo)
    writer.init_bare()

    def commit(files, parents, n):
        stamp = AUTHOR % (1700000000 + n * 60)
        return writer.write_commit(
            tree=write_tree_dict(writer, files),
            parents=parents,
            author=stamp,
            committer=stamp,
            message=b"c%d\n" % n,
        )

    base = commit({"f.txt": b"base\n"}, [], 0)
    left = commit({"f.txt": b"left\n"}, [base], 1)
    right = commit({"f.txt": b"right\n"}, [base], 2)
    merge = commit({"f.txt": b"left\n"}, [left, right], 3)
    writer.close()
    writer.write_refs({"refs/heads/master": merge})
    writer.set_head("refs/heads/master")

    steps = track(repo, "f.txt", threshold=60)
    commits = [s.commit_id for s in steps]
    assert right not in commits
    assert commits == [left, base]
    assert [s.kind for s in steps] == [StepKind.MODIFY, StepKind.ADD]


def test_follow_falls_back_to_second_parent(tmp_path):
    repo = str(tmp_path / "r.git")
    writer = RepoWriter(repo)
    writer.init_bare()

    def commit(files, parents, n):
        stamp = AUTHOR % (1700000000 + n * 60)
        return writer.write_commit(
            tree=write_tree_dict(writer, files),
            parents=parents,
            author=stamp,
            committer=stamp,
            message=b"c%d\n" % n,
        )

    base = commit({"keep.txt": b"k\n"}, [], 0)
    left = commit({"keep.txt": b"k\n"}, [base], 1)
    right = commit({"keep.txt": b"k\n", "only.txt": b"o\n"}, [base], 2)
    merge = commit({"keep.txt": b"k\n", "only.txt": b"o\n"}, [left, right], 3)
    writer.close()
    writer.write_refs({"refs/heads/master": merge})
    writer.set_head("refs/heads/master")

    steps = track(repo, "only.txt", threshold=60)
    assert [s.kind for s in steps] == [StepKind.ADD]
    assert steps[0].commit_id == right


def test_follow_rename_chain_across_three_names(tmp_path):
    repo = str(tmp_path / "r.git")
    content = b"w\nx\ny\nz\n"
    build_linear_repo(
        repo,
        [
            {"first.txt": content},
            {"second.txt": content},
            {"third.txt": content},
        ],
    )
    steps = track(repo, "third.txt", threshold=60)
    assert [s.kind for s in steps] == [
        StepKind.RENAME,
        StepKind.RENAME,
        StepKind.ADD,
    ]
    assert [s.old_path for s in steps] == ["second.txt", "first.txt", None]
    assert count_renames(steps) == 2


def test_path_not_found(tmp_path):
    repo = str(tmp_path / "r.git")
    build_linear_repo(repo, [{"a.txt": b"1\n"}])
    with ObjectStore(repo) as store:
        with pytest.raises(PathNotFound):
            follow(store, "missing.txt", TrackerConfig())


def test_ambiguous_start_needs_ref(tmp_path):
    repo = str(tmp_path / "r.git")
    writer = RepoWriter(repo)
    writer.init_bare()

    def commit(files, parents, n):
        stamp = AUTHOR % (1700000000 + n * 60)
        return writer.write_commit(
            tree=write_tree_dict(writer, files),
            parents=parents,
            author=stamp,
            committer=stamp,
            message=b"c%d\n" % n,
        )

    base = commit({"f.txt": b"0\n"}, [], 0)
    one = commit({"f.txt": b"1\n"}, [base], 1)
    two = commit({"f.txt": b"2\n"}, [base], 2)
    writer.close()
    writer.write_refs({"refs/heads/one": one, "refs/heads/two": two})
    writer.set_head("refs/heads/one")

    with ObjectStore(repo) as store:
        with pytest.raises(AmbiguousStart):
            follow(store, "f.txt", TrackerConfig())
        steps = follow(store, "f.txt", TrackerConfig(), ref="two")
        assert steps[0].commit_id == two
        with pytest.raises(TrackError):
            follow(store, "f.txt", TrackerConfig(), ref="refs/heads/absent")


def test_shared_tip_is_not_ambiguous(tmp_path):
    repo = str(tmp_path / "r.git")
    ids = build_linear_repo(repo, [{"f.txt": b"0\n"}])
    writer_refs = {
        "refs/heads/master": ids[0],
        "refs/heads/alias": ids[0],
    }
    with ObjectStore(repo) as store:
        # Re-point refs so two branch names share one tip commit.
        with open(os.path.join(repo, "packed-refs"), "w") as f:
            f.write("# pack-refs with: peeled fully-peeled sorted \n")
            for name in sorted(writer_refs):
                f.write(f"{writer_refs[name]} {name}\n")
        steps = follow(store, "f.txt", TrackerConfig())
        assert [s.kind for s in steps] == [StepKind.ADD]


def test_caches_are_shared_between_follows(tmp_path):
    repo = str(tmp_path / "r.git")
    build_linear_repo(
        repo,
        [
            {"a.txt": b"1\n2\n3\n", "b.txt": b"x\ny\nz\n"},
            {"a2.txt": b"1\n2\n3\n", "b.txt": b"x\ny\nz\n"},
        ],
    )
    with ObjectStore(repo) as store:
        caches = FollowCaches()
        first = follow(store, "a2.txt", TrackerConfig(threshold=50), caches=caches)
        assert caches.trees
        second = follow(store, "a2.txt", TrackerConfig(threshold=50), caches=caches)
        assert [s.kind for s in first] == [s.kind for s in second]


def test_branch_tips_are_read_once_per_caches(tmp_path, monkeypatch):
    repo = str(tmp_path / "r.git")
    build_linear_repo(repo, [{"a.txt": b"1\n", "b.txt": b"2\n"}])
    scans = []
    refs = ObjectStore.refs

    def counting(store):
        scans.append(1)
        return refs(store)

    monkeypatch.setattr(ObjectStore, "refs", counting)
    # The branch tips, or a named ref, are scanned once per caches.
    for ref in (None, "master"):
        scans.clear()
        with ObjectStore(repo) as store:
            caches = FollowCaches()
            for path in ("a.txt", "b.txt", "a.txt"):
                follow(store, path, TrackerConfig(), ref=ref, caches=caches)
            with pytest.raises(PathNotFound):
                follow(store, "c.txt", TrackerConfig(), ref=ref, caches=caches)
            assert len(scans) == 1
            assert list(caches.starts) == [ref]
            follow(store, "a.txt", TrackerConfig(), ref=ref, caches=FollowCaches())
            assert len(scans) == 2


def test_a_failed_peel_caches_no_branch_tips(tmp_path):
    repo = str(tmp_path / "r.git")
    ids = build_linear_repo(repo, [{"a.txt": b"1\n"}])
    with ObjectStore(repo) as store:
        tree = store.read_commit(ids[0]).tree
    broken = os.path.join(repo, "refs", "heads", "broken")
    # Neither the branch tips nor a ref whose peel fails are memoised.
    for ref in (None, "broken"):
        with open(broken, "w") as f:
            f.write(tree + "\n")
        with ObjectStore(repo) as store:
            caches = FollowCaches()
            with pytest.raises(RepositoryError, match="cannot peel"):
                follow(store, "a.txt", TrackerConfig(), ref=ref, caches=caches)
            assert ref not in caches.starts
            with open(broken, "w") as f:
                f.write(ids[0] + "\n")
            steps = follow(store, "a.txt", TrackerConfig(), ref=ref, caches=caches)
            assert [s.kind for s in steps] == [StepKind.ADD]


def test_name_maps_share_equal_entries_from_the_second_follow(tmp_path):
    repo = str(tmp_path / "r.git")
    build_linear_repo(
        repo,
        [{"a.txt": b"a%d\n" % i, "sub/b.txt": b"b%d\n" % i, "sub/c.txt": b"c\n"}
         for i in range(4)],
    )
    with ObjectStore(repo) as store:
        caches = FollowCaches()
        follow(store, "a.txt", TrackerConfig(), caches=caches)
        first = set(caches.trees)
        follow(store, "sub/b.txt", TrackerConfig(), caches=caches)
        # The sub trees, read by the second follow, differ only in b.txt.
        later = [entries for oid, entries in caches.trees.items() if oid not in first]
        assert len(later) == 4
        shared = 0
        for one, other in zip(later, later[1:]):
            for name, value in one.items():
                other_name = next(n for n in other if n == name)
                assert other_name is name
                if other[name] == value:
                    assert other[name] is value
                    shared += 1
        assert shared == 3


def test_a_single_follow_shares_only_paths(tmp_path):
    repo = str(tmp_path / "r.git")
    build_linear_repo(
        repo,
        [
            {"a.txt": b"1\n2\n3\n", "d/b.txt": b"x\ny\nz\n"},
            {"a2.txt": b"1\n2\n3\n", "d/b.txt": b"x\ny\nz\n"},
        ],
    )
    with ObjectStore(repo) as store:
        caches = FollowCaches()
        steps = follow(store, "a2.txt", TrackerConfig(threshold=50), caches=caches)
        assert [s.kind for s in steps] == [StepKind.RENAME, StepKind.ADD]
        # A cold query's name maps are cached as read; only the paths of
        # the -C index are shared.
        assert caches.follows == 1
        assert caches.entries == {}
        assert set(caches.paths) == {"a.txt", "d/b.txt"}


_BATCH = """
import sys
from methodgit import ObjectStore, TrackerConfig, follow
from methodgit.tracking import FollowCaches
with ObjectStore(sys.argv[1]) as store:
    caches = FollowCaches()
    follow(store, "a2.txt", TrackerConfig(threshold=50), ref=sys.argv[2], caches=caches)
    follow(store, "b.txt", TrackerConfig(threshold=50), caches=caches)
    print(sorted(caches.paths), len(caches.entries))
"""


def test_a_batch_compares_no_bytes_with_str(tmp_path):
    repo = str(tmp_path / "r.git")
    ids = build_linear_repo(
        repo,
        [
            {"a.txt": b"1\n2\n3\n", "b.txt": b"x\n"},
            {"a2.txt": b"1\n2\n3\n", "b.txt": b"x\n"},
            {"a2.txt": b"1\n2\n3\n4\n", "b.txt": b"y\n"},
        ],
    )
    # The first follow shares the path "b.txt"; the second reads the tip's
    # tree for the first time and shares its raw name b"b.txt", which
    # hashes alike.  Under -bb comparing the two would raise BytesWarning.
    result = run_python("-bb", "-c", _BATCH, repo, ids[1])
    assert result.returncode == 0, result.stderr
    paths, shared = result.stdout.rsplit(" ", 1)
    assert paths == "['a.txt', 'b.txt']"
    assert int(shared) > 0


@pytest.mark.parametrize(
    "copies, metric",
    [
        pytest.param(False, Metric.GIT_BYTES, id="False"),
        pytest.param(True, Metric.GIT_BYTES, id="True"),
        pytest.param(False, Metric.LINES, id="False-lines"),
        pytest.param(True, Metric.LINES, id="True-lines"),
    ],
)
def test_reused_caches_give_the_steps_of_fresh_ones(tmp_path, copies, metric):
    src, dst = str(tmp_path / "src.git"), str(tmp_path / "dst.git")
    generate_java_repo(src, n_commits=30, n_files=6, seed=5)
    rewrite_history(src, dst)
    config = TrackerConfig(threshold=50, detect_copies=copies, metric=metric)
    with ObjectStore(dst) as store:
        tip = store.resolve_ref("HEAD")
        paths = sorted(_flatten(store, store.read_commit(tip).tree, FollowCaches()))
        shared = FollowCaches()
        for path in paths:
            reused = follow(store, path, config, caches=shared)
            assert reused == follow(store, path, config, caches=FollowCaches()), path
        assert len(shared.keys) > len(paths)


# sha256 of the JSON of [[path, steps_to_json(steps)], ...] over every HEAD
# method path of generate_java_repo(n_commits=60, n_files=12, seed=4),
# converted under the default config and followed at -M 50 -C 50.
TRACKING_PINS = {
    Metric.GIT_BYTES: "552333d30d469a49b42c7029d58dfe87fa22cf13ee817b4dcaf3dd7b19cf8ca4",
    Metric.LINES: "b9d14edd5153d1c4eae891aa78fb5ae74990396d886bd71b0ba66458766ad04e",
}


@pytest.mark.parametrize("metric", list(Metric))
def test_tracking_results_are_pinned(tmp_path, metric):
    src, dst = str(tmp_path / "src.git"), str(tmp_path / "dst.git")
    generate_java_repo(src, n_commits=60, n_files=12, seed=4)
    rewrite_history(src, dst)
    config = TrackerConfig(threshold=50, detect_copies=True, metric=metric)
    with ObjectStore(dst) as store:
        tip = store.resolve_ref("HEAD")
        paths = sorted(p for p in _flatten(store, store.read_commit(tip).tree, FollowCaches())
                       if p.endswith(".mjava"))
        caches = FollowCaches()
        walks = [[p, steps_to_json(follow(store, p, config, caches=caches))] for p in paths]
    assert len(walks) == 35
    digest = hashlib.sha256(json.dumps(walks).encode()).hexdigest()
    assert digest == TRACKING_PINS[metric]


def test_disappearance_cache_is_threshold_independent(tmp_path):
    repo = str(tmp_path / "r.git")
    build_linear_repo(
        repo,
        [
            {"old.txt": b"a\nb\nc\nd\n"},
            {"new.txt": b"a\nb\nx\ny\n"},
        ],
    )
    with ObjectStore(repo) as store:
        caches = FollowCaches()
        low = follow(store, "new.txt", TrackerConfig(threshold=40), caches=caches)
        high = follow(store, "new.txt", TrackerConfig(threshold=80), caches=caches)
        assert count_renames(low) == 1
        assert count_renames(high) == 0


# A tree is {name: subtree or (mode, blob content)}; a gitlink's content is
# None, since it names a commit of another repository.
_LEAVES = st.one_of(
    st.tuples(st.sampled_from([b"100644", b"100755", b"120000"]), st.binary(max_size=8)),
    st.just((b"160000", None)),
)
_NAMES = st.sampled_from(["a", "b", "f.txt", "x"])
_TREES = st.recursive(
    st.dictionaries(_NAMES, _LEAVES, max_size=4),
    lambda trees: st.dictionaries(_NAMES, st.one_of(_LEAVES, trees), max_size=4),
    max_leaves=12,
)


def _write_nested(writer: RepoWriter, tree: dict) -> str:
    entries = {}
    for name, value in tree.items():
        if isinstance(value, dict):
            entries[name.encode()] = (b"40000", _write_nested(writer, value))
        else:
            mode, content = value
            oid = "1" * 40 if content is None else writer.write_blob(content)
            entries[name.encode()] = (mode, oid)
    return writer.write_tree(entries)


def _walk(tree: dict, prefix: str = ""):
    """(path, value) for every entry of the tree and its subtrees."""
    for name, value in tree.items():
        yield prefix + name, value
        if isinstance(value, dict):
            yield from _walk(value, prefix + name + "/")


@settings(max_examples=60, deadline=None)
@given(_TREES)
def test_lookup_agrees_with_flatten(tree):
    entries = list(_walk(tree))
    # A lone surrogate outside surrogateescape's range encodes to no name.
    paths = {"", "/", "missing", "missing/f.txt", "\ud800", "a/\ud800"}
    for path, _value in entries:
        paths.update({
            path, path + "/", path + "/x", path + "/missing",
            "missing/" + path, path.replace("/", "//", 1),
        })
    with tempfile.TemporaryDirectory() as tmp:
        writer = RepoWriter(os.path.join(tmp, "r.git"))
        writer.init_bare()
        root = _write_nested(writer, tree)
        writer.close()
        with ObjectStore(writer.path) as store:
            caches = FollowCaches()
            flat = _flatten(store, root, caches)
            assert set(flat) == {
                path for path, value in entries
                if not isinstance(value, dict) and value[0] in FILE_MODES
            }
            for path in sorted(paths):
                assert _lookup(store, root, path, caches) == flat.get(path), path


def test_walk_flattens_no_tree_where_the_path_stays(tmp_path, monkeypatch):
    flattened = []
    original = _flatten

    def counting(store, tree_oid, caches):
        flattened.append(tree_oid)
        return original(store, tree_oid, caches)

    monkeypatch.setattr("methodgit.tracking._flatten", counting)
    for n in (3, 30):
        repo = str(tmp_path / f"r{n}.git")
        # keep/k.txt appears at commit 1; every commit edits other/o.txt.
        snapshots = [{"other/o.txt": b"%d\n" % i} for i in range(n)]
        for files in snapshots[1:]:
            files["keep/k.txt"] = b"k\n"
        ids = build_linear_repo(repo, snapshots)
        flattened.clear()
        for copies in (False, True):
            steps = track(repo, "keep/k.txt", threshold=50, detect_copies=copies)
            assert [(s.kind, s.commit_id) for s in steps] == [(StepKind.ADD, ids[1])]
        with ObjectStore(repo) as store:
            parent_tree = store.read_commit(ids[0]).tree
        # Only the one disappearance, at the path's first commit, flattens,
        # and only its parent's tree: deletions are looked up in the other.
        assert flattened == [parent_tree, parent_tree]


def _numbered(prefix: str, n: int, start: int = 0) -> list[bytes]:
    return [b"%s %d of the file\n" % (prefix.encode(), i) for i in range(start, start + n)]


# Candidates of very different sizes for one disappearance: tracked (40
# lines) and low (20 lines) appear at commit 1, where every old file but
# keep/k.txt is deleted.  mid/a.txt and mid/b.txt are equal, so they tie
# for low; mid/c.txt, later in path order, beats them for tracked.
_TARGET = _numbered("target", 40)
_OTHER = _numbered("other", 10)
_HEAVY_TAILED = [
    {
        "big/huge.txt": b"".join(_TARGET[:20] + _numbered("huge", 380)),
        "keep/k.txt": b"".join(_TARGET[:3] + _numbered("keep", 90)),
        "mid/a.txt": b"".join(_TARGET[:30] + _OTHER),
        "mid/b.txt": b"".join(_TARGET[:30] + _OTHER),
        "mid/c.txt": b"".join(_TARGET[:36] + _numbered("c", 4)),
        "small/s1.txt": b"".join(_TARGET[:2]),
        "small/s2.txt": _TARGET[5],
        "x/empty.txt": b"",
        "x/other.txt": b"z\n",
    },
    {
        "keep/k.txt": b"".join(_TARGET[:3] + _numbered("keep", 90)),
        "new/tracked.txt": b"".join(_TARGET),
        "new/low.txt": b"".join(_OTHER[:6] + _numbered("low", 14)),
        "new/empty.txt": b"",
    },
]


def test_size_prune_is_exact_on_heavy_tailed_sizes(tmp_path, monkeypatch):
    repo = str(tmp_path / "r.git")
    ids = build_linear_repo(repo, _HEAVY_TAILED)
    scored = []
    original = similarity

    def counting(a, b, metric):
        scored.append(metric)
        return original(a, b, metric)

    monkeypatch.setattr("methodgit.tracking.similarity", counting)
    sized = []
    original_sizes = ObjectStore.sizes

    def counting_sizes(self, oids):
        sized.extend(oids)
        return original_sizes(self, oids)

    monkeypatch.setattr(ObjectStore, "sizes", counting_sizes)

    def assert_sized_once_each():
        # Sizes are memoised per blob id in FollowCaches.
        assert len(sized) == len(set(sized))
        sized.clear()

    old_files = _HEAVY_TAILED[0]
    expected_old = {"new/tracked.txt": "mid/c.txt", "new/low.txt": "mid/a.txt",
                    "new/empty.txt": "x/empty.txt"}
    candidates = 0
    with ObjectStore(repo) as store:
        trees = [store.read_commit(cid).tree for cid in ids]
        for metric in Metric:
            for copies in (False, True):
                n_candidates = len(old_files) - (0 if copies else 1)
                for path, old_path in expected_old.items():
                    # The best candidate whatever its score: tracked scores
                    # 36/40 lines, low only 6/40, below any -M used below.
                    config = TrackerConfig(threshold=50, detect_copies=copies, metric=metric)
                    caches = FollowCaches()
                    blob = _lookup(store, trees[1], path, caches)
                    winner = _disappearance(
                        store, ids[1], trees[1], trees[0], blob, config, caches
                    )
                    assert_sized_once_each()
                    want = max(
                        brute_similarity(old_files[old], _HEAVY_TAILED[1][path], metric.value)
                        for old in old_files if copies or old != "keep/k.txt"
                    )
                    assert (winner.old_path, fraction(winner.score)) == (old_path, want)
                    candidates += n_candidates
                    for threshold in (10, 50, 90):
                        config = TrackerConfig(threshold, copies, metric)
                        got = [
                            (s.commit_id, s.kind.value, s.old_path, s.new_path, fraction(s.score))
                            for s in follow(store, path, config)
                        ]
                        assert_sized_once_each()
                        assert got == brute_follow(
                            store, path, ids[1], threshold, copies, metric.value
                        ), (path, config)
                        candidates += n_candidates
    # Some candidates were skipped on their sizes alone: of these 408, the
    # search in size order scores 60 per metric where scoring in path order
    # with the same bound scored 88.
    assert candidates == 408
    assert len(scored) == 120
    assert scored.count(Metric.LINES) == scored.count(Metric.GIT_BYTES)


# Four-byte lines, so that byte sizes are four times line counts and equal
# fractions occur at different sizes under both metrics; two longer lines
# make the metrics differ.  The target's lines are t00-t09.
_POOL = (
    [b"t%02d\n" % i for i in range(10)]
    + [b"f%02d\n" % i for i in range(4)]
    + [b"a longer line %d\n" % i for i in range(2)]
)
_TARGET_10 = b"".join(_POOL[:10])
_CONTENTS = st.lists(st.sampled_from(_POOL), max_size=20).map(b"".join)
_PATHS = ("a.txt", "b.txt", "c/a.txt", "c/d.txt", "c/e/f.txt", "z.txt")
_NEW = "new/target.txt"


def _full_scan(parent: dict, current: dict, target: bytes, config: TrackerConfig):
    """(old path, score, kind, content) of the first best candidate in path
    order, scoring every candidate."""
    best = None
    for path in sorted(parent):
        retained = path in current
        if retained and not config.detect_copies:
            continue
        score = similarity(fingerprint(parent[path]), fingerprint(target), config.metric)
        if best is None or fraction(score) > fraction(best[1]):
            kind = StepKind.COPY if retained else StepKind.RENAME
            best = (path, score, kind, parent[path])
    return best


@settings(max_examples=150, deadline=None)
@given(
    parent=st.dictionaries(st.sampled_from(_PATHS), _CONTENTS, max_size=len(_PATHS)),
    retained=st.sets(st.sampled_from(_PATHS)),
    target=st.one_of(st.just(_TARGET_10), st.just(b""), _CONTENTS),
)
# 5/10 against 10/20: a.txt comes later in size order, but its path is
# smaller, so it wins the tie.
@example(
    parent={"a.txt": _TARGET_10 + b"f00\n" * 10, "b.txt": _TARGET_10[:20] + b"f01\n" * 5},
    retained=set(),
    target=_TARGET_10,
)
@example(parent={"a.txt": b"", "b.txt": b"", "z.txt": b"t00\n"}, retained={"a.txt"}, target=b"")
def test_size_ordered_search_equals_a_full_scan_in_path_order(parent, retained, target):
    current = {path: parent[path] for path in retained if path in parent}
    current[_NEW] = target
    with tempfile.TemporaryDirectory() as tmp:
        ids = build_linear_repo(os.path.join(tmp, "r.git"), [parent, current])
        with ObjectStore(os.path.join(tmp, "r.git")) as store:
            trees = [store.read_commit(cid).tree for cid in ids]
            # One FollowCaches for all four searches, as evaluate shares it.
            caches = FollowCaches()
            blob = _lookup(store, trees[1], _NEW, caches)
            for metric in Metric:
                for copies in (False, True):
                    config = TrackerConfig(threshold=50, detect_copies=copies, metric=metric)
                    winner = _disappearance(
                        store, ids[1], trees[1], trees[0], blob, config, caches
                    )
                    got = None
                    if winner is not None:
                        got = (winner.old_path, winner.score, winner.kind,
                               store.read(winner.blob)[1])
                    assert got == _full_scan(parent, current, target, config), config


# An empty tree, one whose files all have one size in bytes and in lines,
# and one of mixed sizes that shares a/c.txt with the second.
_INDEXED = [
    {},
    {"b.txt": b"xx\n", "a/c.txt": b"yy\n", "d.txt": b"zz\n", "a/a.txt": b"ww\n"},
    {"a/c.txt": b"yy\n", "e.txt": b"1\n2\n3\n", "f.txt": b"", "g.txt": b"a longer line\n",
     "h/i.txt": b"1\n2\n3\n", "j.txt": b"no newline"},
]


@pytest.mark.parametrize("metric", list(Metric))
def test_candidates_are_the_columns_of_the_sorted_files(tmp_path, metric):
    repo = str(tmp_path / "r.git")
    ids = build_linear_repo(repo, _INDEXED)
    with ObjectStore(repo) as store:
        trees = [store.read_commit(cid).tree for cid in ids]
        caches = FollowCaches()
        for tree in trees:
            flat = brute_flatten(store, tree)
            if metric is Metric.LINES:
                sizes = [split_fingerprint(store.read(oid)[1]).line_count
                         for oid in flat.values()]
            else:
                sizes = store.sizes(list(flat.values()))
            expected = sorted(zip(sizes, flat, flat.values()))
            columns = _candidates(store, tree, metric, caches)
            assert columns == (tuple(zip(*expected)) if expected else ((), (), ()))
            assert _candidates(store, tree, metric, caches) is columns
        # Two indexes hold the one string of the path their trees share.
        (_, first, _), (_, second, _) = (
            _candidates(store, tree, metric, caches) for tree in trees[1:]
        )
        assert first[first.index("a/c.txt")] is second[second.index("a/c.txt")]


@pytest.mark.parametrize("shadow", ["symlink", "directory"])
def test_follow_skips_a_first_parent_with_no_file_at_the_path(tmp_path, shadow):
    repo = str(tmp_path / "r.git")
    writer = RepoWriter(repo)
    writer.init_bare()
    keep = (b"100644", writer.write_blob(b"k\n"))

    def commit(only: tuple[bytes, str], parents, n):
        stamp = AUTHOR % (1700000000 + n * 60)
        return writer.write_commit(
            tree=writer.write_tree({b"keep.txt": keep, b"only.txt": only}),
            parents=parents,
            author=stamp,
            committer=stamp,
            message=b"c%d\n" % n,
        )

    def regular(content: bytes) -> tuple[bytes, str]:
        return (b"100644", writer.write_blob(content))

    if shadow == "symlink":
        in_left = (b"120000", writer.write_blob(b"keep.txt"))
    else:
        inner = writer.write_tree({b"only.txt": regular(b"o\n")})
        in_left = (b"40000", inner)
    base = commit(regular(b"o0\n"), [], 0)
    left = commit(in_left, [base], 1)
    right = commit(regular(b"o\n"), [base], 2)
    merge = commit(regular(b"o\n"), [left, right], 3)
    writer.close()
    writer.write_refs({"refs/heads/master": merge})
    writer.set_head("refs/heads/master")

    with ObjectStore(repo) as store:
        for copies in (False, True):
            for metric in Metric:
                config = TrackerConfig(threshold=50, detect_copies=copies, metric=metric)
                steps = follow(store, "only.txt", config)
                assert [(s.kind, s.commit_id) for s in steps] == [
                    (StepKind.MODIFY, right),
                    (StepKind.ADD, base),
                ]
                got = [
                    (s.commit_id, s.kind.value, s.old_path, s.new_path, fraction(s.score))
                    for s in steps
                ]
                assert got == brute_follow(store, "only.txt", merge, 50, copies, metric.value)


def test_steps_to_tsv_golden(tmp_path):
    repo = str(tmp_path / "r.git")
    ids = build_linear_repo(
        repo,
        [
            {"old.txt": b"1\n2\n3\n4\n"},
            {"new.txt": b"1\n2\n3\n5\n"},
        ],
    )
    steps = track(repo, "new.txt", threshold=60, metric=Metric.LINES)
    tsv = steps_to_tsv(steps)
    lines = tsv.split("\n")
    assert lines[0] == "commit\tkind\toldPath\tnewPath\tscore"
    assert lines[1] == f"{ids[1]}\tRENAME\told.txt\tnew.txt\t3/4"
    assert lines[2] == f"{ids[0]}\tADD\t\told.txt\t"
    assert lines[3] == ""
    assert tsv.endswith("\n")


def test_steps_to_json_golden(tmp_path):
    repo = str(tmp_path / "r.git")
    ids = build_linear_repo(repo, [{"a.txt": b"1\n"}, {"a.txt": b"2\n"}])
    steps = track(repo, "a.txt", threshold=60)
    got = steps_to_json(steps)
    assert got == [
        {
            "commit": ids[1],
            "kind": "MODIFY",
            "oldPath": "a.txt",
            "newPath": "a.txt",
            "score": None,
        },
        {
            "commit": ids[0],
            "kind": "ADD",
            "oldPath": None,
            "newPath": "a.txt",
            "score": None,
        },
    ]


def test_count_renames_counts_renames_and_copies():
    from methodgit.tracking import TrackStep

    steps = [
        TrackStep("c3", StepKind.MODIFY, "a", "a", None),
        TrackStep("c2", StepKind.RENAME, "b", "a", SimilarityScore(9, 10)),
        TrackStep("c1", StepKind.COPY, "c", "b", SimilarityScore(1, 1)),
        TrackStep("c0", StepKind.ADD, None, "c", None),
    ]
    assert count_renames(steps) == 2
    assert count_renames([steps[-1]]) == 0


def _record_reads(monkeypatch) -> Counter:
    """Counts (type name, id) of every ObjectStore.read from now on."""
    reads: Counter = Counter()
    original = ObjectStore.read

    def counting(self, oid):
        kind, payload = original(self, oid)
        reads[kind, oid] += 1
        return kind, payload

    monkeypatch.setattr(ObjectStore, "read", counting)
    return reads


def test_follows_sharing_caches_read_each_commit_once(tmp_path, monkeypatch):
    repo = str(tmp_path / "r.git")
    generate_text_repo(repo, n_commits=20, max_files=12, seed=3)
    with ObjectStore(repo) as store:
        tip = store.resolve_ref("HEAD")
        paths = sorted(_flatten(store, store.read_commit(tip).tree, FollowCaches()))
    reads = _record_reads(monkeypatch)

    def commit_reads(ref: str | None = None) -> Counter:
        reads.clear()
        with ObjectStore(repo) as store:
            caches = FollowCaches()
            for path in paths:
                follow(store, path, TrackerConfig(threshold=50), ref=ref, caches=caches)
        return Counter({oid: n for (kind, oid), n in reads.items() if kind in ("commit", "tag")})

    # The branch tip is peeled by the read that caches it, not read again.
    first = commit_reads()
    assert tip in first and set(first.values()) == {1}
    # An annotated tag and the commit it names are each read once per
    # caches, however many follows share them.
    subprocess.run(
        ["git", "-C", repo, "-c", "user.name=T", "-c", "user.email=t@x",
         "tag", "-a", "-m", "v1", "v1", tip],
        check=True, capture_output=True,
    )
    with ObjectStore(repo) as store:
        tag = store.resolve_ref("refs/tags/v1")
    tagged = commit_reads("refs/tags/v1")
    assert len(paths) > 1
    assert tagged.pop(tag) == 1
    assert tip in tagged and set(tagged.values()) == {1}
    # The commit-graph gives every commit's tree and parents.
    write_commit_graph(repo)
    assert commit_reads() == Counter()
    assert commit_reads("refs/tags/v1") == Counter({tag: 1})


def _trees_on(store: ObjectStore, tree: str, path: str) -> set[str]:
    """The trees a lookup of path in tree descends."""
    out = {tree}
    for part in path.split("/")[:-1]:
        entry = store.read_tree(tree).get(part.encode())
        if entry is None or entry[0] != b"40000":
            break
        tree = entry[1]
        out.add(tree)
    return out


def _all_trees(store: ObjectStore, tree: str) -> set[str]:
    out = {tree}
    for mode, oid in store.read_tree(tree).values():
        if mode == b"40000":
            out |= _all_trees(store, oid)
    return out


def test_cold_follow_reads_trees_only_where_the_filter_admits_the_path(tmp_path, monkeypatch):
    src, dst = str(tmp_path / "src.git"), str(tmp_path / "dst.git")
    generate_java_repo(src, n_commits=40, n_files=8, seed=4)
    rewrite_history(src, dst)
    with ObjectStore(dst) as store:
        tip = store.resolve_ref("HEAD")
        paths = sorted(p for p in _flatten(store, store.read_commit(tip).tree, FollowCaches())
                       if p.endswith(".mjava"))[::3]
    read: list[str] = []
    original = ObjectStore.read_tree

    def recording(self, oid):
        read.append(oid)
        return original(self, oid)

    skipped = 0
    totals = {}
    for graph_kept in (True, False):
        totals[graph_kept] = 0
        for path in paths:
            read.clear()
            monkeypatch.setattr(ObjectStore, "read_tree", recording)
            with ObjectStore(dst) as store:
                steps = follow(store, path, TrackerConfig(threshold=50), caches=FollowCaches())
            monkeypatch.setattr(ObjectStore, "read_tree", original)
            totals[graph_kept] += len(read)
            if not graph_kept:
                continue
            with ObjectStore(dst) as store:
                graph = store.commit_graph()
                allowed = _trees_on(store, store.read_commit(tip).tree, path)
                moves = {s.commit_id: s for s in steps if s.kind is not StepKind.MODIFY}
                commit, cur = tip, path
                while True:
                    pos = graph.position(commit)
                    tree, parents = graph.commit(pos)
                    if commit in moves:
                        # A disappearance flattens the first parent and
                        # looks candidates up in the commit's own tree.
                        allowed |= _all_trees(store, tree)
                        if parents:
                            allowed |= _all_trees(store, graph.commit(graph.position(parents[0]))[0])
                        if moves[commit].kind is StepKind.ADD:
                            break
                        cur = moves[commit].old_path
                    elif graph.rules_out(pos, path_keys(cur.encode())):
                        skipped += 1
                    else:
                        allowed |= _trees_on(store, graph.commit(graph.position(parents[0]))[0], cur)
                    commit = parents[0]
            assert set(read) <= allowed, path
        if graph_kept:
            os.remove(os.path.join(dst, "objects", "info", "commit-graph"))
    assert skipped > 0
    assert totals[True] < totals[False]
