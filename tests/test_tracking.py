"""Tracking unit tests: fingerprints, similarity, configuration, and the
backward walk over hand-built histories."""

from __future__ import annotations

import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
from methodgit.errors import TrackError
from methodgit.gitstore import FILE_MODES, TreeEntry
from methodgit.tracking import (
    AmbiguousStart,
    FollowCaches,
    PathNotFound,
    SimilarityScore,
    StepKind,
    _flatten,
    _lookup,
    steps_to_json,
    steps_to_tsv,
)

from brute import brute_follow
from conftest import AUTHOR, build_linear_repo, sim, write_tree_dict


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
        assert score.as_fraction() == 1


def test_similarity_one_empty_is_zero():
    score = sim(b"", b"data\n", Metric.GIT_BYTES)
    assert score.numerator == 0
    assert score.denominator == 5


def test_score_string_is_unreduced():
    assert str(SimilarityScore(8, 10)) == "8/10"
    assert SimilarityScore(8, 10).as_fraction() == Fraction(4, 5)


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
    got_bytes = sim(a, b, Metric.GIT_BYTES).as_fraction()
    got_lines = sim(a, b, Metric.LINES).as_fraction()
    assert got_bytes == got_lines


def test_tracker_config_threshold_bounds():
    TrackerConfig(threshold=1)
    TrackerConfig(threshold=100)
    with pytest.raises(TrackError):
        TrackerConfig(threshold=0)
    with pytest.raises(TrackError):
        TrackerConfig(threshold=101)


def track(repo: str, path: str, **kwargs):
    store = ObjectStore(repo)
    try:
        return follow(store, path, TrackerConfig(**kwargs))
    finally:
        store.close()


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
    assert copy.score.as_fraction() == 1


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
    store = ObjectStore(repo)
    with pytest.raises(PathNotFound):
        follow(store, "missing.txt", TrackerConfig())
    store.close()


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

    store = ObjectStore(repo)
    with pytest.raises(AmbiguousStart):
        follow(store, "f.txt", TrackerConfig())
    steps = follow(store, "f.txt", TrackerConfig(), ref="two")
    assert steps[0].commit_id == two
    with pytest.raises(TrackError):
        follow(store, "f.txt", TrackerConfig(), ref="refs/heads/absent")
    store.close()


def test_shared_tip_is_not_ambiguous(tmp_path):
    repo = str(tmp_path / "r.git")
    ids = build_linear_repo(repo, [{"f.txt": b"0\n"}])
    writer_refs = {
        "refs/heads/master": ids[0],
        "refs/heads/alias": ids[0],
    }
    store = ObjectStore(repo)
    # Re-point refs so two branch names share one tip commit.
    with open(os.path.join(repo, "packed-refs"), "w") as f:
        f.write("# pack-refs with: peeled fully-peeled sorted \n")
        for name in sorted(writer_refs):
            f.write(f"{writer_refs[name]} {name}\n")
    steps = follow(store, "f.txt", TrackerConfig())
    assert [s.kind for s in steps] == [StepKind.ADD]
    store.close()


def test_caches_are_shared_between_follows(tmp_path):
    repo = str(tmp_path / "r.git")
    build_linear_repo(
        repo,
        [
            {"a.txt": b"1\n2\n3\n", "b.txt": b"x\ny\nz\n"},
            {"a2.txt": b"1\n2\n3\n", "b.txt": b"x\ny\nz\n"},
        ],
    )
    store = ObjectStore(repo)
    caches = FollowCaches()
    first = follow(store, "a2.txt", TrackerConfig(threshold=50), caches=caches)
    assert caches.trees
    second = follow(store, "a2.txt", TrackerConfig(threshold=50), caches=caches)
    assert [s.kind for s in first] == [s.kind for s in second]
    store.close()


def test_disappearance_cache_is_threshold_independent(tmp_path):
    repo = str(tmp_path / "r.git")
    build_linear_repo(
        repo,
        [
            {"old.txt": b"a\nb\nc\nd\n"},
            {"new.txt": b"a\nb\nx\ny\n"},
        ],
    )
    store = ObjectStore(repo)
    caches = FollowCaches()
    low = follow(store, "new.txt", TrackerConfig(threshold=40), caches=caches)
    high = follow(store, "new.txt", TrackerConfig(threshold=80), caches=caches)
    assert count_renames(low) == 1
    assert count_renames(high) == 0
    store.close()


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
    entries = []
    for name, value in tree.items():
        if isinstance(value, dict):
            entries.append(TreeEntry(b"40000", name.encode(), _write_nested(writer, value)))
        else:
            mode, content = value
            oid = "1" * 40 if content is None else writer.write_blob(content)
            entries.append(TreeEntry(mode, name.encode(), oid))
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
    paths = {"", "/", "missing", "missing/f.txt"}
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
        store = ObjectStore(writer.path)
        caches = FollowCaches()
        flat = _flatten(store, root, caches)
        assert set(flat) == {
            path for path, value in entries
            if not isinstance(value, dict) and value[0] in FILE_MODES
        }
        for path in sorted(paths):
            assert _lookup(store, root, path, caches) == flat.get(path), path
        store.close()


def test_walk_flattens_no_tree_where_the_path_stays(tmp_path, monkeypatch):
    flattened = []
    original = _flatten

    def counting(store, tree_oid, caches):
        flattened.append(tree_oid)
        return original(store, tree_oid, caches)

    monkeypatch.setattr("methodgit.tracking._flatten", counting)
    counts = {}
    for n in (3, 30):
        repo = str(tmp_path / f"r{n}.git")
        # keep/k.txt appears at commit 1; every commit edits other/o.txt.
        snapshots = [{"other/o.txt": b"%d\n" % i} for i in range(n)]
        for files in snapshots[1:]:
            files["keep/k.txt"] = b"k\n"
        ids = build_linear_repo(repo, snapshots)
        flattened.clear()
        steps = track(repo, "keep/k.txt", threshold=50, detect_copies=True)
        assert [(s.kind, s.commit_id) for s in steps] == [(StepKind.ADD, ids[1])]
        counts[n] = len(flattened)
    # Only the one disappearance, at the path's first commit, flattens.
    assert counts[3] == counts[30]


@pytest.mark.parametrize("shadow", ["symlink", "directory"])
def test_follow_skips_a_first_parent_with_no_file_at_the_path(tmp_path, shadow):
    repo = str(tmp_path / "r.git")
    writer = RepoWriter(repo)
    writer.init_bare()
    keep = TreeEntry(b"100644", b"keep.txt", writer.write_blob(b"k\n"))

    def commit(only: TreeEntry, parents, n):
        stamp = AUTHOR % (1700000000 + n * 60)
        return writer.write_commit(
            tree=writer.write_tree([keep, only]),
            parents=parents,
            author=stamp,
            committer=stamp,
            message=b"c%d\n" % n,
        )

    def regular(content: bytes) -> TreeEntry:
        return TreeEntry(b"100644", b"only.txt", writer.write_blob(content))

    if shadow == "symlink":
        in_left = TreeEntry(b"120000", b"only.txt", writer.write_blob(b"keep.txt"))
    else:
        inner = writer.write_tree([regular(b"o\n")])
        in_left = TreeEntry(b"40000", b"only.txt", inner)
    base = commit(regular(b"o0\n"), [], 0)
    left = commit(in_left, [base], 1)
    right = commit(regular(b"o\n"), [base], 2)
    merge = commit(regular(b"o\n"), [left, right], 3)
    writer.close()
    writer.write_refs({"refs/heads/master": merge})
    writer.set_head("refs/heads/master")

    store = ObjectStore(repo)
    for copies in (False, True):
        for metric in Metric:
            config = TrackerConfig(threshold=50, detect_copies=copies, metric=metric)
            steps = follow(store, "only.txt", config)
            assert [(s.kind, s.commit_id) for s in steps] == [
                (StepKind.MODIFY, right),
                (StepKind.ADD, base),
            ]
            got = [
                (s.commit_id, s.kind.value, s.old_path, s.new_path,
                 s.score.as_fraction() if s.score is not None else None)
                for s in steps
            ]
            assert got == brute_follow(store, "only.txt", merge, 50, copies, metric.value)
    store.close()


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
