"""Commit-graph tests: git's murmur3 and Bloom keys, the file a conversion
writes against the one git writes, and the reader's checks.

Tests marked requires_git cross-check against the real git binary.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import struct
import subprocess
import tempfile
from collections import Counter
from contextlib import contextmanager
from hashlib import sha1

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from methodgit import ObjectStore, RepoWriter, TrackerConfig, follow, rewrite_history
from methodgit.cli import main
from methodgit.commitgraph import (
    CommitGraph,
    _murmur3_pair,
    bloom_key,
    changed_paths,
    commit_date,
    path_keys,
)
from methodgit.errors import RepositoryError
from methodgit.tracking import FollowCaches, _flatten

from conftest import (
    AUTHOR,
    PERSON_JAVA,
    build_linear_repo,
    requires_git,
    write_commit_graph,
    write_tree_dict,
)

T = 1700000000


def murmur3(seed: int, data: bytes) -> int:
    return _murmur3_pair(data, seed, seed)[0]


def _reference_murmur3(seed: int, data: bytes) -> int:
    """bloom.c's murmur3_seeded line by line, with its `char` read as
    signed, as on the platforms git's version 1 filters come from."""
    m32 = 0xFFFFFFFF

    def char(i: int) -> int:  # (uint32_t)data[i]
        return data[i] - 256 & m32 if data[i] >= 0x80 else data[i]

    def rotl(x: int, r: int) -> int:
        return (x << r | x >> (32 - r)) & m32

    h = seed
    n4 = len(data) // 4
    for i in range(n4):
        k = char(4 * i) | char(4 * i + 1) << 8 | char(4 * i + 2) << 16 | char(4 * i + 3) << 24
        k = rotl((k & m32) * 0xCC9E2D51 & m32, 15) * 0x1B873593 & m32
        h ^= k
        h = (rotl(h, 13) * 5 + 0xE6546B64) & m32
    k1 = 0
    rest = len(data) & 3
    base = 4 * n4
    if rest == 3:
        k1 ^= char(base + 2) << 16 & m32
    if rest >= 2:
        k1 ^= char(base + 1) << 8 & m32
    if rest >= 1:
        k1 ^= char(base)
        k1 = rotl(k1 * 0xCC9E2D51 & m32, 15) * 0x1B873593 & m32
        h ^= k1
    h ^= len(data)
    h ^= h >> 16
    h = h * 0x85EBCA6B & m32
    h ^= h >> 13
    h = h * 0xC2B2AE35 & m32
    return h ^ h >> 16


def test_murmur3_known_values():
    # git's t/t0095-bloom.sh, seed 0.
    assert murmur3(0, b"") == 0
    assert murmur3(0, b"Hello world!") == 0x627B0C2C
    assert murmur3(0, b"The quick brown fox jumps over the lazy dog") == 0x2E4FF723


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 0xFFFFFFFF), st.binary(max_size=23))
def test_murmur3_sign_extends_every_high_byte(seed, data):
    assert murmur3(seed, data) == _reference_murmur3(seed, data)


def test_bloom_key_combines_two_seeded_hashes():
    h0 = murmur3(0x293AE76F, b"dir/file")
    h1 = murmur3(0x7E646E2C, b"dir/file")
    assert bloom_key(b"dir/file") == tuple((h0 + i * h1) & 0xFFFFFFFF for i in range(7))
    assert path_keys(b"a/b/c") == [bloom_key(b"a/b/c"), bloom_key(b"a/b"), bloom_key(b"a")]


def _prefixes(path: bytes) -> list[bytes]:
    out = []
    while path:
        out.append(path)
        path = path.rpartition(b"/")[0]
    return out


_PATH = st.lists(
    st.sampled_from([b"/", b"//", b"a", b"bc", b"def", b"ghij", b"\x80", b"\xff", b"\xe9t"]),
    max_size=12,
).map(b"".join)


@settings(max_examples=200, deadline=None)
@given(st.lists(_PATH, max_size=8))
def test_memoised_path_keys_equal_each_prefix_hashed_alone(paths):
    memo: dict = {}
    for path in paths:
        assert path_keys(path, memo) == [bloom_key(q) for q in _prefixes(path)]
    for path in paths:
        assert path_keys(path) == path_keys(path, memo)


def test_path_keys_of_a_deep_path_do_not_recurse():
    path = b"/".join([b"x"] * 5000)
    keys = path_keys(path)
    assert len(keys) == 5000
    assert keys[0] == bloom_key(path) and keys[-1] == bloom_key(b"x")


@pytest.mark.parametrize("committer, date", [
    (AUTHOR % 1700000000, 1700000000),
    (b"A <a@x>   42 +0100", 42),
    (b"A <a@x> -5 +0000", 0),
    (b"no email 12 +0000", 0),
    (b"A <a@x> <b@y> 7 +0000", 0),
    (b"garbage", 0),
])
def test_commit_date_is_read_after_the_first_angle_bracket(committer, date):
    assert commit_date(committer) == date


def _changed(repo, old: dict | None, new: dict) -> set[bytes] | None:
    """changed_paths between trees of {path: (mode, content)}."""
    trees: dict[str, dict] = {}
    with RepoWriter(str(repo)) as writer:
        writer.init_bare()

        def write(files: dict) -> str:
            root: dict = {}
            for path, value in files.items():
                *dirs, name = path.split("/")
                node = root
                for part in dirs:
                    node = node.setdefault(part, {})
                node[name] = value

            def emit(node: dict) -> str:
                entries = {}
                for name, value in node.items():
                    if isinstance(value, dict):
                        entries[name.encode()] = (b"40000", emit(value))
                    else:
                        mode, content = value
                        entries[name.encode()] = (mode, writer.write_blob(content))
                oid = writer.write_tree(entries)
                trees[oid] = entries
                return oid

            return emit(root)

        old_tree = write(old) if old is not None else None
        new_tree = write(new)
    return changed_paths(old_tree, new_tree, trees.__getitem__)


F = b"100644"


def test_changed_paths_are_the_diff_with_leading_directories(tmp_path):
    old = {"a/x": (F, b"1"), "a/y": (F, b"2"), "b/z": (F, b"3"), "top": (F, b"4")}
    new = {"a/x": (F, b"1"), "a/y": (F, b"5"), "b/z": (F, b"3"), "c/d/e": (F, b"6")}
    assert _changed(tmp_path / "1", old, new) == {b"a", b"a/y", b"c", b"c/d", b"c/d/e", b"top"}
    assert _changed(tmp_path / "2", None, {"a/x": (F, b"1")}) == {b"a", b"a/x"}
    assert _changed(tmp_path / "3", new, new) == set()


def test_changed_paths_count_a_mode_change_and_a_type_change(tmp_path):
    old = {"run": (F, b"#!"), "a": (F, b"file")}
    new = {"run": (b"100755", b"#!"), "a/in": (F, b"file")}
    assert _changed(tmp_path, old, new) == {b"run", b"a", b"a/in"}


def test_changed_paths_beyond_512_are_truncated(tmp_path):
    wide = {f"d/f{i}": (F, b"%d" % i) for i in range(511)}
    assert len(_changed(tmp_path / "1", None, wide)) == 512  # the files and d
    assert _changed(tmp_path / "2", None, {**wide, "d/g": (F, b"g")}) is None


# -- the file a conversion writes ---------------------------------------------

# Each history is a list of commits (files, parent indices, commit time);
# its last commit is the tip of master.
_BASE = {"P.java": PERSON_JAVA.encode(), "README": b"readme\n"}


def _java(name: str, version: int) -> bytes:
    """A class whose method f returns version."""
    return b"class %s { int f() { return %d; } }\n" % (name.encode(), version)


# 505 files, 7 directories and gen: 513 paths, though only 505 files.
_WIDE = {f"gen/d{i % 7}/f{i}.txt": b"%d\n" % i for i in range(505)}
HISTORIES = {
    "merge": [
        (_BASE, [], T),
        ({**_BASE, "side.txt": b"side\n"}, [0], T + 60),
        ({**_BASE, "main.txt": b"main\n"}, [0], T + 120),
        ({**_BASE, "main.txt": b"main\n", "side.txt": b"side\n"}, [2, 1], T + 180),
    ],
    "octopus": [
        (_BASE, [], T),
        ({**_BASE, "one/a.txt": b"1\n"}, [0], T + 60),
        ({**_BASE, "two/b.txt": b"2\n"}, [0], T + 120),
        ({**_BASE, "three/c.txt": b"3\n"}, [0], T + 180),
        (
            {**_BASE, "one/a.txt": b"1\n", "two/b.txt": b"2\n", "three/c.txt": b"3\n"},
            [0, 1, 2, 3],
            T + 240,
        ),
    ],
    "empty commit": [
        (_BASE, [], T),
        (_BASE, [0], T + 60),
        ({**_BASE, "README": b"changed\n"}, [1], T + 120),
    ],
    "over 512 paths": [
        (_BASE, [], T),
        ({**_BASE, **_WIDE}, [0], T + 60),
        ({**_BASE, **_WIDE, "gen/one.txt": b"1\n"}, [1], T + 120),
    ],
    "non-ascii paths": [
        (_BASE, [], T),
        (
            {
                **_BASE,
                "ü/é/日本.txt": b"x\n",
                "ñandú": b"y\n",
                "ÿÿÿÿÿ.txt": b"z\n",
                "Größe.java": "class Größe { int größe() { return 1; } }\n".encode(),
            },
            [0],
            T + 60,
        ),
    ],
    "dates out of order": [
        (_BASE, [], 9999999999),
        ({**_BASE, "late.txt": b"x\n"}, [0], 5),
        ({**_BASE, "late.txt": b"y\n"}, [1], 2**33 + 17),
    ],
    "type change": [
        ({**_BASE, "a": b"file\n"}, [], T),
        ({**_BASE, "a/in": b"dir\n"}, [0], T + 60),
    ],
    # Commit 3 restores commit 0's root and src tree after the conversion
    # has let their name maps go; commit 4 changes them again.
    "revert": [
        ({**_BASE, "src/A.java": _java("A", 0)}, [], T),
        ({**_BASE, "src/A.java": _java("A", 1)}, [0], T + 60),
        ({**_BASE, "src/A.java": _java("A", 2)}, [1], T + 120),
        ({**_BASE, "src/A.java": _java("A", 0)}, [2], T + 180),
        ({**_BASE, "src/A.java": _java("A", 3)}, [3], T + 240),
    ],
    # Commits 1 and 3 both have commit 0 as first parent, and commit 3 is
    # converted after commit 1's child, commit 2.
    "branch point": [
        ({**_BASE, "src/A.java": _java("A", 0)}, [], T),
        ({**_BASE, "src/A.java": _java("A", 1)}, [0], T + 60),
        ({**_BASE, "src/A.java": _java("A", 2)}, [1], T + 120),
        ({**_BASE, "src/A.java": _java("A", 0), "src/B.java": _java("B", 0)}, [0], T + 180),
        ({**_BASE, "src/A.java": _java("A", 2), "src/B.java": _java("B", 0)}, [3, 2], T + 240),
    ],
}


def build_history(dst: str, commits: list[tuple[dict, list[int], int]]) -> list[str]:
    ids: list[str] = []
    with RepoWriter(dst) as writer:
        writer.init_bare()
        for i, (files, parents, time) in enumerate(commits):
            stamp = AUTHOR % time
            ids.append(writer.write_commit(
                tree=write_tree_dict(writer, files),
                parents=[ids[p] for p in parents],
                author=stamp,
                committer=stamp,
                message=b"commit %d\n" % i,
            ))
    writer.write_refs({"refs/heads/master": ids[-1]})
    writer.set_head("refs/heads/master")
    return ids


def graph_path(repo: str) -> str:
    return os.path.join(repo, "objects", "info", "commit-graph")


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def chunks_of(data: bytes) -> list[tuple[bytes, bytes]]:
    """The (id, bytes) of each chunk of a commit-graph file, in order."""
    count = data[6]
    table = [struct.unpack_from(">4sQ", data, 8 + 12 * i) for i in range(count + 1)]
    return [(cid, data[a:b]) for (cid, a), (_, b) in zip(table, table[1:])]


def assemble(chunks: list[tuple[bytes, bytes]]) -> bytes:
    """A commit-graph file of these chunks, with a valid checksum."""
    offset = 8 + 12 * (len(chunks) + 1)
    table = b""
    for cid, data in chunks:
        table += struct.pack(">4sQ", cid, offset)
        offset += len(data)
    table += struct.pack(">4sQ", b"\0\0\0\0", offset)
    body = b"CGPH\x01\x01" + bytes((len(chunks), 0)) + table + b"".join(d for _, d in chunks)
    return body + sha1(body).digest()


@pytest.fixture(scope="module")
def converted(tmp_path_factory) -> dict[str, str]:
    """Each history of HISTORIES, converted; name -> converted repository."""
    out = {}
    for name, commits in HISTORIES.items():
        root = tmp_path_factory.mktemp("cg")
        build_history(str(root / "src.git"), commits)
        rewrite_history(str(root / "src.git"), str(root / "dst.git"))
        out[name] = str(root / "dst.git")
    return out


@requires_git
@pytest.mark.parametrize("name", list(HISTORIES))
def test_written_graph_is_the_one_git_writes(converted, name, tmp_path):
    repo = converted[name]
    ours = read_bytes(graph_path(repo))
    subprocess.run(["git", "commit-graph", "verify"], cwd=repo, check=True, capture_output=True)
    copy = str(tmp_path / "copy.git")
    shutil.copytree(repo, copy)
    os.remove(graph_path(copy))
    subprocess.run(
        ["git", "commit-graph", "write", "--reachable", "--changed-paths"],
        cwd=copy, check=True, capture_output=True,
    )
    assert read_bytes(graph_path(copy)) == ours


def _source_order(repo: str) -> tuple[str, list[str]]:
    """The source repository a converted one was made from, and its commit
    ids in the order the conversion took them."""
    src = os.path.join(os.path.dirname(repo), "src.git")
    with open(os.path.join(repo, "commit-map.tsv")) as f:
        return src, [line.split()[0] for line in f]


def test_each_history_reaches_the_case_it_is_named_for(converted, monkeypatch, tmp_path):
    ids = {name: [cid for cid, _ in chunks_of(read_bytes(graph_path(repo)))]
           for name, repo in converted.items()}
    assert b"EDGE" not in ids["merge"] and b"EDGE" in ids["octopus"]
    assert b"GDO2" in ids["dates out of order"]
    assert all(b"GDO2" not in chunk_ids for name, chunk_ids in ids.items()
               if name != "dates out of order")
    filters = {}
    for name in ("empty commit", "over 512 paths"):
        with ObjectStore(converted[name]) as store:
            graph = store.commit_graph()
            tip = store.resolve_ref("HEAD")
            parent = graph.commit(graph.position(tip))[1][0]
            filters[name] = _filter(graph, graph.position(parent))
    assert filters == {"empty commit": b"\x00", "over 512 paths": b"\xff"}

    # The conversion reads commit 0's root and src trees again for commit 3.
    src, order = _source_order(converted["revert"])
    reads = Counter()
    read_tree = ObjectStore.read_tree

    def counting_read_tree(store, oid, **kwargs):
        reads[oid] += 1
        return read_tree(store, oid, **kwargs)

    monkeypatch.setattr(ObjectStore, "read_tree", counting_read_tree)
    rewrite_history(src, str(tmp_path / "revert.git"))
    monkeypatch.undo()
    with ObjectStore(src) as store:
        root = store.read_commit(order[0]).tree
        assert store.read_commit(order[3]).tree == root
        restored = {root, store.read_tree(root)[b"src"][1]}
    assert {oid for oid, n in reads.items() if n > 1} == restored

    # The root's second first-parent child comes after its first one's child.
    src, order = _source_order(converted["branch point"])
    with ObjectStore(src) as store:
        first = {oid: store.read_commit(oid).parents[:1] for oid in order}
    children = [oid for oid in order if first[oid] == [order[0]]]
    assert len(children) == 2
    between = order[order.index(children[0]) + 1 : order.index(children[1])]
    assert any(first[oid] == [children[0]] for oid in between)


# Few versions of each file, so that random histories bring trees back
# after the conversion let their name maps go, and branch often.
_VERSIONS = {
    "src/A.java": [None, _java("A", 0), _java("A", 1)],
    "src/B.java": [None, _java("B", 0)],
    "doc/x.txt": [None, b"x\n", b"y\n"],
}


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(
        st.tuples(*(st.integers(0, len(v) - 1) for v in _VERSIONS.values())),
        st.lists(st.integers(0, 99), max_size=3),  # parents, modulo the index
        st.integers(0, 3),  # minutes after T, so dates tie and go back
    ),
    min_size=1,
    max_size=8,
))
def test_any_history_gets_the_graph_of_its_converted_trees(commits):
    with tempfile.TemporaryDirectory() as tmp:
        src, dst = os.path.join(tmp, "src.git"), os.path.join(tmp, "dst.git")
        ids: list[str] = []
        with RepoWriter(src) as writer:
            writer.init_bare()
            for i, (versions, picks, minutes) in enumerate(commits):
                files = {"README": b"readme\n"}
                for (path, contents), k in zip(_VERSIONS.items(), versions):
                    if contents[k] is not None:
                        files[path] = contents[k]
                parents = list(dict.fromkeys(ids[p % i] for p in picks)) if i else []
                stamp = AUTHOR % (T + 60 * minutes)
                ids.append(writer.write_commit(
                    tree=write_tree_dict(writer, files), parents=parents,
                    author=stamp, committer=stamp, message=b"commit %d\n" % i,
                ))
        writer.write_refs({f"refs/heads/c{i}": oid for i, oid in enumerate(ids)})
        rewrite_history(src, dst)
        ours = read_bytes(graph_path(dst))
        os.remove(graph_path(dst))
        assert read_bytes(write_commit_graph(dst)) == ours


def _filter(graph: CommitGraph, pos: int) -> bytes:
    end = struct.unpack_from(">I", graph._bidx, 4 * pos)[0]
    start = struct.unpack_from(">I", graph._bidx, 4 * pos - 4)[0] if pos else 0
    return bytes(graph._bdat[start:end])


@pytest.mark.parametrize("name", list(HISTORIES))
def test_graph_reads_back_every_commit_and_never_rules_out_a_changed_path(converted, name):
    with ObjectStore(converted[name]) as store:
        graph = store.commit_graph()
        with open(os.path.join(converted[name], "commit-map.tsv")) as f:
            commits = [line.split()[1] for line in f]
        assert graph.count == len(commits)
        ruled_out = 0
        for oid in commits:
            record = store.read_commit(oid)
            pos = graph.position(oid)
            assert graph.commit(pos) == (record.tree, record.parents)
            if not record.parents:
                continue
            parent_tree = store.read_commit(record.parents[0]).tree
            changed = changed_paths(parent_tree, record.tree, store.read_tree) or set()
            for path in changed:
                assert not graph.rules_out(pos, path_keys(path))
            for i in range(40):
                unchanged = b"no/such/path%d" % i
                ruled_out += graph.rules_out(pos, path_keys(unchanged))
        assert graph.position("0" * 40) is None
    assert ruled_out > 0


# -- the reader's checks --------------------------------------------------------


@pytest.fixture(scope="module")
def merge_graph(converted) -> tuple[str, bytes]:
    return converted["merge"], read_bytes(graph_path(converted["merge"]))


def _with_chunk(data: bytes, cid: bytes, edit) -> bytes:
    return assemble([(c, edit(d) if c == cid else d) for c, d in chunks_of(data)])


def _corrupt_files(data: bytes, count: int) -> dict[str, tuple[bytes, str]]:
    """{what: (file, the start of the message it raises)}."""
    body = data[:-20]
    flipped = bytes([body[100] ^ 1])
    oidf = dict(chunks_of(data))[b"OIDF"]
    bigger = struct.pack(">256I", *[min(n + 1, count + 1) if i == 255 else n
                                    for i, n in enumerate(struct.unpack(">256I", oidf))])
    table_end = data[:6] + bytes((200,)) + data[7:-20]
    chunks = chunks_of(data)
    return {
        "truncated": (data[:30], "truncated"),
        "cut": (data[:-1], "checksum mismatch"),
        "bad checksum": (body[:100] + flipped + body[101:] + data[-20:], "checksum mismatch"),
        "chunk table out of bounds": (table_end + sha1(table_end).digest(),
                                      "chunk table out of bounds"),
        "chunk past the end": (
            data[:16] + struct.pack(">Q", len(data)) + data[24:-20]
            + sha1(data[:16] + struct.pack(">Q", len(data)) + data[24:-20]).digest(),
            "chunk table out of bounds",
        ),
        "duplicate chunk": (assemble(chunks + chunks[:1]), f"duplicate chunk {chunks[0][0]!r}"),
        "OIDF size": (_with_chunk(data, b"OIDF", lambda d: d[:-4]), "OIDF chunk size"),
        "OIDL size": (_with_chunk(data, b"OIDL", lambda d: d + b"\0" * 20),
                      f"OIDL chunk size for {count} commits"),
        "CDAT size": (_with_chunk(data, b"CDAT", lambda d: d[:-36]),
                      f"CDAT chunk size for {count} commits"),
        "BIDX size": (_with_chunk(data, b"BIDX", lambda d: d + b"\0" * 4),
                      f"BIDX chunk size for {count} commits"),
        "EDGE size": (assemble(chunks + [(b"EDGE", b"\0" * 6)]), "EDGE chunk size"),
        "GDO2 size": (assemble(chunks + [(b"GDO2", b"\0" * 12)]), "GDO2 chunk size"),
        "BDAT header": (_with_chunk(data, b"BDAT", lambda d: d[:11]), "BDAT chunk size"),
        "fanout count": (_with_chunk(data, b"OIDF", lambda d: bigger),
                         f"OIDL chunk size for {count + 1} commits"),
        "no CDAT": (assemble([(c, d) for c, d in chunks if c != b"CDAT"]),
                    "missing a required chunk"),
    }


def test_a_corrupt_file_raises_on_load(merge_graph, tmp_path):
    _, data = merge_graph
    count = len(dict(chunks_of(data))[b"OIDL"]) // 20
    for what, (bad, message) in _corrupt_files(data, count).items():
        with pytest.raises(RepositoryError,
                           match=re.escape(f"corrupt commit-graph {what}: {message}")):
            CommitGraph(bad, what)


def _cdat_slot(data: bytes, pos: int, slot: int, value: int) -> bytes:
    def edit(cdat: bytes) -> bytes:
        at = pos * 36 + 20 + 4 * slot
        return cdat[:at] + struct.pack(">I", value) + cdat[at + 4 :]
    return _with_chunk(data, b"CDAT", edit)


def test_positions_and_filters_out_of_range_raise_when_read(merge_graph):
    repo, data = merge_graph
    with ObjectStore(repo) as store:
        tip = store.resolve_ref("HEAD")
        pos = store.commit_graph().position(tip)
    count = len(dict(chunks_of(data))[b"OIDL"]) // 20
    parents = lambda graph: graph.commit(pos)  # noqa: E731
    bad = {
        "parent": (_cdat_slot(data, pos, 0, count), parents,
                   f"parent position {count} out of range"),
        "second parent": (_cdat_slot(data, pos, 1, count + 3), parents,
                          f"parent position {count + 3} out of range"),
        "second parent without a first": (_cdat_slot(data, pos, 0, 0x70000000), parents,
                                          "second parent without a first"),
        "EDGE index": (_cdat_slot(data, pos, 1, 0x80000000 | 5), parents,
                       "EDGE index 5 out of range"),
        "BIDX offset": (
            _with_chunk(
                data, b"BIDX",
                lambda d: d[: 4 * pos] + struct.pack(">I", 10**6) + d[4 * pos + 4 :],
            ),
            lambda graph: graph.rules_out(pos, path_keys(b"x")),
            "Bloom filter ",
        ),
    }
    for what, (file, read, message) in bad.items():
        graph = CommitGraph(file, what)  # the file itself loads
        with pytest.raises(RepositoryError,
                           match=re.escape(f"corrupt commit-graph {what}: {message}")):
            read(graph)


@pytest.mark.parametrize("how", ["no filters", "hash version 2", "12 hashes", "empty filters"])
def test_unusable_filters_give_the_steps_of_no_graph(converted, tmp_path, how):
    repo = str(tmp_path / "repo.git")
    shutil.copytree(converted["merge"], repo)
    data = read_bytes(graph_path(repo))
    if how == "no filters":
        file = assemble([(c, d) for c, d in chunks_of(data) if c not in (b"BIDX", b"BDAT")])
    elif how == "empty filters":
        count = len(dict(chunks_of(data))[b"OIDL"]) // 20
        file = _with_chunk(
            _with_chunk(data, b"BIDX", lambda d: bytes(4 * count)),
            b"BDAT", lambda d: d[:12],
        )
    else:
        header = struct.pack(">III", *((2, 7, 10) if how == "hash version 2" else (1, 12, 10)))
        file = _with_chunk(data, b"BDAT", lambda d: header + d[12:])
    graph = CommitGraph(file, how)
    keys = path_keys(b"no/such/path")
    assert not any(graph.rules_out(pos, keys) for pos in range(graph.count))

    def steps(path: str) -> list:
        with ObjectStore(repo) as store:
            return follow(store, path, TrackerConfig(threshold=50), caches=FollowCaches())

    paths = ["main.txt", "side.txt", "README", "Person#public_int_getLength().mjava"]
    with_graph = [steps(p) for p in paths]
    os.remove(graph_path(repo))
    assert [steps(p) for p in paths] == with_graph
    with open(graph_path(repo), "wb") as f:
        f.write(file)
    assert [steps(p) for p in paths] == with_graph


def test_a_corrupt_first_parent_that_the_skip_reaches_raises(merge_graph, tmp_path):
    repo, data = merge_graph
    with ObjectStore(repo) as store:
        graph = store.commit_graph()
        tip = graph.position(store.resolve_ref("HEAD"))
        first = graph.position(graph.commit(tip)[1][0])
        keys = path_keys(b"README")
        # The merge and its first parent both leave README alone, and the
        # root is where the skip stops.
        assert graph.rules_out(tip, keys) and graph.rules_out(first, keys)
        root = graph.skip(tip, keys)
        assert graph.commit(root)[1] == [] and root not in (tip, first)
    count = len(dict(chunks_of(data))[b"OIDL"]) // 20
    bad = _cdat_slot(data, first, 0, count)
    with pytest.raises(RepositoryError, match=f"corrupt commit-graph .*parent position {count}"):
        CommitGraph(bad, "bad").skip(tip, keys)
    copy = str(tmp_path / "copy.git")
    shutil.copytree(repo, copy)
    os.chmod(graph_path(copy), 0o644)
    with open(graph_path(copy), "wb") as f:
        f.write(bad)
    with ObjectStore(copy) as store:
        with pytest.raises(RepositoryError, match="corrupt commit-graph"):
            follow(store, "README", TrackerConfig(), caches=FollowCaches())


def _cdat_levels(data: bytes, level: int) -> bytes:
    """The file with every commit's topological level set to level; the
    date bits beside it are kept."""
    def edit(cdat: bytes) -> bytes:
        out = bytearray(cdat)
        for pos in range(len(cdat) // 36):
            (word,) = struct.unpack_from(">I", cdat, pos * 36 + 28)
            struct.pack_into(">I", out, pos * 36 + 28, level << 2 | word & 3)
        return bytes(out)
    return _with_chunk(data, b"CDAT", edit)


@pytest.fixture
def three_commits(tmp_path) -> tuple[str, list[str], bytes]:
    """A linear history of three commits in which only b.txt changes, with
    its commit-graph: (repository, ids oldest first, graph bytes)."""
    repo = str(tmp_path / "r.git")
    ids = build_linear_repo(repo, [{"a.txt": b"a\n", "b.txt": b"%d\n" % i} for i in range(3)])
    path = write_commit_graph(repo)
    os.chmod(path, 0o644)
    return repo, ids, read_bytes(path)


@contextmanager
def _within(seconds: int):
    """Fail the test if its block has not ended in time, as a walk that
    loops would not."""
    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _follow(repo: str, path: str = "a.txt") -> list:
    with ObjectStore(repo) as store:
        return follow(store, path, TrackerConfig(), caches=FollowCaches())


def test_a_first_parent_cycle_raises_instead_of_looping(three_commits):
    repo, ids, data = three_commits
    graph = CommitGraph(data, "good")
    _, middle, tip = (graph.position(oid) for oid in ids)
    # The middle commit's first parent becomes the tip, whose first parent
    # is the middle one: a cycle that the skip follows, as only b.txt
    # changes.
    bad = _cdat_slot(data, middle, 0, tip)
    message = f"corrupt commit-graph .*parent position {tip} is not below position {middle}"
    with open(graph_path(repo), "wb") as f:
        f.write(bad)
    with _within(10):
        with pytest.raises(RepositoryError, match=message):
            CommitGraph(bad, "bad").skip(tip, path_keys(b"a.txt"))
        with pytest.raises(RepositoryError, match=message):
            CommitGraph(bad, "bad").commit(middle)
        with pytest.raises(RepositoryError, match="corrupt commit-graph"):
            _follow(repo)


@pytest.mark.parametrize("level", [0, 0x3FFFFFFF], ids=["no levels", "capped"])
def test_a_cycle_the_level_check_misses_still_raises(three_commits, capsys, level):
    repo, ids, data = three_commits
    graph = CommitGraph(data, "good")
    _, middle, tip = (graph.position(oid) for oid in ids)
    # The cycle of test_a_first_parent_cycle_raises_instead_of_looping,
    # among commits whose levels are exempt from the parent-level check.
    bad = _cdat_levels(_cdat_slot(data, middle, 0, tip), level)
    cyclic = CommitGraph(bad, "bad")
    assert cyclic.commit(middle)[1] == [ids[2]]
    with open(graph_path(repo), "wb") as f:
        f.write(bad)
    with _within(10):
        # a.txt never changes, so the skip goes round; b.txt changes in
        # every commit, so follow's own steps do.
        with pytest.raises(RepositoryError, match="corrupt commit-graph bad: .* form a cycle"):
            cyclic.skip(tip, path_keys(b"a.txt"))
        for path in ("a.txt", "b.txt"):
            with pytest.raises(RepositoryError, match="corrupt commit-graph .* form a cycle"):
                _follow(repo, path)
        code = main(["track", "--repo", repo, "--path", "b.txt", "-M", "50"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: corrupt commit-graph")
    assert "Traceback" not in err


def test_levels_zero_or_capped_are_not_checked(three_commits):
    repo, ids, data = three_commits
    steps = _follow(repo)
    assert [s.commit_id for s in steps] == [ids[0]]
    for what, level in (("no levels", 0), ("capped", 0x3FFFFFFF)):
        bad = _cdat_levels(data, level)
        graph = CommitGraph(bad, what)
        assert [graph.commit(graph.position(oid))[1] for oid in ids] == [[], ids[:1], ids[1:2]]
        with open(graph_path(repo), "wb") as f:
            f.write(bad)
        assert _follow(repo) == steps
    # Below the cap, a parent at its child's level is corrupt.
    flat = CommitGraph(_cdat_levels(data, 5), "flat")
    with pytest.raises(RepositoryError, match="not below"):
        flat.commit(flat.position(ids[1]))


@pytest.mark.parametrize("name", list(HISTORIES))
def test_skipping_by_position_gives_the_steps_of_no_graph(converted, tmp_path, name):
    repo = str(tmp_path / "repo.git")
    shutil.copytree(converted[name], repo)
    config = TrackerConfig(threshold=50, detect_copies=True)
    with ObjectStore(repo) as store:
        tip = store.read_commit(store.resolve_ref("HEAD")).tree
        paths = sorted(_flatten(store, tip, FollowCaches()))

    def steps() -> list:
        with ObjectStore(repo) as store:
            return [follow(store, p, config, caches=FollowCaches()) for p in paths]

    with_graph = steps()
    os.remove(graph_path(repo))
    assert steps() == with_graph
