"""Object-store unit tests: hashing, round-trips, packs, refs, and parsing.

Tests marked requires_git cross-check against the real git binary.
"""

from __future__ import annotations

import glob
import hashlib
import os
import random
import struct
import subprocess
import sys
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from methodgit import ObjectStore, RepoWriter
from methodgit.errors import RepositoryError
from methodgit.gitstore import (
    CommitRecord,
    _PACK_TYPES,
    _pack_entry_header,
    _pack_index,
    _PackFile,
    hash_object,
    parse_commit,
    parse_tree,
)
from methodgit.rewrite import rewrite_history

from conftest import (
    AUTHOR, build_linear_repo, build_tag_repo, build_unreadable_pack_repo, requires_git,
    write_files, write_tree_dict,
)


def git(*args: str, cwd: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout


def test_known_blob_hash():
    # printf 'what is up, doc?' | git hash-object --stdin
    assert hash_object(b"blob", b"what is up, doc?") == (
        "bd9dbf5aae1a3862dd1526723246b20206e5fc37"
    )
    # and with a trailing newline the id changes
    assert hash_object(b"blob", b"what is up, doc?\n") == (
        "7108f7ecb345ee9d0084193f147cdad4d2998293"
    )


def test_write_then_read_blob(tmp_path):
    writer = RepoWriter(str(tmp_path / "r.git"))
    writer.init_bare()
    oid = writer.write_blob(b"hello\n")
    writer.close()
    with ObjectStore(writer.path) as store:
        kind, payload = store.read(oid)
        assert (kind, payload) == ("blob", b"hello\n")


def test_tree_round_trip_and_sort_rule(tmp_path):
    writer = RepoWriter(str(tmp_path / "r.git"))
    writer.init_bare()
    blob = writer.write_blob(b"x")
    sub = writer.write_tree({b"leaf": (b"100644", blob)})
    # A directory named "foo" must sort after the file "foo.bar" because
    # trees compare as "foo/"; plain entries compare by raw name.
    tree = writer.write_tree(
        {b"foo": (b"40000", sub), b"foo.bar": (b"100644", blob), b"a": (b"100644", blob)}
    )
    writer.close()
    with ObjectStore(writer.path) as store:
        names = list(store.read_tree(tree))
        assert names == [b"a", b"foo.bar", b"foo"]


def test_commit_round_trip(tmp_path):
    writer = RepoWriter(str(tmp_path / "r.git"))
    writer.init_bare()
    tree = write_tree_dict(writer, {"f.txt": b"1\n"})
    stamp = AUTHOR % 1700000000
    cid = writer.write_commit(
        tree=tree,
        parents=[],
        author=stamp,
        committer=stamp,
        message=b"first\n",
        encoding=b"ISO-8859-1",
    )
    writer.close()
    with ObjectStore(writer.path) as store:
        record = store.read_commit(cid)
        assert record.tree == tree
        assert record.parents == []
        assert record.author == stamp
        assert record.encoding == b"ISO-8859-1"
        assert record.message == b"first\n"
        assert record.commit_time == 1700000000


def test_refs_and_head(tmp_path):
    dst = str(tmp_path / "r.git")
    ids = build_linear_repo(dst, [{"a": b"1\n"}, {"a": b"2\n"}])
    with ObjectStore(dst) as store:
        refs = store.refs()
        assert refs["refs/heads/master"] == ids[-1]
        assert store.head_target() == ("ref", "refs/heads/master")
        assert store.resolve_ref("master") == ids[-1]
        assert store.resolve_ref("refs/heads/master") == ids[-1]
        assert store.resolve_ref("HEAD") == ids[-1]
        assert store.resolve_ref(ids[0]) == ids[0]
        assert store.resolve_ref("nope") is None


def test_loose_ref_overrides_packed(tmp_path):
    dst = str(tmp_path / "r.git")
    ids = build_linear_repo(dst, [{"a": b"1\n"}, {"a": b"2\n"}])
    loose = os.path.join(dst, "refs", "heads", "master")
    os.makedirs(os.path.dirname(loose), exist_ok=True)
    with open(loose, "w") as f:
        f.write(ids[0] + "\n")
    with ObjectStore(dst) as store:
        assert store.refs()["refs/heads/master"] == ids[0]


def test_init_bare_refuses_non_empty(tmp_path):
    target = tmp_path / "busy"
    target.mkdir()
    (target / "junk").write_text("x")
    writer = RepoWriter(str(target))
    with pytest.raises(RepositoryError):
        writer.init_bare()


def _pack_ids(store: ObjectStore) -> list[str]:
    """The ids that the store's pack indices list."""
    return [
        pack._names[i : i + 20].hex()
        for pack in store._load_packs()
        for i in range(0, len(pack._names), 20)
    ]


def test_converted_objects_read_back_and_rehash(person_repo, tmp_path):
    dst = str(tmp_path / "dst.git")
    rewrite_history(person_repo, dst)
    assert len(os.listdir(os.path.join(dst, "objects", "pack"))) == 2
    with ObjectStore(dst) as store:
        oids = _pack_ids(store)
        assert len(oids) > 5
        for oid in oids:
            kind, payload = store.read(oid)
            assert hash_object(kind.encode(), payload) == oid


def test_empty_writer_leaves_no_pack(tmp_path):
    with RepoWriter(str(tmp_path / "r.git")) as writer:
        writer.init_bare()
    assert os.listdir(os.path.join(writer.path, "objects", "pack")) == []


def test_exception_in_writer_publishes_nothing(tmp_path):
    with pytest.raises(KeyError):
        with RepoWriter(str(tmp_path / "r.git")) as writer:
            writer.init_bare()
            writer.write_blob(b"x\n")
            raise KeyError("conversion failed")
    assert os.listdir(os.path.join(writer.path, "objects", "pack")) == []


def test_repeated_object_is_written_once(tmp_path):
    with RepoWriter(str(tmp_path / "r.git")) as writer:
        writer.init_bare()
        first = writer.write_blob(b"same\n")
        assert writer.write_blob(b"same\n") == first
        writer.write_blob(b"other\n")
    with ObjectStore(writer.path) as store:
        assert sorted(_pack_ids(store)) == sorted([first, hash_object(b"blob", b"other\n")])
        assert store.read(first) == ("blob", b"same\n")


def test_pack_index_offsets_of_2_gib_and_above_round_trip(tmp_path):
    # Ids spread over the fanout table, small and 64-bit offsets mixed.
    offsets = {
        bytes([first]) + bytes([n]) * 19: offset
        for n, (first, offset) in enumerate([
            (0x00, 12),
            (0x00, 2**31 - 1),
            (0x7F, 2**31),
            (0x80, 300),
            (0xFF, 2**40 + 5),
            (0xFF, 2**33),
        ])
    }
    pack_sha = bytes(range(20))
    index = _pack_index({oid: (offset, 0) for oid, offset in offsets.items()}, pack_sha)
    # Three offsets take a 64-bit slot each.
    assert len(index) == 8 + 1024 + len(offsets) * 28 + 3 * 8 + 40
    pack_path = tmp_path / "pack-test.pack"
    pack_path.write_bytes(b"PACK" + bytes(8) + pack_sha)
    (tmp_path / "pack-test.idx").write_bytes(index)
    pack = _PackFile(str(pack_path))
    try:
        for oid, offset in offsets.items():
            assert pack.find(oid) == offset
        assert pack.find(b"\x7f" + b"\x00" * 19) is None
        assert pack.find(b"\xfe" * 20) is None
    finally:
        pack.close()


def test_delta_cycles_raise_repository_error(tmp_path):
    # a and b are REF_DELTAs naming each other as base; c is an OFS_DELTA
    # whose base offset is its own.
    a, b, c = (bytes([n]) * 20 for n in (1, 2, 3))
    delta = zlib.compress(b"\x00\x00")
    bodies = [
        (a, _pack_entry_header(7, 2) + b + delta),
        (b, _pack_entry_header(7, 2) + a + delta),
        (c, _pack_entry_header(6, 2) + b"\x00" + delta),
    ]
    pack = bytearray(b"PACK" + struct.pack(">II", 2, len(bodies)))
    entries = {}
    for oid, body in bodies:
        entries[oid] = (len(pack), zlib.crc32(body))
        pack += body
    trailer = hashlib.sha1(pack).digest()
    repo = tmp_path / "r.git"
    (repo / "objects" / "pack").mkdir(parents=True)
    (repo / "HEAD").write_text("ref: refs/heads/master\n")
    (repo / "objects" / "pack" / "pack-x.pack").write_bytes(pack + trailer)
    (repo / "objects" / "pack" / "pack-x.idx").write_bytes(_pack_index(entries, trailer))
    with ObjectStore(str(repo)) as store:
        for oid in (a, c):
            with pytest.raises(RepositoryError, match=f"corrupt object {oid.hex()}"):
                store.read(oid.hex())


def test_parse_commit_skips_signature_lines():
    payload = (
        b"tree 4b825dc642cb6eb9a060e54bf8d69288fbee4904\n"
        b"parent 1111111111111111111111111111111111111111\n"
        b"author A <a@b.c> 1700000000 +0000\n"
        b"committer A <a@b.c> 1700000001 +0000\n"
        b"gpgsig -----BEGIN PGP SIGNATURE-----\n"
        b" abcdef\n"
        b" -----END PGP SIGNATURE-----\n"
        b"\n"
        b"signed message\n"
    )
    record = parse_commit("0" * 40, payload)
    assert record.parents == [b"1111111111111111111111111111111111111111".decode()]
    assert record.message == b"signed message\n"
    assert record.encoding is None
    assert record.commit_time == 1700000001


def test_parse_commit_keeps_multiline_message():
    payload = (
        b"tree 4b825dc642cb6eb9a060e54bf8d69288fbee4904\n"
        b"author A <a@b.c> 5 +0000\n"
        b"committer A <a@b.c> 5 +0000\n"
        b"\n"
        b"subject\n\nbody line\n"
    )
    record = parse_commit("0" * 40, payload)
    assert record.message == b"subject\n\nbody line\n"


def test_commit_record_time_fallback():
    record = CommitRecord(
        id="0" * 40,
        tree="",
        parents=[],
        author=b"",
        committer=b"garbage",
        encoding=None,
        message=b"",
    )
    assert record.commit_time == 0


def test_missing_object_raises(tmp_path):
    dst = str(tmp_path / "r.git")
    build_linear_repo(dst, [{"a": b"1\n"}])
    with ObjectStore(dst) as store:
        with pytest.raises(RepositoryError):
            store.read("f" * 40)


def test_corrupt_loose_object_raises_repository_error(tmp_path):
    dst = str(tmp_path / "r.git")
    build_linear_repo(dst, [{"a": b"1\n", "b": b"2\n"}])
    # Packs are read first, so the corrupt loose objects take ids that the
    # repository's pack does not hold.
    bad_zlib = hash_object(b"blob", b"3\n")
    no_header = hash_object(b"blob", b"4\n")
    wrong_size = hash_object(b"blob", b"5\n")
    for oid, data in (
        (bad_zlib, b"not zlib data"),
        (no_header, zlib.compress(b"blob 2")),
        (wrong_size, zlib.compress(b"blob 3\x005\n")),
    ):
        _write_loose(dst, oid, data)
    with ObjectStore(dst) as store:
        for oid in (bad_zlib, no_header, wrong_size):
            with pytest.raises(RepositoryError, match=oid):
                store.read(oid)


def _write_loose(repo: str, oid: str, data: bytes) -> None:
    os.makedirs(os.path.join(repo, "objects", oid[:2]), exist_ok=True)
    with open(os.path.join(repo, "objects", oid[:2], oid[2:]), "wb") as f:
        f.write(data)


def test_size_matches_the_payload_of_loose_and_whole_packed_objects(tmp_path):
    dst = str(tmp_path / "r.git")
    build_linear_repo(dst, [{"a/b.txt": b"1\n" * 500, "empty": b""}])
    loose_payload = b"loose\n" * 7
    loose = hash_object(b"blob", loose_payload)
    _write_loose(dst, loose, zlib.compress(b"blob %d\x00" % len(loose_payload) + loose_payload))
    with ObjectStore(dst) as store:
        oids = _pack_ids(store) + [loose]
        # Before any read, so no size comes from the cache of read trees
        # and commits.
        sizes = [store.size(oid) for oid in oids]
    with ObjectStore(dst) as store:
        assert sizes == [len(store.read(oid)[1]) for oid in oids]
        assert 1000 in sizes and 0 in sizes


def test_size_of_a_missing_or_malformed_object_raises_repository_error(tmp_path):
    dst = str(tmp_path / "r.git")
    build_linear_repo(dst, [{"a": b"1\n"}])
    loose = {
        hash_object(b"blob", b"loose %d\n" % n): data
        for n, data in enumerate([
            b"not zlib data",
            zlib.compress(b"blob 2"),
            zlib.compress(b"blob x\x00ab"),
            zlib.compress(b"blob +2\x00ab"),
        ])
    }
    for oid, data in loose.items():
        _write_loose(dst, oid, data)
    # A second pack: an unknown object type, an OFS_DELTA whose delta data
    # is not zlib, one whose delta data ends inside its sizes, and last an
    # entry header cut off by the end of the file.
    bodies = [
        _pack_entry_header(5, 2) + zlib.compress(b"ab"),
        _pack_entry_header(6, 4) + b"\x01" + b"not zlib",
        _pack_entry_header(6, 1) + b"\x01" + zlib.compress(b"\x80"),
        b"\xb5",
    ]
    pack = bytearray(b"PACK" + struct.pack(">II", 2, len(bodies)))
    entries = {}
    for n, body in enumerate(bodies):
        entries[bytes([0xF0 + n]) * 20] = (len(pack), zlib.crc32(body))
        pack += body
    pack_dir = os.path.join(dst, "objects", "pack")
    with open(os.path.join(pack_dir, "pack-x.pack"), "wb") as f:
        f.write(pack)
    with open(os.path.join(pack_dir, "pack-x.idx"), "wb") as f:
        f.write(_pack_index(entries, bytes(20)))
    with ObjectStore(dst) as store:
        for oid in ["f" * 40, *loose, *(name.hex() for name in entries)]:
            for method in (store.size, store.read):
                with pytest.raises(RepositoryError, match=oid):
                    method(oid)


@pytest.mark.parametrize(
    "bad_entry",
    [
        pytest.param(b"100644 a\x00" + b"\x01" * 7, id="truncated-id"),
        pytest.param(b"100844 a\x00" + b"\x01" * 20, id="non-octal-mode"),
        pytest.param(b"100644 \x00" + b"\x01" * 20, id="empty-name"),
        # A name with a slash, which git fsck reports as fullPathname.
        pytest.param(b"100644 a/b\x00" + b"\x01" * 20, id="slash-in-name"),
        # A name that occurs twice, which git fsck reports as duplicateEntries.
        pytest.param(b"100644 a\x00" + b"\x01" * 20 + b"40000 a\x00" + b"\x03" * 20,
                     id="duplicate-name"),
    ],
)
def test_malformed_tree_raises_repository_error(tmp_path, bad_entry):
    good_entry = b"100644 ok\x00" + b"\x02" * 20
    for payload in (bad_entry, good_entry + bad_entry):
        with pytest.raises(ValueError):
            parse_tree(payload)
    assert parse_tree(good_entry) == {b"ok": (b"100644", "02" * 20)}
    with RepoWriter(str(tmp_path / "r.git")) as writer:
        writer.init_bare()
        tree = writer.write_object(b"tree", good_entry + bad_entry)
    with ObjectStore(writer.path) as store:
        with pytest.raises(RepositoryError, match=f"corrupt tree {tree}"):
            store.read_tree(tree)


def _one_entry_pack(path: str, oid: str, body: bytes) -> None:
    """A bare repository at path whose one pack holds body as oid's entry."""
    with RepoWriter(path) as writer:
        writer.init_bare()
    pack = b"PACK" + struct.pack(">II", 2, 1) + body
    pack_sha = hashlib.sha1(pack).digest()
    entries = {bytes.fromhex(oid): (12, zlib.crc32(body))}
    write_files(path, {
        "objects/pack/pack-x.pack": pack + pack_sha,
        "objects/pack/pack-x.idx": _pack_index(entries, pack_sha),
    })


def test_stream_longer_than_the_first_slice_inflates_through_the_loop(tmp_path, monkeypatch):
    # Empty stored blocks after a full flush keep the stream valid but make
    # it longer than the slice sized from the entry header, so the one-call
    # inflate fails and the incremental loop reads the rest.
    payload = b"class A {}\n" * 20
    c = zlib.compressobj()
    head = c.compress(payload) + c.flush(zlib.Z_FULL_FLUSH)
    stream = head + b"\x00\x00\x00\xff\xff" * 200 + c.flush()
    assert zlib.decompress(stream) == payload
    assert len(stream) > 2 * len(payload)
    oid = hash_object(b"blob", payload)
    _one_entry_pack(str(tmp_path / "r.git"), oid, _pack_entry_header(3, len(payload)) + stream)
    loops = []
    decompressobj = zlib.decompressobj

    def counting() -> object:
        loops.append(1)
        return decompressobj()

    monkeypatch.setattr(zlib, "decompressobj", counting)
    with ObjectStore(str(tmp_path / "r.git")) as store:
        assert store.read(oid) == ("blob", payload)
    assert loops == [1]


def test_header_claiming_a_huge_object_raises_repository_error(tmp_path):
    # No output buffer is sized from the entry header: a header that
    # claims 2**40 bytes ends in a size mismatch, not a MemoryError.
    oid = hash_object(b"blob", b"ab")
    _one_entry_pack(str(tmp_path / "r.git"), oid, _pack_entry_header(3, 2**40) + zlib.compress(b"ab"))
    with ObjectStore(str(tmp_path / "r.git")) as store:
        with pytest.raises(RepositoryError, match=f"corrupt object {oid}"):
            store.read(oid)


_TREE_MODES = (b"100644", b"100755", b"40000", b"120000", b"160000")
_tree_entries = st.tuples(
    st.sampled_from(_TREE_MODES + (b"0", b"8", b"")),
    st.one_of(st.binary(max_size=6), st.sampled_from([b"a/b", b"/", b"a/"])),
    st.binary(min_size=18, max_size=22),
).map(lambda e: e[0] + b" " + e[1] + b"\x00" + e[2])


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=80), st.lists(_tree_entries, max_size=4).map(b"".join)))
def test_parse_tree_returns_a_name_map_or_raises_value_error(payload):
    try:
        tree = parse_tree(payload)
    except ValueError:
        return
    assert type(tree) is dict
    for name, (mode, oid) in tree.items():
        assert name and b"\x00" not in name and b"/" not in name and mode.isdigit()
        assert len(bytes.fromhex(oid)) == 20


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(
    st.binary(min_size=1, max_size=8).filter(lambda name: b"\x00" not in name and b"/" not in name),
    st.tuples(st.sampled_from(_TREE_MODES), st.binary(min_size=20, max_size=20).map(bytes.hex)),
    max_size=6,
))
def test_written_tree_reads_back_as_its_name_map(entries):
    with tempfile.TemporaryDirectory() as tmp:
        with RepoWriter(tmp) as writer:
            writer.init_bare()
            tree = writer.write_tree(entries)
        with ObjectStore(tmp) as store:
            assert store.read_tree(tree) == entries


def test_an_unreadable_pack_fails_every_read_alike(tmp_path):
    # Every read fails with the same error naming the pack, and the pack
    # file is not left open (tier-1 turns a ResourceWarning into an error).
    repo = str(tmp_path / "r.git")
    head = build_unreadable_pack_repo(repo)
    messages = []
    with ObjectStore(repo) as store:
        for _ in range(2):
            with pytest.raises(RepositoryError) as info:
                store.read(head)
            messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "cannot open pack" in messages[0] and "pack-0000.pack" in messages[0]


def test_discover_rejects_non_repo(tmp_path):
    with pytest.raises(RepositoryError):
        ObjectStore(str(tmp_path / "nothing-here"))


@requires_git
def test_written_objects_satisfy_git_fsck(tmp_path):
    dst = str(tmp_path / "r.git")
    build_linear_repo(dst, [{"a/b.txt": b"1\n"}, {"a/b.txt": b"2\n"}])
    result = subprocess.run(
        ["git", "fsck", "--strict"], cwd=dst, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.strip() == ""


@requires_git
def test_git_lists_exactly_the_written_objects_undeltified(person_repo, tmp_path, monkeypatch):
    written = set()
    original = RepoWriter.write_object

    def recording(self, kind, payload):
        oid = original(self, kind, payload)
        written.add(oid)
        return oid

    monkeypatch.setattr(RepoWriter, "write_object", recording)
    dst = str(tmp_path / "dst.git")
    rewrite_history(person_repo, dst)
    listed = git("cat-file", "--batch-check", "--batch-all-objects", cwd=dst)
    assert {line.split()[0] for line in listed.splitlines()} == written
    (idx,) = glob.glob(os.path.join(dst, "objects", "pack", "*.idx"))
    # verify-pack -v: id, type, size, packed size, offset (and depth and
    # base id for a delta), then a summary.
    rows = [
        fields for fields in map(str.split, git("verify-pack", "-v", idx, cwd=dst).splitlines())
        if len(fields) >= 5 and fields[1] in ("blob", "tree", "commit", "tag")
    ]
    assert {fields[0] for fields in rows} == written
    assert all(len(fields) == 5 for fields in rows)
    counts = dict(
        line.split(": ", 1) for line in git("count-objects", "-v", cwd=dst).splitlines()
    )
    assert (counts["count"], counts["packs"]) == ("0", "1")
    fsck = subprocess.run(["git", "fsck", "--strict"], cwd=dst, capture_output=True, text=True)
    assert fsck.returncode == 0, fsck.stderr


def _frame_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _delta_chain_repo(tmp_path, *pack_args: str):
    """A bare repository whose one pack holds 80 versions of a file, each
    changing a few lines of the one before, so git deltas each against its
    neighbour and the versions form a chain.  pack_args go to
    pack-objects."""
    repo = tmp_path / "r.git"
    git("init", "-q", "--bare", str(repo), cwd=str(tmp_path))
    rng = random.Random(1)
    lines = [f"line {i} of the payload {rng.random()}\n" for i in range(300)]
    paths = []
    for k in range(80):
        for _ in range(8):
            lines[rng.randrange(len(lines))] = f"changed {k} {rng.random()}\n"
        lines.append(f"tail {k}\n")
        path = tmp_path / f"v{k}"
        path.write_text("".join(lines))
        paths.append(str(path))
    oids = subprocess.run(
        ["git", "hash-object", "-w", "--stdin-paths"], cwd=str(repo),
        input="".join(p + "\n" for p in paths), check=True, capture_output=True, text=True,
    ).stdout
    subprocess.run(
        ["git", "pack-objects", "-q", "--depth=4095", "--window=250", *pack_args,
         "objects/pack/pack"],
        cwd=str(repo), input=oids, check=True, capture_output=True, text=True,
    )
    git("prune-packed", cwd=str(repo))
    return repo


@requires_git
def test_delta_chain_deeper_than_the_recursion_limit(tmp_path):
    repo = _delta_chain_repo(tmp_path)
    (idx,) = (repo / "objects" / "pack").glob("*.idx")
    # verify-pack -v: id, type, size, packed size, offset, depth, base id
    depth, deepest = max(
        (int(fields[5]), fields[0])
        for fields in map(str.split, git("verify-pack", "-v", str(idx), cwd=str(repo)).splitlines())
        if len(fields) == 7
    )
    assert depth >= 30
    with ObjectStore(str(repo)) as store:
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_frame_depth() + depth // 2)
        try:
            kind, payload = store.read(deepest)
        finally:
            sys.setrecursionlimit(limit)
    assert hash_object(kind.encode(), payload) == deepest


def _fail_if_called(*args):
    raise AssertionError("a payload was inflated")


@requires_git
def test_size_of_ofs_deltas_inflates_no_payload(tmp_path, monkeypatch):
    repo = _delta_chain_repo(tmp_path, "--delta-base-offset")
    with ObjectStore(str(repo)) as store:
        oids = _pack_ids(store)
        (pack,) = store._load_packs()
        types = {pack._read_varint_header(pack.find(bytes.fromhex(oid)))[0] for oid in oids}
        assert 6 in types  # OFS_DELTA
        want = {oid: len(store.read(oid)[1]) for oid in oids}
    monkeypatch.setattr(_PackFile, "_inflate", _fail_if_called)
    monkeypatch.setattr("methodgit.gitstore._apply_delta", _fail_if_called)
    with ObjectStore(str(repo)) as store:
        assert {oid: store.size(oid) for oid in oids} == want


@requires_git
def test_read_workdir_repository(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    git("init", "-q", cwd=str(work))
    git("config", "user.email", "t@e.st", cwd=str(work))
    git("config", "user.name", "T", cwd=str(work))
    (work / "hello.txt").write_text("hi\n")
    git("add", ".", cwd=str(work))
    git("commit", "-q", "-m", "one", cwd=str(work))
    head = git("rev-parse", "HEAD", cwd=str(work)).strip()
    with ObjectStore(str(work)) as store:
        record = store.read_commit(head)
        assert record.message == b"one\n"


@requires_git
def test_read_packed_objects_with_deltas(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    git("init", "-q", cwd=str(work))
    git("config", "user.email", "t@e.st", cwd=str(work))
    git("config", "user.name", "T", cwd=str(work))
    base = "\n".join(f"line {i} of the payload" for i in range(400)) + "\n"
    for i in range(6):
        (work / "big.txt").write_text(base + f"tail {i}\n")
        (work / f"side{i}.txt").write_text(f"side {i}\n")
        git("add", ".", cwd=str(work))
        git("commit", "-q", "-m", f"c{i}", cwd=str(work))
    git("repack", "-adq", cwd=str(work))
    oids = [
        line.split()[0]
        for line in git("rev-list", "--objects", "--all", cwd=str(work)).splitlines()
    ]
    assert len(oids) > 10
    with ObjectStore(str(work)) as store:
        for oid in oids:
            kind, payload = store.read(oid)
            # Re-hashing proves the inflate/delta path reproduced the object.
            assert hash_object(kind.encode(), payload) == oid


@requires_git
def test_truncated_pack_raises_repository_error(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    git("init", "-q", cwd=str(work))
    git("config", "user.email", "t@e.st", cwd=str(work))
    git("config", "user.name", "T", cwd=str(work))
    for i in range(6):
        (work / f"f{i}.txt").write_text(f"payload {i}\n" * 50)
        git("add", ".", cwd=str(work))
        git("commit", "-q", "-m", f"c{i}", cwd=str(work))
    git("repack", "-adq", cwd=str(work))
    oids = [
        line.split()[0]
        for line in git("rev-list", "--objects", "--all", cwd=str(work)).splitlines()
    ]
    pack_dir = work / ".git" / "objects" / "pack"
    (pack,) = pack_dir.glob("*.pack")
    data = pack.read_bytes()
    pack.write_bytes(data[: len(data) // 2])
    with ObjectStore(str(work)) as store:
        failed = 0
        for oid in oids:
            try:
                kind, payload = store.read(oid)
            except RepositoryError as exc:
                assert oid in str(exc)
                failed += 1
                continue
            assert hash_object(kind.encode(), payload) == oid
    assert failed > 0


def _ref_delta_outside_the_pack(tmp_path):
    """A bare repository with two blobs, one a REF_DELTA against the other,
    in a pack whose index lists only the delta, and no loose objects; so
    the delta's base is found in no pack.  (repo, delta id, base id)."""
    repo = tmp_path / "r.git"
    git("init", "-q", "--bare", str(repo), cwd=str(tmp_path))
    base = "\n".join(f"line {i} of the payload" for i in range(400)) + "\n"
    (tmp_path / "a").write_text(base)
    (tmp_path / "b").write_text(base + "tail\n")
    oids = [git("hash-object", "-w", str(tmp_path / name), cwd=str(repo)).strip()
            for name in ("a", "b")]
    # Without offset deltas, git names each delta's base by id (REF_DELTA).
    subprocess.run(
        ["git", "pack-objects", "--no-delta-base-offset", "objects/pack/pack"],
        cwd=str(repo), input="".join(oid + "\n" for oid in oids),
        check=True, capture_output=True, text=True,
    )
    (idx,) = (repo / "objects" / "pack").glob("*.idx")
    # verify-pack -v: id, type, size, packed size, offset, depth, base id
    listing = git("verify-pack", "-v", str(idx), cwd=str(repo))
    (delta, delta_base) = next(
        (fields[0], fields[6])
        for fields in map(str.split, listing.splitlines())
        if len(fields) == 7
    )
    for oid in oids:
        os.remove(repo / "objects" / oid[:2] / oid[2:])
    with ObjectStore(str(repo)) as store:
        kind, payload = store.read(delta)
        assert hash_object(kind.encode(), payload) == delta

    (pack,) = (repo / "objects" / "pack").glob("*.pack")
    data = pack.read_bytes()
    fields = next(f for f in map(str.split, listing.splitlines()) if f and f[0] == delta)
    size, offset = int(fields[3]), int(fields[4])
    only_delta = {bytes.fromhex(delta): (offset, zlib.crc32(data[offset : offset + size]))}
    os.chmod(idx, 0o644)
    idx.write_bytes(_pack_index(only_delta, data[-20:]))
    (repo / "objects" / delta_base[:2]).mkdir(exist_ok=True)
    return repo, delta, delta_base


@requires_git
def test_ref_delta_with_unknown_base_type_raises_repository_error(tmp_path):
    repo, delta, delta_base = _ref_delta_outside_the_pack(tmp_path)
    # The base is found only as a loose object, of a type that no pack
    # object can have.
    (repo / "objects" / delta_base[:2] / delta_base[2:]).write_bytes(
        zlib.compress(b"bogus 3\x00abc")
    )
    with ObjectStore(str(repo)) as store:
        with pytest.raises(RepositoryError, match=f"corrupt object {delta}"):
            store.read(delta)


@requires_git
def test_size_of_a_ref_delta_whose_base_is_outside_the_pack(tmp_path, monkeypatch):
    repo, delta, delta_base = _ref_delta_outside_the_pack(tmp_path)
    git("hash-object", "-w", str(tmp_path / "a"), str(tmp_path / "b"), cwd=str(repo))
    with ObjectStore(str(repo)) as store:
        kind, payload = store.read(delta)
        assert hash_object(kind.encode(), payload) == delta
    monkeypatch.setattr(_PackFile, "_inflate", _fail_if_called)
    monkeypatch.setattr(ObjectStore, "read", _fail_if_called)
    with ObjectStore(str(repo)) as store:
        assert store.size(delta) == len(payload)


@requires_git
def test_peel_annotated_tag(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    git("init", "-q", cwd=str(work))
    git("config", "user.email", "t@e.st", cwd=str(work))
    git("config", "user.name", "T", cwd=str(work))
    (work / "f").write_text("x\n")
    git("add", ".", cwd=str(work))
    git("commit", "-q", "-m", "one", cwd=str(work))
    git("tag", "-a", "v1", "-m", "release", cwd=str(work))
    head = git("rev-parse", "HEAD", cwd=str(work)).strip()
    with ObjectStore(str(work)) as store:
        tag_oid = store.resolve_ref("v1")
        assert tag_oid is not None
        assert store.read(tag_oid)[0] == "tag"
        assert store.peel_to_commit(tag_oid).id == head


@pytest.mark.parametrize("target", [b"cd", b"\xff", b"cd" * 19 + b"\xff\xfe", b"g" * 40],
                         ids=["short", "not-utf8", "not-utf8-40", "not-hex"])
def test_tag_with_a_malformed_object_id_raises_repository_error(tmp_path, target):
    src = str(tmp_path / "src.git")
    tag = build_tag_repo(src, target)
    with ObjectStore(src) as store:
        with pytest.raises(RepositoryError, match="malformed object id"):
            store.peel_to_commit(tag)


@pytest.mark.parametrize(
    "oid",
    ["cd", "", "cd" + "0" * 37, "cd" + "0" * 39, "g" * 40, "\xff" * 40, "cd" * 20 + " ",
     " " + "cd" * 19 + "0"],
    ids=["fan-out-dir", "empty", "39-digits", "41-digits", "not-hex", "not-ascii",
         "trailing-space", "inner-space"],
)
def test_read_and_size_reject_a_malformed_id(tmp_path, oid):
    src = str(tmp_path / "src.git")
    build_tag_repo(src, b"0" * 40)
    with ObjectStore(src) as store:
        for call in (store.read, store.size):
            with pytest.raises(RepositoryError, match="malformed object id"):
                call(oid)
        assert not store.contains(oid)


@requires_git
def test_gitfile_worktree_discovery(tmp_path):
    gitdir = tmp_path / "store.git"
    work = tmp_path / "work"
    work.mkdir()
    git(
        "init", "-q", f"--separate-git-dir={gitdir}", str(work),
        cwd=str(tmp_path),
    )
    git("config", "user.email", "t@e.st", cwd=str(work))
    git("config", "user.name", "T", cwd=str(work))
    (work / "f").write_text("x\n")
    git("add", ".", cwd=str(work))
    git("commit", "-q", "-m", "one", cwd=str(work))
    head = git("rev-parse", "HEAD", cwd=str(work)).strip()
    with ObjectStore(str(work)) as store:
        assert store.read_commit(head).message == b"one\n"


def _varint(n: int) -> bytes:
    """A delta's size: 7 bits per byte, least significant first."""
    out = bytearray()
    while n > 0x7F:
        out.append(0x80 | (n & 0x7F))
        n >>= 7
    out.append(n)
    return bytes(out)


def _append_delta(base: bytes, suffix: bytes) -> bytes:
    """Delta data that copies all of base, then inserts suffix."""
    assert 0 < len(base) < 0x10000 and 0 < len(suffix) < 0x80
    copy = bytes([0x80 | 0x10 | 0x20, len(base) & 0xFF, len(base) >> 8])
    return _varint(len(base)) + _varint(len(base) + len(suffix)) + copy + bytes([len(suffix)]) + suffix


def _ofs(rel: int) -> bytes:
    """An OFS_DELTA's distance back to its base, as git encodes it."""
    out = [rel & 0x7F]
    rel >>= 7
    while rel:
        rel -= 1
        out.append(0x80 | (rel & 0x7F))
        rel >>= 7
    return bytes(reversed(out))


def _fuzz_repository() -> tuple[dict[str, bytes], list[tuple[str, str, int, int]]]:
    """A bare repository as {path relative to it: bytes}, and its objects
    as (id, path, start, end) of their bytes in that file.  The pack holds
    whole objects, an OFS_DELTA chain two deep, and REF_DELTAs against a
    packed and a loose blob; three objects are loose."""
    blob = b"base line\n" * 40
    loose_blob = b"loose base\n" * 30
    tree = b"100644 a.txt\x00" + bytes.fromhex(hash_object(b"blob", blob))
    stamp = AUTHOR % 1700000000
    commit = b"tree %s\nauthor %s\ncommitter %s\n\nmsg\n" % (
        hash_object(b"tree", tree).encode(), stamp, stamp)
    pack_path = "objects/pack/pack-fuzz.pack"
    pack = bytearray(b"PACK" + struct.pack(">II", 2, 7))
    objects, entries, starts = [], {}, {}

    def add(oid: str, type_num: int, data: bytes, base_ref: bytes = b"") -> None:
        body = _pack_entry_header(type_num, len(data)) + base_ref + zlib.compress(data)
        starts[oid] = len(pack)
        entries[bytes.fromhex(oid)] = (len(pack), zlib.crc32(body))
        objects.append((oid, pack_path, len(pack), len(pack) + len(body)))
        pack.extend(body)

    for kind, payload in ((b"blob", blob), (b"tree", tree), (b"commit", commit)):
        add(hash_object(kind, payload), _PACK_TYPES[kind], payload)
    base = blob
    for suffix in (b"one\n", b"two\n"):
        rel = len(pack) - starts[hash_object(b"blob", base)]
        add(hash_object(b"blob", base + suffix), 6, _append_delta(base, suffix), _ofs(rel))
        base += suffix
    for base in (blob, loose_blob):
        base_id = bytes.fromhex(hash_object(b"blob", base))
        add(hash_object(b"blob", base + b"three\n"), 7, _append_delta(base, b"three\n"), base_id)
    pack_sha = hashlib.sha1(pack).digest()
    files = {
        "HEAD": b"ref: refs/heads/master\n",
        pack_path: bytes(pack) + pack_sha,
        "objects/pack/pack-fuzz.idx": _pack_index(entries, pack_sha),
    }
    for kind, payload in (
        (b"blob", loose_blob), (b"tree", tree + b"100644 b\x00" + bytes(20)), (b"commit", commit + b"2\n"),
    ):
        oid = hash_object(kind, payload)
        path = f"objects/{oid[:2]}/{oid[2:]}"
        files[path] = zlib.compress(b"%s %d\x00" % (kind, len(payload)) + payload)
        objects.append((oid, path, 0, len(files[path])))
    return files, objects


FUZZ_FILES, FUZZ_OBJECTS = _fuzz_repository()
FUZZ_IDS = [oid for oid, *_ in FUZZ_OBJECTS]


def test_fuzz_repository_reads_back():
    with tempfile.TemporaryDirectory() as tmp:
        write_files(tmp, FUZZ_FILES)
        with ObjectStore(tmp) as store:
            for oid in FUZZ_IDS:
                kind, payload = store.read(oid)
                assert hash_object(kind.encode(), payload) == oid
                assert store.size(oid) == len(payload)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_corrupt_objects_raise_only_repository_error(data):
    # One bit of one pack entry or loose object is flipped, or the file is
    # cut inside it.  Reading every object, damaged or resting on damaged
    # data, must return or raise RepositoryError.
    _, path, start, end = data.draw(st.sampled_from(FUZZ_OBJECTS))
    at = data.draw(st.integers(start, end - 1))
    files = dict(FUZZ_FILES)
    raw = bytearray(files[path])
    if data.draw(st.booleans()):
        raw[at] ^= 1 << data.draw(st.integers(0, 7))
    else:
        del raw[at:]
    files[path] = bytes(raw)
    with tempfile.TemporaryDirectory() as tmp:
        write_files(tmp, files)
        with ObjectStore(tmp) as store:
            for method in (store.size, store.read):
                for oid in FUZZ_IDS:
                    try:
                        method(oid)
                    except RepositoryError:
                        pass


def test_ref_delta_cut_inside_its_base_id_raises_repository_error():
    # Found by the fuzz test above.  A pack that ends one byte into a
    # REF_DELTA's base id made the reader look up the loose object named by
    # that byte's two hex digits, whose path is a fan-out directory.
    delta, path, start, _ = FUZZ_OBJECTS[5]
    pack = FUZZ_FILES[path]
    assert pack[start] >> 4 & 7 == 7  # REF_DELTA, with a packed base
    base_at = start + 1
    while pack[base_at - 1] & 0x80:
        base_at += 1
    files = {**FUZZ_FILES, path: pack[: base_at + 1]}
    with tempfile.TemporaryDirectory() as tmp:
        write_files(tmp, files)
        os.makedirs(os.path.join(tmp, "objects", pack[base_at : base_at + 1].hex()), exist_ok=True)
        with ObjectStore(tmp) as store:
            for method in (store.size, store.read):
                with pytest.raises(RepositoryError, match=f"corrupt object {delta}"):
                    method(delta)
