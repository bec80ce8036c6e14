"""Object-store unit tests: hashing, round-trips, packs, refs, and parsing.

Tests marked requires_git cross-check against the real git binary.
"""

from __future__ import annotations

import os
import subprocess
import zlib

import pytest

from methodgit import ObjectStore, RepoWriter
from methodgit.errors import RepositoryError
from methodgit.gitstore import CommitRecord, TreeEntry, hash_object, parse_commit

from conftest import AUTHOR, build_linear_repo, requires_git, write_tree_dict


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
    store = ObjectStore(writer.path)
    kind, payload = store.read(oid)
    assert (kind, payload) == ("blob", b"hello\n")
    store.close()


def test_tree_round_trip_and_sort_rule(tmp_path):
    writer = RepoWriter(str(tmp_path / "r.git"))
    writer.init_bare()
    blob = writer.write_blob(b"x")
    sub = writer.write_tree([TreeEntry(b"100644", b"leaf", blob)])
    # A directory named "foo" must sort after the file "foo.bar" because
    # trees compare as "foo/"; plain entries compare by raw name.
    tree = writer.write_tree(
        [
            TreeEntry(b"40000", b"foo", sub),
            TreeEntry(b"100644", b"foo.bar", blob),
            TreeEntry(b"100644", b"a", blob),
        ]
    )
    store = ObjectStore(writer.path)
    names = [e.name for e in store.read_tree(tree)]
    assert names == [b"a", b"foo.bar", b"foo"]
    store.close()


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
    store = ObjectStore(writer.path)
    record = store.read_commit(cid)
    assert record.tree == tree
    assert record.parents == []
    assert record.author == stamp
    assert record.encoding == b"ISO-8859-1"
    assert record.message == b"first\n"
    assert record.commit_time == 1700000000
    store.close()


def test_refs_and_head(tmp_path):
    dst = str(tmp_path / "r.git")
    ids = build_linear_repo(dst, [{"a": b"1\n"}, {"a": b"2\n"}])
    store = ObjectStore(dst)
    refs = store.refs()
    assert refs["refs/heads/master"] == ids[-1]
    assert store.head_target() == ("ref", "refs/heads/master")
    assert store.resolve_ref("master") == ids[-1]
    assert store.resolve_ref("refs/heads/master") == ids[-1]
    assert store.resolve_ref("HEAD") == ids[-1]
    assert store.resolve_ref(ids[0]) == ids[0]
    assert store.resolve_ref("nope") is None
    store.close()


def test_loose_ref_overrides_packed(tmp_path):
    dst = str(tmp_path / "r.git")
    ids = build_linear_repo(dst, [{"a": b"1\n"}, {"a": b"2\n"}])
    loose = os.path.join(dst, "refs", "heads", "master")
    os.makedirs(os.path.dirname(loose), exist_ok=True)
    with open(loose, "w") as f:
        f.write(ids[0] + "\n")
    store = ObjectStore(dst)
    assert store.refs()["refs/heads/master"] == ids[0]
    store.close()


def test_init_bare_refuses_non_empty(tmp_path):
    target = tmp_path / "busy"
    target.mkdir()
    (target / "junk").write_text("x")
    writer = RepoWriter(str(target))
    with pytest.raises(RepositoryError):
        writer.init_bare()


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
    store = ObjectStore(dst)
    with pytest.raises(RepositoryError):
        store.read("f" * 40)
    store.close()


def test_corrupt_loose_object_raises_repository_error(tmp_path):
    dst = str(tmp_path / "r.git")
    build_linear_repo(dst, [{"a": b"1\n", "b": b"2\n"}])
    bad_zlib = hash_object(b"blob", b"1\n")
    no_header = hash_object(b"blob", b"2\n")
    for oid, data in ((bad_zlib, b"not zlib data"), (no_header, zlib.compress(b"blob 2"))):
        with open(os.path.join(dst, "objects", oid[:2], oid[2:]), "wb") as f:
            f.write(data)
    store = ObjectStore(dst)
    for oid in (bad_zlib, no_header):
        with pytest.raises(RepositoryError, match=oid):
            store.read(oid)
    store.close()


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
    store = ObjectStore(str(work))
    record = store.read_commit(head)
    assert record.message == b"one\n"
    store.close()


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
    store = ObjectStore(str(work))
    for oid in oids:
        kind, payload = store.read(oid)
        # Re-hashing proves the inflate/delta path reproduced the object.
        assert hash_object(kind.encode(), payload) == oid
    store.close()


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
    store = ObjectStore(str(work))
    failed = 0
    for oid in oids:
        try:
            kind, payload = store.read(oid)
        except RepositoryError as exc:
            assert oid in str(exc)
            failed += 1
            continue
        assert hash_object(kind.encode(), payload) == oid
    store.close()
    assert failed > 0


@requires_git
def test_ref_delta_with_unknown_base_type_raises_repository_error(tmp_path):
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
    store = ObjectStore(str(repo))
    kind, payload = store.read(delta)
    assert hash_object(kind.encode(), payload) == delta
    store.close()

    # A loose object is read before the pack, so the delta's base now has a
    # type that no pack object can have.
    (repo / "objects" / delta_base[:2]).mkdir(exist_ok=True)
    (repo / "objects" / delta_base[:2] / delta_base[2:]).write_bytes(
        zlib.compress(b"bogus 3\x00abc")
    )
    store = ObjectStore(str(repo))
    with pytest.raises(RepositoryError, match=f"corrupt object {delta}"):
        store.read(delta)
    store.close()


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
    store = ObjectStore(str(work))
    tag_oid = store.resolve_ref("v1")
    assert tag_oid is not None
    assert store.read(tag_oid)[0] == "tag"
    assert store.peel_to_commit(tag_oid) == head
    store.close()


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
    store = ObjectStore(str(work))
    assert store.read_commit(head).message == b"one\n"
    store.close()
