"""Minimal git object database access: loose and packed object reading, and
loose object / ref writing for building a destination repository.

Only what the history rewriter and tracker need is implemented: blobs,
trees, commits, and annotated tags, plus refs and HEAD.
"""

from __future__ import annotations

import mmap
import os
import posixpath
import struct
import zlib
from dataclasses import dataclass
from hashlib import sha1

from .errors import RepositoryError

TREE_MODE = b"40000"
# Regular and executable files; symlinks (120000) and submodules (160000)
# are neither.
FILE_MODES = (b"100644", b"100755")


@dataclass(frozen=True)
class TreeEntry:
    mode: bytes
    name: bytes
    oid: str

    @property
    def is_tree(self) -> bool:
        return self.mode == TREE_MODE


@dataclass
class CommitRecord:
    id: str
    tree: str
    parents: list[str]
    author: bytes
    committer: bytes
    encoding: bytes | None
    message: bytes

    @property
    def commit_time(self) -> int:
        # committer line: name <email> <epoch> <tz>
        parts = self.committer.rsplit(b" ", 2)
        try:
            return int(parts[1])
        except (IndexError, ValueError):
            return 0


def _object_header(kind: bytes, size: int) -> bytes:
    return kind + b" " + str(size).encode() + b"\x00"


def hash_object(kind: bytes, payload: bytes) -> str:
    return sha1(_object_header(kind, len(payload)) + payload).hexdigest()


class _PackFile:
    """One .pack/.idx pair, index version 2.

    Data that does not decode raises ValueError (or the zlib, struct and
    index errors of the reads); ObjectStore.read turns all of them into a
    RepositoryError that names the object.
    """

    def __init__(self, pack_path: str):
        self.pack_path = pack_path
        idx_path = pack_path[:-5] + ".idx"
        with open(idx_path, "rb") as f:
            idx = f.read()
        if idx[:4] != b"\xfftOc" or struct.unpack(">I", idx[4:8])[0] != 2:
            raise RepositoryError(f"unsupported pack index: {idx_path}")
        fanout = struct.unpack(">256I", idx[8 : 8 + 1024])
        self.count = fanout[255]
        names_off = 8 + 1024
        crc_off = names_off + 20 * self.count
        ofs_off = crc_off + 4 * self.count
        big_off = ofs_off + 4 * self.count
        self._names = idx[names_off:crc_off]
        self._offsets = idx[ofs_off:big_off]
        self._big = idx[big_off : len(idx) - 40]
        f = open(pack_path, "rb")
        self._file = f
        self._map = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)

    def close(self) -> None:
        self._map.close()
        self._file.close()

    def find(self, oid_bin: bytes) -> int | None:
        lo, hi = 0, self.count
        names = self._names
        while lo < hi:
            mid = (lo + hi) // 2
            cand = names[mid * 20 : mid * 20 + 20]
            if cand == oid_bin:
                (raw,) = struct.unpack_from(">I", self._offsets, mid * 4)
                if raw & 0x80000000:
                    (big,) = struct.unpack_from(">Q", self._big, (raw & 0x7FFFFFFF) * 8)
                    return big
                return raw
            if cand < oid_bin:
                lo = mid + 1
            else:
                hi = mid
        return None

    def _read_varint_header(self, pos: int) -> tuple[int, int, int]:
        """(type, size, next_pos) for the object header at pos."""
        data = self._map
        byte = data[pos]
        pos += 1
        obj_type = (byte >> 4) & 0x7
        size = byte & 0x0F
        shift = 4
        while byte & 0x80:
            byte = data[pos]
            pos += 1
            size |= (byte & 0x7F) << shift
            shift += 7
        return obj_type, size, pos

    def _inflate(self, pos: int, expected: int) -> bytes:
        d = zlib.decompressobj()
        out = []
        got = 0
        data = self._map
        n = len(data)
        while not d.eof and pos < n:
            chunk = data[pos : min(pos + 65536, n)]
            pos += len(chunk)
            piece = d.decompress(chunk)
            out.append(piece)
            got += len(piece)
        payload = b"".join(out)
        if len(payload) != expected:
            raise ValueError("corrupt pack data")
        return payload

    def read_at(self, offset: int, store: "ObjectStore") -> tuple[int, bytes]:
        """(git object type number, payload) for the object at offset."""
        obj_type, size, pos = self._read_varint_header(offset)
        if obj_type in (1, 2, 3, 4):
            return obj_type, self._inflate(pos, size)
        if obj_type == 6:  # OFS_DELTA
            data = self._map
            byte = data[pos]
            pos += 1
            rel = byte & 0x7F
            while byte & 0x80:
                byte = data[pos]
                pos += 1
                rel = ((rel + 1) << 7) | (byte & 0x7F)
            base_type, base = self.read_at(offset - rel, store)
            return base_type, _apply_delta(base, self._inflate(pos, size))
        if obj_type == 7:  # REF_DELTA
            base_oid = self._map[pos : pos + 20].hex()
            pos += 20
            kind, base = store.read(base_oid)
            base_type = _TYPE_NUMBERS.get(kind)
            if base_type is None:
                raise ValueError(f"delta base {base_oid} has unknown type {kind!r}")
            return base_type, _apply_delta(base, self._inflate(pos, size))
        raise ValueError(f"unknown pack object type {obj_type}")


def _delta_size(data: bytes, pos: int) -> tuple[int, int]:
    size = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        size |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            return size, pos


def _apply_delta(base: bytes, delta: bytes) -> bytes:
    src_size, pos = _delta_size(delta, 0)
    dst_size, pos = _delta_size(delta, pos)
    if src_size != len(base):
        raise ValueError("delta base size mismatch")
    out = bytearray()
    n = len(delta)
    while pos < n:
        op = delta[pos]
        pos += 1
        if op & 0x80:
            cp_off = 0
            cp_size = 0
            for i in range(4):
                if op & (1 << i):
                    cp_off |= delta[pos] << (8 * i)
                    pos += 1
            for i in range(3):
                if op & (1 << (4 + i)):
                    cp_size |= delta[pos] << (8 * i)
                    pos += 1
            if cp_size == 0:
                cp_size = 0x10000
            out += base[cp_off : cp_off + cp_size]
        elif op:
            out += delta[pos : pos + op]
            pos += op
        else:
            raise ValueError("invalid delta opcode")
    if len(out) != dst_size:
        raise ValueError("delta result size mismatch")
    return bytes(out)


_TYPE_NAMES = {1: "commit", 2: "tree", 3: "blob", 4: "tag"}
_TYPE_NUMBERS = {name: num for num, name in _TYPE_NAMES.items()}


class ObjectStore:
    """Read-only view of an existing repository."""

    def __init__(self, path: str):
        gitdir = self._discover(path)
        self.gitdir = gitdir
        self._packs: list[_PackFile] | None = None
        self._cache: dict[str, tuple[str, bytes]] = {}

    @staticmethod
    def _discover(path: str) -> str:
        path = os.path.abspath(path)
        dotgit = os.path.join(path, ".git")
        if os.path.isdir(dotgit):
            return dotgit
        if os.path.isfile(dotgit):
            with open(dotgit, "r", encoding="utf-8") as f:
                line = f.read().strip()
            if line.startswith("gitdir:"):
                target = line[len("gitdir:") :].strip()
                return os.path.normpath(os.path.join(path, target))
        if os.path.isdir(os.path.join(path, "objects")) and os.path.exists(
            os.path.join(path, "HEAD")
        ):
            return path
        raise RepositoryError(f"not a git repository: {path}")

    # -- object reading --------------------------------------------------

    def _load_packs(self) -> list[_PackFile]:
        if self._packs is None:
            self._packs = []
            pack_dir = os.path.join(self.gitdir, "objects", "pack")
            if os.path.isdir(pack_dir):
                for name in sorted(os.listdir(pack_dir)):
                    if name.endswith(".pack"):
                        idx = os.path.join(pack_dir, name[:-5] + ".idx")
                        if os.path.exists(idx):
                            self._packs.append(
                                _PackFile(os.path.join(pack_dir, name))
                            )
        return self._packs

    def contains(self, oid: str) -> bool:
        try:
            self.read(oid)
            return True
        except RepositoryError:
            return False

    def read(self, oid: str) -> tuple[str, bytes]:
        """(type name, payload) for the object.

        Data that does not decode as a git object raises RepositoryError.
        """
        cached = self._cache.get(oid)
        if cached is not None:
            return cached
        try:
            result = self._read_uncached(oid)
        except (zlib.error, struct.error, IndexError, ValueError) as exc:
            raise RepositoryError(f"corrupt object {oid}: {exc}") from exc
        if result[0] != "blob":
            self._cache[oid] = result
        return result

    def _read_uncached(self, oid: str) -> tuple[str, bytes]:
        loose = os.path.join(self.gitdir, "objects", oid[:2], oid[2:])
        try:
            with open(loose, "rb") as f:
                raw = zlib.decompress(f.read())
        except FileNotFoundError:
            raw = None
        if raw is not None:
            nul = raw.index(b"\x00")
            kind, _, _ = raw[:nul].partition(b" ")
            return kind.decode(), raw[nul + 1 :]
        oid_bin = bytes.fromhex(oid)
        for pack in self._load_packs():
            offset = pack.find(oid_bin)
            if offset is not None:
                type_num, payload = pack.read_at(offset, self)
                return _TYPE_NAMES[type_num], payload
        raise RepositoryError(f"object not found: {oid}")

    def read_commit(self, oid: str) -> CommitRecord:
        kind, payload = self.read(oid)
        if kind != "commit":
            raise RepositoryError(f"not a commit: {oid}")
        return parse_commit(oid, payload)

    def read_tree(self, oid: str) -> list[TreeEntry]:
        kind, payload = self.read(oid)
        if kind != "tree":
            raise RepositoryError(f"not a tree: {oid}")
        try:
            return parse_tree(payload)
        except ValueError as exc:
            raise RepositoryError(f"corrupt tree {oid}: {exc}") from exc

    # -- refs --------------------------------------------------------------

    def refs(self) -> dict[str, str]:
        out: dict[str, str] = {}
        packed = os.path.join(self.gitdir, "packed-refs")
        if os.path.exists(packed):
            with open(packed, "rb") as f:
                for raw in f.read().splitlines():
                    if not raw or raw.startswith(b"#") or raw.startswith(b"^"):
                        continue
                    sha, _, name = raw.partition(b" ")
                    if len(sha) == 40 and name:
                        out[name.decode()] = sha.decode()
        refs_dir = os.path.join(self.gitdir, "refs")
        for root, _dirs, files in os.walk(refs_dir):
            for fname in files:
                full = os.path.join(root, fname)
                rel = os.path.relpath(full, self.gitdir)
                name = posixpath.join(*rel.split(os.sep))
                with open(full, "rb") as f:
                    value = f.read().strip().decode()
                if value.startswith("ref: "):
                    continue
                if len(value) == 40:
                    out[name] = value
        return out

    def head_target(self) -> tuple[str, str]:
        """('ref', refname) for a symbolic HEAD, ('oid', sha) when detached."""
        with open(os.path.join(self.gitdir, "HEAD"), "r", encoding="utf-8") as f:
            value = f.read().strip()
        if value.startswith("ref: "):
            return "ref", value[5:]
        return "oid", value

    @staticmethod
    def expand_ref(name: str, refs: dict[str, str]) -> str | None:
        """The full name in refs that name stands for: name itself, then
        the branch, then the tag of that name."""
        for cand in (name, f"refs/heads/{name}", f"refs/tags/{name}"):
            if cand in refs:
                return cand
        return None

    def resolve_ref(self, name: str) -> str | None:
        refs = self.refs()
        full = self.expand_ref(name, refs)
        if full is not None:
            return refs[full]
        if name == "HEAD":
            kind, target = self.head_target()
            if kind == "oid":
                return target
            return refs.get(target)
        if len(name) == 40 and all(c in "0123456789abcdef" for c in name.lower()):
            sha = name.lower()
            if self.contains(sha):
                return sha
        return None

    def peel_to_commit(self, oid: str) -> str:
        seen = set()
        while True:
            if oid in seen:
                raise RepositoryError(f"tag cycle at {oid}")
            seen.add(oid)
            kind, payload = self.read(oid)
            if kind == "commit":
                return oid
            if kind != "tag":
                raise RepositoryError(f"cannot peel {kind} object {oid} to a commit")
            target = None
            for line in payload.split(b"\n"):
                if line.startswith(b"object "):
                    target = line[7:].decode()
                    break
            if target is None:
                raise RepositoryError(f"malformed tag object {oid}")
            oid = target

    def close(self) -> None:
        if self._packs:
            for pack in self._packs:
                pack.close()
        self._packs = None


def parse_commit(oid: str, payload: bytes) -> CommitRecord:
    tree = ""
    parents: list[str] = []
    author = b""
    committer = b""
    encoding: bytes | None = None
    lines = payload.split(b"\n")
    i = 0
    while i < len(lines):
        line = lines[i]
        if line == b"":
            i += 1
            break
        if line.startswith(b" "):
            # continuation of a multi-line header such as a signature
            i += 1
            continue
        key, _, value = line.partition(b" ")
        if key == b"tree":
            tree = value.decode()
        elif key == b"parent":
            parents.append(value.decode())
        elif key == b"author":
            author = value
        elif key == b"committer":
            committer = value
        elif key == b"encoding":
            encoding = value
        i += 1
    message = b"\n".join(lines[i:])
    return CommitRecord(
        id=oid,
        tree=tree,
        parents=parents,
        author=author,
        committer=committer,
        encoding=encoding,
        message=message,
    )


def parse_tree(payload: bytes) -> list[TreeEntry]:
    entries = []
    pos = 0
    n = len(payload)
    while pos < n:
        sp = payload.index(b" ", pos)
        mode = payload[pos:sp]
        nul = payload.index(b"\x00", sp)
        name = payload[sp + 1 : nul]
        oid = payload[nul + 1 : nul + 21].hex()
        entries.append(TreeEntry(mode=mode, name=name, oid=oid))
        pos = nul + 21
    return entries


class RepoWriter:
    """Writes loose objects and refs into a bare repository."""

    def __init__(self, path: str):
        self.path = os.path.abspath(path)
        self.objects = os.path.join(self.path, "objects")

    def init_bare(self) -> None:
        if os.path.exists(self.path) and os.listdir(self.path):
            raise RepositoryError(f"destination exists and is not empty: {self.path}")
        for sub in (
            "objects/info",
            "objects/pack",
            "refs/heads",
            "refs/tags",
        ):
            os.makedirs(os.path.join(self.path, sub), exist_ok=True)
        with open(os.path.join(self.path, "HEAD"), "w", encoding="utf-8") as f:
            f.write("ref: refs/heads/master\n")
        config = (
            "[core]\n"
            "\trepositoryformatversion = 0\n"
            "\tfilemode = true\n"
            "\tbare = true\n"
        )
        with open(os.path.join(self.path, "config"), "w", encoding="utf-8") as f:
            f.write(config)

    def write_object(self, kind: bytes, payload: bytes) -> str:
        oid = hash_object(kind, payload)
        obj_dir = os.path.join(self.objects, oid[:2])
        obj_path = os.path.join(obj_dir, oid[2:])
        if os.path.exists(obj_path):
            return oid
        os.makedirs(obj_dir, exist_ok=True)
        data = zlib.compress(_object_header(kind, len(payload)) + payload, 1)
        tmp = obj_path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, obj_path)
        return oid

    def write_blob(self, content: bytes) -> str:
        return self.write_object(b"blob", content)

    def write_tree(self, entries: list[TreeEntry]) -> str:
        def sort_key(e: TreeEntry) -> bytes:
            return e.name + b"/" if e.is_tree else e.name

        payload = b"".join(
            e.mode + b" " + e.name + b"\x00" + bytes.fromhex(e.oid)
            for e in sorted(entries, key=sort_key)
        )
        return self.write_object(b"tree", payload)

    def write_commit(
        self,
        tree: str,
        parents: list[str],
        author: bytes,
        committer: bytes,
        message: bytes,
        encoding: bytes | None = None,
    ) -> str:
        parts = [b"tree " + tree.encode()]
        for parent in parents:
            parts.append(b"parent " + parent.encode())
        parts.append(b"author " + author)
        parts.append(b"committer " + committer)
        if encoding:
            parts.append(b"encoding " + encoding)
        payload = b"\n".join(parts) + b"\n\n" + message
        return self.write_object(b"commit", payload)

    def write_refs(self, refs: dict[str, str]) -> None:
        lines = ["# pack-refs with: peeled fully-peeled sorted "]
        for name in sorted(refs):
            lines.append(f"{refs[name]} {name}")
        with open(os.path.join(self.path, "packed-refs"), "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

    def set_head(self, refname: str) -> None:
        with open(os.path.join(self.path, "HEAD"), "w", encoding="utf-8") as f:
            f.write(f"ref: {refname}\n")
