"""Minimal git object database access: loose and packed object reading, and
pack and ref writing for building a destination repository.

Each pack is read from its own file alone: a delta's base, named by
offset (OFS_DELTA) or by id (REF_DELTA), must lie in the delta's own
pack, as git requires (packfile.c, get_delta_base), and one that does not
makes the delta corrupt.

Only what the history rewriter and tracker need is implemented: blobs,
trees, commits, and annotated tags, plus refs and HEAD.

A tree reads back as a name map, {raw name: (mode, hex id)}, decoded by
parse_tree in one regex split with no object per entry.  A whole packed
object, or a delta's data, inflates in one zlib call on a slice sized
from its entry header; only a stream longer than that slice, or a
corrupt one, is inflated piece by piece.

Each pack keeps a delta-base cache, as git's packfile.c does: the
objects that a read applied deltas to, by pack offset, bounded by
DELTA_BASE_CACHE_LIMIT bytes and evicted least recently used first.  So
reading the versions of a file stored as one long delta chain applies
each delta about once, not once for every version above it.  A whole
object that no delta was applied to never enters it, so reads of an
undeltified pack, such as the ones RepoWriter writes, leave it empty.
"""

from __future__ import annotations

import mmap
import os
import posixpath
import re
import struct
import tempfile
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from hashlib import sha1
from typing import TYPE_CHECKING, Callable

from .errors import NotACommitError, RepositoryError

if TYPE_CHECKING:
    from .commitgraph import CommitGraph

TREE_MODE = b"40000"
# Regular and executable files; symlinks (120000) and submodules (160000)
# are neither.
FILE_MODES = (b"100644", b"100755")

# Payload bytes of delta bases each pack keeps, as git's
# core.deltaBaseCacheLimit (96 MiB by default) bounds its cache.
DELTA_BASE_CACHE_LIMIT = 16 << 20


@dataclass
class CommitRecord:
    id: str
    tree: str
    parents: list[str]
    author: bytes
    committer: bytes
    encoding: bytes | None
    message: bytes


def _object_header(kind: bytes, size: int) -> bytes:
    return kind + b" " + str(size).encode() + b"\x00"


def hash_object(kind: bytes, payload: bytes) -> str:
    return sha1(_object_header(kind, len(payload)) + payload).hexdigest()


def find_sorted_id(fanout: tuple[int, ...], names: bytes, oid_bin: bytes) -> int | None:
    """The index of oid_bin in names, 20-byte ids in sorted order, or None;
    fanout[b] counts the ids whose first byte is at most b, as in a pack
    index and a commit-graph file."""
    first = oid_bin[0]
    lo = fanout[first - 1] if first else 0
    hi = fanout[first]
    while lo < hi:
        mid = (lo + hi) // 2
        cand = names[mid * 20 : mid * 20 + 20]
        if cand == oid_bin:
            return mid
        if cand < oid_bin:
            lo = mid + 1
        else:
            hi = mid
    return None


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
        self._fanout = struct.unpack(">256I", idx[8 : 8 + 1024])
        self.count = self._fanout[255]
        names_off = 8 + 1024
        crc_off = names_off + 20 * self.count
        ofs_off = crc_off + 4 * self.count
        big_off = ofs_off + 4 * self.count
        self._names = idx[names_off:crc_off]
        self._offsets = idx[ofs_off:big_off]
        self._big = idx[big_off : len(idx) - 40]
        f = open(pack_path, "rb")
        try:
            self._map = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        except BaseException:
            f.close()
            raise
        self._file = f
        # Delta bases by pack offset, least recently used first.
        self._bases: OrderedDict[int, tuple[int, bytes]] = OrderedDict()
        self._bases_bytes = 0

    def close(self) -> None:
        self._map.close()
        self._file.close()

    def find(self, oid_bin: bytes) -> int | None:
        i = find_sorted_id(self._fanout, self._names, oid_bin)
        if i is None:
            return None
        (raw,) = struct.unpack_from(">I", self._offsets, i * 4)
        if raw & 0x80000000:
            (big,) = struct.unpack_from(">Q", self._big, (raw & 0x7FFFFFFF) * 8)
            return big
        return raw

    def _entry_header(self, offset: int) -> tuple[int, int, int, int]:
        """(type, size, data position, base) of the pack entry at offset:
        the type and 4 size bits in the first byte, then the rest of the
        size as in a delta's sizes.  base is a delta's base offset, or 0
        for a whole object.  A REF_DELTA's base id is looked up in this
        pack, as git requires; an id that the pack does not list, or that
        the end of the pack cuts off, raises ValueError."""
        data = self._map
        byte = data[offset]
        obj_type = (byte >> 4) & 0x7
        size = byte & 0x0F
        pos = offset + 1
        if byte & 0x80:
            rest, pos = _delta_size(data, pos)
            size |= rest << 4
        if obj_type in (1, 2, 3, 4):
            return obj_type, size, pos, 0
        if obj_type == 6:  # OFS_DELTA
            byte = data[pos]
            pos += 1
            rel = byte & 0x7F
            while byte & 0x80:
                byte = data[pos]
                pos += 1
                rel = ((rel + 1) << 7) | (byte & 0x7F)
            if not 0 < rel <= offset:
                raise ValueError(f"delta base offset {rel} out of range")
            return obj_type, size, pos, offset - rel
        if obj_type == 7:  # REF_DELTA
            base_id = data[pos : pos + 20]
            base = self.find(base_id) if len(base_id) == 20 else None
            if base is None:
                raise ValueError(f"delta base {base_id.hex()} is not in the pack")
            return obj_type, size, pos + 20, base
        raise ValueError(f"unknown pack object type {obj_type}")

    def _inflate(self, pos: int, expected: int) -> bytes:
        data = self._map
        # By zlib's compressBound, deflating n bytes gives at most about
        # n + n/4096 + 13, so the first slice nearly always holds the whole
        # stream without copying the map beyond it, and one call inflates
        # it; zlib.decompress ignores what follows the end of the stream.
        # Only a longer stream, or corrupt data, takes the incremental loop.
        # No output buffer is sized from expected, which comes from the
        # entry header and may be corrupt.
        step = expected + (expected >> 10) + 32
        try:
            payload = zlib.decompress(data[pos : pos + step])
        except zlib.error:
            d = zlib.decompressobj()
            out = []
            n = len(data)
            while not d.eof and pos < n:
                chunk = data[pos : min(pos + step, n)]
                pos += len(chunk)
                out.append(d.decompress(chunk))
                step = 65536
            payload = b"".join(out)
        if len(payload) != expected:
            raise ValueError("corrupt pack data")
        return payload

    def _inflate_head(self, pos: int, n: int) -> bytes:
        """At most the first n bytes of the zlib stream at pos."""
        d = zlib.decompressobj()
        data = self._map
        end = len(data)
        out = b""
        while len(out) < n and not d.eof and pos < end:
            chunk = data[pos : pos + 64]
            pos += len(chunk)
            out += d.decompress(chunk, n - len(out))
        return out

    def size_at(self, offset: int) -> int:
        """The payload size of the object at offset.

        A whole object's is its entry header's size, and only that header
        is read.  A delta's header gives the delta's own size; the
        payload's is the result size that starts the delta data, so only
        that far is inflated and the base is never read.
        """
        obj_type, size, pos, _ = self._entry_header(offset)
        if obj_type in (1, 2, 3, 4):
            return size
        # Base size, then result size: varints of at most 10 bytes each.
        head = self._inflate_head(pos, 20)
        _, head_pos = _delta_size(head, 0)
        return _delta_size(head, head_pos)[0]

    def read_at(self, offset: int) -> tuple[int, bytes]:
        """(git object type number, payload) for the object at offset.

        A delta chain is followed by base offset, for either kind of delta,
        in a loop down to a whole object or to a cached delta base; every
        base lies in this pack (see _entry_header).  Its deltas are then
        applied oldest first, so a chain's depth costs no stack.  Each base
        that the deltas were applied to is then cached, as git's
        unpack_entry does; the result itself is not.  A read that fails
        caches nothing.
        """
        bases = self._bases
        deltas: list[tuple[int, int, int]] = []  # (offset, data position, size), newest first
        base_offset = None  # the base's offset, unless it is cached already
        while True:
            cached = bases.get(offset)
            if cached is not None:
                bases.move_to_end(offset)
                if not deltas:
                    return cached
                base_type, base = cached
                break
            obj_type, size, pos, base_at = self._entry_header(offset)
            if obj_type in (1, 2, 3, 4):
                base_type, base = obj_type, self._inflate(pos, size)
                if not deltas:
                    return base_type, base
                base_offset = offset
                break
            if len(deltas) >= self.count:
                raise ValueError("delta chain longer than the pack")
            deltas.append((offset, pos, size))
            offset = base_at
        used = []  # (offset, payload) of each base to cache, oldest first
        for offset, pos, size in reversed(deltas):
            if base_offset is not None:
                used.append((base_offset, base))
            base = _apply_delta(base, self._inflate(pos, size))
            base_offset = offset
        for offset, payload in used:
            self._cache_base(offset, base_type, payload)
        return base_type, base

    def _cache_base(self, offset: int, type_num: int, payload: bytes) -> None:
        """Cache a delta base, evicting the least recently used bases until
        the cache fits DELTA_BASE_CACHE_LIMIT; a base larger than the limit
        is not cached."""
        size = len(payload)
        limit = DELTA_BASE_CACHE_LIMIT
        if size > limit:
            return
        bases = self._bases
        while self._bases_bytes + size > limit:
            _, (_, evicted) = bases.popitem(last=False)
            self._bases_bytes -= len(evicted)
        bases[offset] = (type_num, payload)
        self._bases_bytes += size


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


def _loose_header(raw: bytes) -> tuple[str, int, int]:
    """(type name, payload size, payload start) from the start of an
    inflated loose object: its type, a space, its size in decimal, a NUL."""
    nul = raw.index(b"\x00")
    kind, _, size = raw[:nul].partition(b" ")
    if not size.isdigit():
        raise ValueError(f"bad size in loose object header {raw[:nul]!r}")
    return kind.decode(), int(size), nul + 1


# What the decoding of bad object data raises, in the pack and loose readers.
_CORRUPT = (zlib.error, struct.error, IndexError, ValueError)

_TYPE_NAMES = {1: "commit", 2: "tree", 3: "blob", 4: "tag"}
_PACK_TYPES = {name.encode(): num for num, name in _TYPE_NAMES.items()}


class ObjectStore:
    """Read-only view of an existing repository.  close(), or leaving a
    with block, releases the packs it has mapped.

    The store keeps no object cache, and the layers that parse objects
    memoise what they parse: a whole object is inflated again on every
    read.  Only delta bases are cached, per pack (see _PackFile.read_at).
    The repository's commit-graph file is read once, on first use.

    Each question about an object has one entry point: read gives its
    type and payload; sizes gives payload lengths from the headers alone,
    as git's oid_object_info does, and contains asks it too; peel gives
    the commit an id names through annotated tags, as git's peel_object.

    HEAD is read from gitdir; objects, refs, packed-refs, shallow and the
    commit-graph from commondir, which for a linked worktree is the
    directory its gitdir's commondir file names, and otherwise gitdir.
    """

    def __init__(self, path: str):
        self.gitdir = self._discover(path)
        self.commondir = self.gitdir
        try:
            with open(os.path.join(self.gitdir, "commondir"), "rb") as f:
                common = _utf8(f.read(), "commondir file").strip()
            self.commondir = os.path.normpath(os.path.join(self.gitdir, common))
        except FileNotFoundError:
            pass
        self._packs: list[_PackFile] | None = None
        self._graph_loaded = False
        self._graph = None

    def __enter__(self) -> "ObjectStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @staticmethod
    def _discover(path: str) -> str:
        path = os.path.abspath(path)
        dotgit = os.path.join(path, ".git")
        if os.path.isdir(dotgit):
            return dotgit
        if os.path.isfile(dotgit):
            with open(dotgit, "rb") as f:
                line = _utf8(f.read(), f"gitdir file {dotgit}").strip()
            if line.startswith("gitdir:"):
                target = line[len("gitdir:") :].strip()
                return os.path.normpath(os.path.join(path, target))
        # A bare repository, or a linked worktree's own git directory.
        if os.path.exists(os.path.join(path, "HEAD")) and (
            os.path.isdir(os.path.join(path, "objects"))
            or os.path.exists(os.path.join(path, "commondir"))
        ):
            return path
        raise RepositoryError(f"not a git repository: {path}")

    # -- object reading --------------------------------------------------

    def _load_packs(self) -> list[_PackFile]:
        """The packs with an index, in name order.  A pack that cannot be
        opened raises RepositoryError, on this and on every later read,
        and leaves none of the packs open."""
        if self._packs is not None:
            return self._packs
        pack_dir = os.path.join(self.commondir, "objects", "pack")
        names = sorted(os.listdir(pack_dir)) if os.path.isdir(pack_dir) else []
        packs: list[_PackFile] = []
        for name in names:
            path = os.path.join(pack_dir, name)
            if name.endswith(".pack") and os.path.exists(path[:-5] + ".idx"):
                try:
                    packs.append(_PackFile(path))
                except (OSError, ValueError, struct.error, RepositoryError) as exc:
                    for pack in packs:
                        pack.close()
                    raise RepositoryError(f"cannot open pack {path}: {exc}") from exc
        self._packs = packs
        return packs

    def commit_graph(self) -> "CommitGraph | None":
        """The repository's objects/info/commit-graph, read on the first
        call, or None when there is none.  A file that is not a valid
        commit-graph raises RepositoryError on every call."""
        if not self._graph_loaded:
            # commitgraph imports this module, so it is imported only here.
            from .commitgraph import CommitGraph

            self._graph = CommitGraph.load(self.commondir)
            self._graph_loaded = True
        return self._graph

    def contains(self, oid: str) -> bool:
        """Whether the store holds the object; only its header is read."""
        try:
            self.sizes([oid])
            return True
        except RepositoryError:
            return False

    def read(self, oid: str) -> tuple[str, bytes]:
        """(type name, payload) for the object.

        Data that does not decode as a git object raises RepositoryError.
        """
        try:
            packed = self._find_packed(oid)
            if packed is not None:
                pack, offset = packed
                type_num, payload = pack.read_at(offset)
                return _TYPE_NAMES[type_num], payload
            raw = zlib.decompress(self._read_loose(oid))
            kind, size, start = _loose_header(raw)
            if len(raw) - start != size:
                raise ValueError("loose object size mismatch")
            return kind, raw[start:]
        except _CORRUPT as exc:
            raise RepositoryError(f"corrupt object {oid}: {exc}") from exc

    def sizes(self, oids: list[str]) -> list[int]:
        """Each object's payload length, in order, without inflating the
        payloads, in one pass over the ids.

        A whole packed object's size is in its pack entry header; a packed
        delta inflates only the sizes at the start of its delta data, and a
        loose object only its own header.  A malformed id, a missing object
        or a header that does not decode raises RepositoryError.
        """
        out = []
        for oid in oids:
            try:
                packed = self._find_packed(oid)
                if packed is not None:
                    out.append(packed[0].size_at(packed[1]))
                    continue
                head = zlib.decompressobj().decompress(self._read_loose(oid), 32)
                out.append(_loose_header(head)[1])
            except _CORRUPT as exc:
                raise RepositoryError(f"corrupt object {oid}: {exc}") from exc
        return out

    def _find_packed(self, oid: str) -> tuple[_PackFile, int] | None:
        # Packs first, then loose objects, as git looks them up.  An id that
        # is not 40 hex digits is rejected before a loose object's path is
        # built from it.  (fromhex skips whitespace, hence both lengths.)
        try:
            oid_bin = bytes.fromhex(oid)
        except ValueError:
            oid_bin = b""
        if len(oid) != 40 or len(oid_bin) != 20:
            raise RepositoryError(f"malformed object id {oid!r}")
        for pack in self._load_packs():
            offset = pack.find(oid_bin)
            if offset is not None:
                return pack, offset
        return None

    def _read_loose(self, oid: str) -> bytes:
        """The loose object's file, still deflated."""
        path = os.path.join(self.commondir, "objects", oid[:2], oid[2:])
        try:
            with open(path, "rb") as f:
                return f.read()
        except FileNotFoundError:
            raise RepositoryError(f"object not found: {oid}") from None

    def read_commit(self, oid: str) -> CommitRecord:
        kind, payload = self.read(oid)
        if kind != "commit":
            raise RepositoryError(f"not a commit: {oid}")
        return parse_commit(oid, payload)

    def read_tree(
        self, oid: str, *, share: dict | None = None
    ) -> dict[bytes, tuple[bytes, str]]:
        """The tree's name map, as parse_tree gives it with share; a payload
        that parse_tree rejects raises RepositoryError."""
        kind, payload = self.read(oid)
        if kind != "tree":
            raise RepositoryError(f"not a tree: {oid}")
        try:
            return parse_tree(payload, share=share)
        except ValueError as exc:
            raise RepositoryError(f"corrupt tree {oid}: {exc}") from exc

    # -- refs --------------------------------------------------------------

    def refs(self) -> dict[str, str]:
        """Full ref name -> object id, loose refs over packed ones.

        A value that is not 40 bytes long, or a symbolic ref, is skipped;
        latin-1 never fails, and read rejects a value that is not an id.  A
        ref name that is not UTF-8, loose or packed, raises RepositoryError.
        """
        out: dict[str, str] = {}
        packed = os.path.join(self.commondir, "packed-refs")
        if os.path.exists(packed):
            with open(packed, "rb") as f:
                for raw in f.read().splitlines():
                    if not raw or raw.startswith(b"#") or raw.startswith(b"^"):
                        continue
                    sha, _, name = raw.partition(b" ")
                    if len(sha) == 40 and name:
                        out[_utf8(name, "ref name in packed-refs")] = sha.decode("latin-1")
        refs_dir = os.path.join(self.commondir, "refs")
        for root, _dirs, files in os.walk(refs_dir):
            for fname in files:
                full = os.path.join(root, fname)
                rel = os.path.relpath(full, self.commondir)
                name = posixpath.join(*rel.split(os.sep))
                with open(full, "rb") as f:
                    value = f.read().strip()
                if len(value) == 40 and not value.startswith(b"ref: "):
                    out[_utf8(os.fsencode(name), "ref name")] = value.decode("latin-1")
        return out

    def shallow(self) -> set[str]:
        """The commits <commondir>/shallow lists: those a shallow clone
        holds without their parents."""
        try:
            with open(os.path.join(self.commondir, "shallow"), "rb") as f:
                return {line.decode("latin-1") for line in f.read().split()}
        except FileNotFoundError:
            return set()

    def head_target(self) -> tuple[str, str]:
        """('ref', refname) for a symbolic HEAD, ('oid', sha) when detached.
        A HEAD that is not UTF-8 raises RepositoryError."""
        with open(os.path.join(self.gitdir, "HEAD"), "rb") as f:
            value = _utf8(f.read().strip(), "HEAD")
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

    def peel(self, oid: str, known: Callable[[str], bool]) -> tuple[str, CommitRecord | None]:
        """The id of the commit oid names, through any chain of annotated
        tags, and its record.  A commit for which known(id) holds is not
        read, and its record is None.  A chain that ends at a tree or a
        blob raises NotACommitError."""
        seen = set()
        while not known(oid):
            if oid in seen:
                raise RepositoryError(f"tag cycle at {oid}")
            seen.add(oid)
            kind, payload = self.read(oid)
            if kind == "commit":
                return oid, parse_commit(oid, payload)
            if kind != "tag":
                raise NotACommitError(f"cannot peel {kind} object {oid} to a commit")
            target = None
            for line in payload.split(b"\n"):
                if line.startswith(b"object "):
                    # latin-1 never fails; read rejects a malformed id
                    target = line[7:].decode("latin-1")
                    break
            if target is None:
                raise RepositoryError(f"malformed tag object {oid}")
            oid = target
        return oid, None

    def close(self) -> None:
        if self._packs:
            for pack in self._packs:
                pack.close()
        self._packs = None


def _utf8(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise RepositoryError(f"malformed {what}: {raw!r}") from None


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
        # latin-1 never fails; read rejects an id that is not 40 hex digits
        if key == b"tree":
            tree = value.decode("latin-1")
        elif key == b"parent":
            parents.append(value.decode("latin-1"))
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


# One tree entry: an octal mode, a space, a non-empty name, a NUL and a
# 20-byte binary id.
_TREE_ENTRY = re.compile(rb"([0-7]+) ([^\x00]+)\x00(.{20})", re.DOTALL)


def parse_tree(
    payload: bytes, *, share: dict | None = None
) -> dict[bytes, tuple[bytes, str]]:
    """The entries of a tree payload as {raw name: (mode, hex id)}, in
    the tree's order.  With share, each name and (mode, hex id) value
    equal to a key of share is that key's value, and one that is not is
    added to it, so the name maps parsed with one table share their equal
    entries.

    The entries must tile the payload exactly; a gap, a truncated last
    entry, a mode that is not octal digits, an empty name or a name that
    contains "/" (git fsck's fullPathname) raises ValueError, and so does a
    name that occurs twice (git fsck's duplicateEntries).  So every path
    names at most one entry.  The map is built by one C-level expression,
    with no Python object per entry, as git's tree-walk.c looks names up
    in the raw tree buffer.
    """
    # split puts the bytes between matches at every fourth place, then
    # each match's three groups.
    parts = _TREE_ENTRY.split(payload)
    if any(parts[::4]):
        raise ValueError("malformed tree entry")
    names = parts[2::4]
    # One search of the joined names: a set [^\x00/] in the pattern would
    # test every name byte against a set, which costs the split far more.
    if b"/" in b"".join(names):
        raise ValueError("tree entry name contains '/'")
    values = zip(parts[1::4], map(bytes.hex, parts[3::4]))
    if share is None:
        tree = dict(zip(names, values))
    else:
        keep = share.setdefault
        values = list(values)  # map reads it twice
        tree = dict(zip(map(keep, names, names), map(keep, values, values)))
    if len(tree) != len(names):
        raise ValueError("duplicate tree entry name")
    return tree


def _pack_entry_header(type_num: int, size: int) -> bytes:
    """A pack entry's type and inflated size: 4 size bits in the first
    byte, then 7 per byte, each byte but the last with its high bit set."""
    out = bytearray()
    byte = (type_num << 4) | (size & 0x0F)
    size >>= 4
    while size:
        out.append(byte | 0x80)
        byte = size & 0x7F
        size >>= 7
    out.append(byte)
    return bytes(out)


def _pack_index(entries: dict[bytes, tuple[int, int]], pack_sha: bytes) -> bytes:
    """A version 2 pack index for {20-byte id: (offset, crc32)} of the pack
    whose trailer is pack_sha.

    Offsets of 2**31 and above go in the table of 64-bit offsets, and the
    32-bit slot holds their position there with the high bit set.
    """
    names = sorted(entries)
    fanout = [0] * 256
    for name in names:
        fanout[name[0]] += 1
    total = 0
    for i, count in enumerate(fanout):
        total += count
        fanout[i] = total
    crcs = []
    small = []
    big = []
    for name in names:
        offset, crc = entries[name]
        crcs.append(crc)
        if offset < 0x80000000:
            small.append(offset)
        else:
            small.append(0x80000000 | len(big))
            big.append(offset)
    n = len(names)
    body = b"".join((
        b"\xfftOc",
        struct.pack(">I", 2),
        struct.pack(">256I", *fanout),
        *names,
        struct.pack(f">{n}I", *crcs),
        struct.pack(f">{n}I", *small),
        struct.pack(f">{len(big)}Q", *big),
        pack_sha,
    ))
    return body + sha1(body).digest()


class RepoWriter:
    """Writes a new bare repository: its objects as one pack, and refs.

    Each new object is appended, zlib-compressed and undeltified, to a
    temporary pack in the order it is first written; only its id, offset
    and CRC-32 stay in memory.  close() completes the pack, writes its
    version 2 index and moves both into objects/pack, so the objects can
    be read only after close().  Refs and HEAD are written at once,
    before or after close().

    As a context manager, a clean exit closes the writer; an exception
    removes the temporary pack and publishes nothing.
    """

    def __init__(self, path: str):
        self.path = os.path.abspath(path)
        self.pack_dir = os.path.join(self.path, "objects", "pack")
        # 20-byte id -> (offset in the pack, CRC-32 of the entry)
        self._entries: dict[bytes, tuple[int, int]] = {}
        self._pack = None
        self._pack_tmp = ""
        self._offset = 0
        self._closed = False

    def __enter__(self) -> "RepoWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._discard()

    def init_bare(self) -> None:
        # An empty destination means the in-memory index knows every object
        # of the repository, so write_object never looks at the disk.
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

    def write_object(self, kind: bytes, payload: bytes, *, oid: str | None = None) -> str:
        """Append the object unless it was written before; its id.  oid,
        when given, is the caller's own hash_object(kind, payload) and is
        trusted: only the converter passes it, for a rendering whose id it
        needed before the rendering could be written."""
        if oid is None:
            oid = hash_object(kind, payload)
        oid_bin = bytes.fromhex(oid)
        if oid_bin not in self._entries:
            if self._closed:
                raise ValueError("write to a closed RepoWriter")
            if self._pack is None:
                # The object count is not known yet; close() fills it in.
                fd, self._pack_tmp = tempfile.mkstemp(prefix="tmp_pack_", dir=self.pack_dir)
                self._pack = os.fdopen(fd, "w+b")
                self._pack.write(b"PACK" + struct.pack(">II", 2, 0))
                self._offset = 12
            # zlib's default level, which is also git's
            entry = _pack_entry_header(_PACK_TYPES[kind], len(payload)) + zlib.compress(payload)
            self._pack.write(entry)
            self._entries[oid_bin] = (self._offset, zlib.crc32(entry))
            self._offset += len(entry)
        return oid

    def close(self) -> None:
        """Complete the pack and publish it with its index.  A writer that
        wrote no object leaves no pack."""
        self._closed = True
        f = self._pack
        if f is None:
            return
        idx_tmp = self._pack_tmp + ".idx"
        try:
            f.seek(8)
            f.write(struct.pack(">I", len(self._entries)))
            # Re-read the pack once for its trailer, as git fast-import
            # does; memory stays bounded by the index, not by the pack.
            f.seek(0)
            digest = sha1()
            while chunk := f.read(65536):
                digest.update(chunk)
            trailer = digest.digest()
            f.write(trailer)
            f.close()
            with open(idx_tmp, "wb") as idx:
                idx.write(_pack_index(self._entries, trailer))
            base = os.path.join(self.pack_dir, "pack-" + trailer.hex())
            for tmp, final in ((self._pack_tmp, base + ".pack"), (idx_tmp, base + ".idx")):
                # The pack first, so a reader never finds an index without it.
                os.chmod(tmp, 0o444)
                os.replace(tmp, final)
        except BaseException:
            self._discard()
            if os.path.exists(idx_tmp):
                os.remove(idx_tmp)
            raise
        self._pack = None

    def _discard(self) -> None:
        """Close and remove the temporary pack; publish nothing."""
        self._closed = True
        f = self._pack
        if f is None:
            return
        self._pack = None
        f.close()
        if os.path.exists(self._pack_tmp):
            os.remove(self._pack_tmp)

    def write_blob(self, content: bytes) -> str:
        return self.write_object(b"blob", content)

    def write_tree(self, entries: dict[bytes, tuple[bytes, str]]) -> str:
        """Write a tree from a name map, {raw name: (mode, hex id)}, as
        parse_tree returns it; the entries are sorted as git sorts them."""

        def sort_key(entry: tuple[bytes, tuple[bytes, str]]) -> bytes:
            name, (mode, _) = entry
            return name + b"/" if mode == TREE_MODE else name

        payload = b"".join(
            mode + b" " + name + b"\x00" + bytes.fromhex(oid)
            for name, (mode, oid) in sorted(entries.items(), key=sort_key)
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
