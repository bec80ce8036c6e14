"""Git's commit-graph file, with changed-path Bloom filters.

The format is git's `Documentation/gitformat-commit-graph.txt`, and the
filters are those of its `bloom.c`, with git's default settings: hash
version 1, 7 hashes and 10 bits per changed path.  A file holds the
commits sorted by id (OIDF, OIDL), each commit's tree, parent positions,
topological level and date (CDAT, with EDGE for the parents of an octopus
merge), its corrected commit date as an offset from its date (GDA2, with
GDO2 for offsets of 2**31 and above), and one Bloom filter per commit
(BIDX, BDAT), then the SHA-1 of all of it.

A commit's filter holds every path that differs between its first
parent's tree and its own (the empty tree for a root commit), and every
leading directory of those paths.  A filter that would hold more than 512
paths is the single byte 0xFF, which holds every path.  So a filter that
lacks a path, or any of its leading directories, shows that the commit
left the path as its first parent had it: same mode and id, or absent in
both.

CommitGraphWriter builds the file for rewrite_history, byte for byte as
`git commit-graph write --reachable --changed-paths` writes it for the
same commits.  CommitGraph reads it back, for tracking.  A file that is
truncated, fails its checksum, or whose chunks do not fit the file or its
commit count raises RepositoryError; filters written with other settings
than git's defaults are not used, and every path then counts as changed.
"""

from __future__ import annotations

import os
import re
import struct
from collections.abc import Callable
from hashlib import sha1

from .errors import RepositoryError
from .gitstore import TREE_MODE, find_sorted_id

_SIGNATURE = b"CGPH"
_PARENT_NONE = 0x70000000
_EXTRA_EDGES = 0x80000000  # in a second parent's slot: an index into EDGE
_LAST_EDGE = 0x80000000  # on the last parent in EDGE
_LEVEL_MAX = 0x3FFFFFFF  # git's GENERATION_NUMBER_V1_MAX
_OFFSET_MAX = 0x7FFFFFFF  # git's GENERATION_NUMBER_V2_OFFSET_MAX
_OFFSET_OVERFLOW = 0x80000000

# git's default Bloom filter settings, the only ones this module uses.
_HASH_VERSION = 1
_NUM_HASHES = 7
_BITS_PER_ENTRY = 10
_MAX_CHANGED_PATHS = 512
_TRUNCATED = b"\xff"

_M32 = 0xFFFFFFFF
_SEED0 = 0x293AE76F
_SEED1 = 0x7E646E2C
_C1 = 0xCC9E2D51
_C2 = 0x1B873593


def _signed(byte: int) -> int:
    """A byte as git's `(uint32_t)` of a `char` gives it: sign-extended."""
    return byte | 0xFFFFFF00 if byte & 0x80 else byte


def _fmix(h: int) -> int:
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _M32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _M32
    return h ^ (h >> 16)


def _mix(data: bytes, first: int, last: int, h0: int, h1: int) -> tuple[int, int]:
    """git's murmur3_seeded (bloom.c, hash version 1) block loop over
    data's 4-byte blocks first..last-1, on two states at once: the mixing
    of a block does not depend on the seed.

    As in git's version 1 hash, every byte of 0x80 and above is
    sign-extended before it is shifted into place.  Each rotation's bits
    above 32 vanish in the mask after the multiplication that follows it.
    """
    words = struct.unpack_from(f"<{last - first}I", data, 4 * first)
    if not data.isascii():
        # A sign-extended byte sets every bit above its place; the top
        # byte's extension falls off the 32-bit word.
        words = [
            w
            | (0xFFFFFF00 if w & 0x80 else 0)
            | (0xFFFF0000 if w & 0x8000 else 0)
            | (0xFF000000 if w & 0x800000 else 0)
            for w in words
        ]
    for k in words:
        k = (k * _C1) & _M32
        k = (((k << 15) | (k >> 17)) * _C2) & _M32
        h0 ^= k
        h1 ^= k
        h0 = (((h0 << 13) | (h0 >> 19)) * 5 + 0xE6546B64) & _M32
        h1 = (((h1 << 13) | (h1 >> 19)) * 5 + 0xE6546B64) & _M32
    return h0, h1


def _finish(h0: int, h1: int, data: bytes, n: int) -> tuple[int, int]:
    """The two hashes of data[:n], from the states after its n >> 2 whole
    blocks: the tail's bytes, sign-extended, then the final mix."""
    tail = data[n & ~3 : n]
    if tail:
        k = 0
        for i in reversed(range(len(tail))):
            k ^= (_signed(tail[i]) << (8 * i)) & _M32
        k = (k * _C1) & _M32
        k = (((k << 15) | (k >> 17)) * _C2) & _M32
        h0 ^= k
        h1 ^= k
    n &= _M32
    return _fmix(h0 ^ n), _fmix(h1 ^ n)


def _murmur3_pair(data: bytes, seed0: int, seed1: int) -> tuple[int, int]:
    """git's murmur3_seeded of data under two seeds, in one pass."""
    n = len(data)
    return _finish(*_mix(data, 0, n >> 2, seed0, seed1), data, n)


def _key(h0: int, h1: int) -> tuple[int, ...]:
    return tuple((h0 + i * h1) & _M32 for i in range(_NUM_HASHES))


def bloom_key(path: bytes) -> tuple[int, ...]:
    """The bit positions, before reduction modulo a filter's size, that
    git's fill_bloom_key gives path."""
    return _key(*_murmur3_pair(path, _SEED0, _SEED1))


def path_keys(path: bytes, memo: dict | None = None) -> list[tuple[int, ...]]:
    """The bloom_keys of path and of each of its leading directories,
    path's first: a filter lacking any of them rules path out.

    memo maps a path to its key and the two hash states after its whole
    blocks; it holds every leading directory of every path in it.  path
    resumes from its longest directory memo holds, so each of its bytes is
    mixed once, and each new directory takes its key from the states at its
    last block boundary.  A leading directory ends before each "/" past the
    first byte, as `rpartition(b"/")` peels them.
    """
    memo = {} if memo is None else memo
    ends = []  # of path and its directories that memo lacks, longest first
    end = len(path)
    while end > 0:
        entry = memo.get(path[:end])
        if entry is not None:
            _, h0, h1 = entry
            break
        ends.append(end)
        end = path.rfind(b"/", 0, end)
    else:
        end = 0
        h0, h1 = _SEED0, _SEED1
    done = end >> 2  # blocks mixed into h0 and h1
    for end in reversed(ends):
        h0, h1 = _mix(path, done, end >> 2, h0, h1)
        done = end >> 2
        memo[path[:end]] = (_key(*_finish(h0, h1, path, end)), h0, h1)
    keys = []
    end = len(path)
    while end > 0:
        keys.append(memo[path[:end]][0])
        end = path.rfind(b"/", 0, end)
    return keys


def changed_paths(
    old_tree: str | None,
    new_tree: str,
    entries: Callable[[str], dict[bytes, tuple[bytes, str]]],
) -> set[bytes] | None:
    """The paths a Bloom filter holds for a commit with tree new_tree and
    first parent tree old_tree (None for a root commit), or None when they
    are more than 512, so that the filter is the truncated one.

    The paths are those of git's recursive tree diff, without rename
    detection: every non-tree entry added, removed or changed in mode or
    id, with every leading directory.  A subtree whose id is the same on
    both sides is skipped, and a tree that replaces a non-tree of the same
    name, or the reverse, is a removal and an addition.  entries maps a
    tree id to its name map, {raw name: (mode, hex id)}.
    """
    paths: set[bytes] = set()
    pending = [(b"", old_tree, new_tree)]
    while pending:
        prefix, old_oid, new_oid = pending.pop()
        old = entries(old_oid) if old_oid is not None else {}
        new = entries(new_oid) if new_oid is not None else {}
        for name in old.keys() | new.keys():
            a = old.get(name)
            b = new.get(name)
            if a == b:
                continue
            path = prefix + name
            a_tree = a[1] if a is not None and a[0] == TREE_MODE else None
            b_tree = b[1] if b is not None and b[0] == TREE_MODE else None
            if a_tree is not None or b_tree is not None:
                pending.append((path + b"/", a_tree, b_tree))
            if (a is not None and a_tree is None) or (b is not None and b_tree is None):
                _add_path(paths, path)
        if len(paths) > _MAX_CHANGED_PATHS:
            return None
    return paths


def _add_path(paths: set[bytes], path: bytes) -> None:
    """Add path and its leading directories, without a trailing "/"."""
    while path and path not in paths:
        paths.add(path)
        path = path.rpartition(b"/")[0]


# After the first ">" of the committer line: git's parse_commit_date reads
# the date there with strtoumax, which skips leading white space.
_DATE = re.compile(rb"[^>]*>[ \t\n\v\f\r]*\+?([0-9]+)")


def commit_date(committer: bytes) -> int:
    """The commit date git parses from a committer line's value, or 0."""
    m = _DATE.match(committer)
    return min(int(m.group(1)), 2**64 - 1) if m else 0


class CommitGraphWriter:
    """Collects commits, parents before children, and writes their
    commit-graph file.

    entries maps a tree id to its name map; it is read only for subtrees
    that differ from the first parent's.  Each path and leading directory
    is hashed once per writer, and a new path's hash resumes from its
    directory's (path_keys).
    """

    def __init__(self, entries: Callable[[str], dict[bytes, tuple[bytes, str]]]):
        self._entries = entries
        self._keys: dict = {}  # path_keys's memo
        # id -> (tree, parents, date, topological level, corrected date, filter)
        self._commits: dict[str, tuple[str, list[str], int, int, int, bytes]] = {}

    def add(self, oid: str, tree: str, parents: list[str], committer: bytes) -> None:
        commits = self._commits
        date = commit_date(committer)
        level = 0
        corrected = 0
        for parent in parents:
            _, _, _, parent_level, parent_corrected, _ = commits[parent]
            level = max(level, parent_level)
            corrected = max(corrected, parent_corrected)
        old_tree = commits[parents[0]][0] if parents else None
        commits[oid] = (
            tree,
            parents,
            date,
            min(level, _LEVEL_MAX - 1) + 1,
            max(date, corrected + 1),
            self._filter(changed_paths(old_tree, tree, self._entries)),
        )

    def _filter(self, paths: set[bytes] | None) -> bytes:
        """The Bloom filter of paths, as bloom.c builds it: 10 bits per
        path rounded up to whole bytes, and one byte when there are none."""
        if paths is None:
            return _TRUNCATED
        size = (len(paths) * _BITS_PER_ENTRY + 7) // 8 or 1
        bits = bytearray(size)
        modulus = size * 8
        memo = self._keys
        for path in paths:
            entry = memo.get(path)
            key = entry[0] if entry is not None else path_keys(path, memo)[0]
            for h in key:
                h %= modulus
                bits[h >> 3] |= 1 << (h & 7)
        return bytes(bits)

    def write(self, path: str) -> None:
        """Write the file at path, through a temporary file beside it."""
        commits = self._commits
        ids = sorted(commits)
        position = {oid: i for i, oid in enumerate(ids)}
        fanout = [0] * 256
        for oid in ids:
            fanout[int(oid[:2], 16)] += 1
        for i in range(1, 256):
            fanout[i] += fanout[i - 1]
        cdat = []
        gda2 = []
        gdo2 = []
        edges: list[int] = []
        bidx = []
        bdat = []
        filter_end = 0
        for oid in ids:
            tree, parents, date, level, corrected, bloom = commits[oid]
            slots = [position[p] for p in parents[:2]]
            slots += [_PARENT_NONE] * (2 - len(slots))
            if len(parents) > 2:
                slots[1] = _EXTRA_EDGES | len(edges)
                edges += [position[p] for p in parents[1:]]
                edges[-1] |= _LAST_EDGE
            cdat.append(
                bytes.fromhex(tree)
                + struct.pack(">IIII", *slots, level << 2 | (date >> 32) & 3, date & _M32)
            )
            offset = corrected - date
            if offset > _OFFSET_MAX:
                gdo2.append(struct.pack(">Q", offset))
                offset = _OFFSET_OVERFLOW | (len(gdo2) - 1)
            gda2.append(offset)
            filter_end += len(bloom)
            bidx.append(filter_end)
            bdat.append(bloom)
        n = len(ids)
        chunks = [
            (b"OIDF", struct.pack(">256I", *fanout)),
            (b"OIDL", bytes.fromhex("".join(ids))),
            (b"CDAT", b"".join(cdat)),
            (b"GDA2", struct.pack(f">{n}I", *gda2)),
        ]
        if gdo2:
            chunks.append((b"GDO2", b"".join(gdo2)))
        if edges:
            chunks.append((b"EDGE", struct.pack(f">{len(edges)}I", *edges)))
        chunks.append((b"BIDX", struct.pack(f">{n}I", *bidx)))
        header = struct.pack(">III", _HASH_VERSION, _NUM_HASHES, _BITS_PER_ENTRY)
        chunks.append((b"BDAT", header + b"".join(bdat)))
        table = []
        offset = 8 + 12 * (len(chunks) + 1)
        for chunk_id, data in chunks:
            table.append(struct.pack(">4sQ", chunk_id, offset))
            offset += len(data)
        table.append(struct.pack(">4sQ", b"\0\0\0\0", offset))
        body = b"".join((
            _SIGNATURE,
            bytes((1, 1, len(chunks), 0)),  # version, SHA-1, chunks, no base graphs
            *table,
            *(data for _, data in chunks),
        ))
        tmp = path + ".lock"
        with open(tmp, "wb") as f:
            f.write(body + sha1(body).digest())
        os.chmod(tmp, 0o444)
        os.replace(tmp, path)


class CommitGraph:
    """A commit-graph file read back: commit positions, each commit's tree
    and parents, and whether its Bloom filter rules a path out.

    Every chunk is checked against the file and the commit count when the
    file is read; a parent or EDGE position, a parent's topological level
    and a filter's bounds are checked when they are read.  Each failure
    raises RepositoryError.
    """

    def __init__(self, data: bytes, path: str):
        self.path = path
        if len(data) < 8 + 12 + 20:
            raise self._corrupt("truncated")
        if data[:4] != _SIGNATURE:
            raise self._corrupt("bad signature")
        if sha1(data[:-20]).digest() != data[-20:]:
            raise self._corrupt("checksum mismatch")
        version, hash_version, count, bases = data[4:8]
        if version != 1 or hash_version != 1 or bases:
            raise RepositoryError(
                f"unsupported commit-graph {path}: version {version}, "
                f"hash {hash_version}, {bases} base graphs"
            )
        end = len(data) - 20
        table_end = 8 + 12 * (count + 1)
        if table_end > end:
            raise self._corrupt("chunk table out of bounds")
        entries = [struct.unpack_from(">4sQ", data, 8 + 12 * i) for i in range(count + 1)]
        offsets = [offset for _, offset in entries]
        if offsets[0] < table_end or offsets[-1] != end or offsets != sorted(offsets):
            raise self._corrupt("chunk table out of bounds")
        chunks: dict[bytes, memoryview] = {}
        view = memoryview(data)
        for (chunk_id, offset), (_, next_offset) in zip(entries, entries[1:]):
            if chunk_id in chunks:
                raise self._corrupt(f"duplicate chunk {chunk_id!r}")
            chunks[chunk_id] = view[offset:next_offset]
        if not {b"OIDF", b"OIDL", b"CDAT"} <= chunks.keys():
            raise self._corrupt("missing a required chunk")
        if len(chunks[b"OIDF"]) != 1024:
            raise self._corrupt("OIDF chunk size")
        self._fanout = struct.unpack(">256I", chunks[b"OIDF"])
        if list(self._fanout) != sorted(self._fanout):
            raise self._corrupt("fanout not sorted")
        self.count = n = self._fanout[255]
        for chunk_id, size in ((b"OIDL", 20), (b"CDAT", 36), (b"GDA2", 4), (b"BIDX", 4)):
            if chunk_id in chunks and len(chunks[chunk_id]) != size * n:
                raise self._corrupt(f"{chunk_id.decode()} chunk size for {n} commits")
        for chunk_id, size in ((b"EDGE", 4), (b"GDO2", 8)):
            if chunk_id in chunks and len(chunks[chunk_id]) % size:
                raise self._corrupt(f"{chunk_id.decode()} chunk size")
        self._oids = bytes(chunks[b"OIDL"])
        self._cdat = chunks[b"CDAT"]
        self._edges = chunks.get(b"EDGE", b"")
        self._bidx = self._bdat = None
        if b"BIDX" in chunks and b"BDAT" in chunks:
            bdat = chunks[b"BDAT"]
            if len(bdat) < 12:
                raise self._corrupt("BDAT chunk size")
            if struct.unpack_from(">II", bdat) == (_HASH_VERSION, _NUM_HASHES):
                self._bidx = chunks[b"BIDX"]
                self._bdat = bdat[12:]

    def _corrupt(self, what: str) -> RepositoryError:
        return RepositoryError(f"corrupt commit-graph {self.path}: {what}")

    @classmethod
    def load(cls, gitdir: str) -> "CommitGraph | None":
        """The repository's objects/info/commit-graph, or None if it has
        none."""
        path = os.path.join(gitdir, "objects", "info", "commit-graph")
        try:
            with open(path, "rb") as f:
                data = f.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise RepositoryError(f"cannot read commit-graph {path}: {exc}") from exc
        return cls(data, path)

    def position(self, oid: str) -> int | None:
        """The commit's position in the file, or None if it is not there."""
        try:
            oid_bin = bytes.fromhex(oid)
        except ValueError:
            return None
        if len(oid_bin) != 20:
            return None
        return find_sorted_id(self._fanout, self._oids, oid_bin)

    def oid(self, pos: int) -> str:
        """The id of the commit at pos, which may come from a parent slot
        of the file and so is checked against the commit count."""
        if pos >= self.count:
            raise self._corrupt(f"parent position {pos} out of range")
        return self._oids[pos * 20 : pos * 20 + 20].hex()

    def commit(self, pos: int) -> tuple[str, list[str]]:
        """(tree id, parent ids) of the commit at pos."""
        tree = self._cdat[pos * 36 : pos * 36 + 20].hex()
        first, second, level = struct.unpack_from(">III", self._cdat, pos * 36 + 20)
        level >>= 2
        if first == _PARENT_NONE:
            if second != _PARENT_NONE:
                raise self._corrupt("second parent without a first")
            return tree, []
        parents = [self._parent(first, pos, level)]
        if second == _PARENT_NONE:
            return tree, parents
        if not second & _EXTRA_EDGES:
            parents.append(self._parent(second, pos, level))
            return tree, parents
        i = second & ~_EXTRA_EDGES
        while True:
            if 4 * i + 4 > len(self._edges):
                raise self._corrupt(f"EDGE index {i} out of range")
            (edge,) = struct.unpack_from(">I", self._edges, 4 * i)
            parents.append(self._parent(edge & ~_LAST_EDGE, pos, level))
            if edge & _LAST_EDGE:
                return tree, parents
            i += 1

    def _parent(self, parent: int, child: int, level: int) -> str:
        """The id of the commit at parent, a parent of the commit at child,
        whose topological level is level; see _not_below."""
        oid = self.oid(parent)
        if 0 < level < _LEVEL_MAX:
            (parent_level,) = struct.unpack_from(">I", self._cdat, parent * 36 + 28)
            if parent_level >> 2 >= level:
                raise self._not_below(parent, child)
        return oid

    def _not_below(self, parent: int, child: int) -> RepositoryError:
        """A parent must be below its child in topological level, as `git
        commit-graph verify` checks, unless the child has no level (0) or
        the capped maximum; so following parents cannot loop."""
        return self._corrupt(
            f"parent position {parent} is not below position {child} in topological level"
        )

    def skip(self, pos: int, keys: list[tuple[int, ...]]) -> int:
        """The position reached from pos by following first parents while
        each commit's filter rules keys out (see rules_out): that of the
        first commit with no parent or whose filter admits the path.  Every
        commit stepped over left the path as its first parent had it, so
        the commit there has the same file at the path as the one at pos.
        Only positions are followed, each checked as commit checks a
        parent; no id is decoded.  A walk that takes count steps has met
        some commit twice, and raises (see cycle)."""
        cdat = self._cdat
        first, level = struct.unpack_from(">I4xI", cdat, pos * 36 + 20)
        level >>= 2
        for _ in range(self.count):
            if first == _PARENT_NONE or not self.rules_out(pos, keys):
                return pos
            if first >= self.count:
                raise self._corrupt(f"parent position {first} out of range")
            parent_first, parent_level = struct.unpack_from(">I4xI", cdat, first * 36 + 20)
            parent_level >>= 2
            if 0 < level < _LEVEL_MAX and parent_level >= level:
                raise self._not_below(first, pos)
            pos, first, level = first, parent_first, parent_level
        raise self.cycle(pos)

    def cycle(self, pos: int) -> RepositoryError:
        """The error for a walk of parents that reached the commit at pos
        after more steps than the file has commits.  A graph commit's
        parents are graph commits, so such a walk has gone round a cycle,
        which the level check misses among commits of level 0 or the
        capped maximum."""
        return self._corrupt(f"parents from position {pos} form a cycle")

    def rules_out(self, pos: int, keys: list[tuple[int, ...]]) -> bool:
        """Whether the commit's filter lacks one of keys, the bloom_keys of
        a path and of its leading directories: then the commit left the
        path as its first parent had it.  False when the file has no
        usable filters or the commit's filter is empty."""
        bidx = self._bidx
        if bidx is None:
            return False
        (end,) = struct.unpack_from(">I", bidx, pos * 4)
        start = struct.unpack_from(">I", bidx, pos * 4 - 4)[0] if pos else 0
        if not start <= end <= len(self._bdat):
            raise self._corrupt(f"Bloom filter {start}..{end} out of range")
        modulus = (end - start) * 8
        if not modulus:
            return False
        bits = self._bdat
        for key in keys:
            for h in key:
                h %= modulus
                if not bits[start + (h >> 3)] >> (h & 7) & 1:
                    return True
        return False

