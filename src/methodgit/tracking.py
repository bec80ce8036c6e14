"""Content-similarity tracking of files across a repository's history.

The walk runs newest to oldest.  A commit's tree and parents come from the
repository's commit-graph when it holds the commit, and else from the
commit object.  When the commit's changed-path Bloom filter rules the
tracked path out, the first parent has the same file at that path, so the
walk steps to it without reading a tree; it steps by commit-graph
position (CommitGraph.skip) and decodes only the commit where it stops,
as git's walk works on graph positions.  Otherwise it looks the tracked
path up in the parents' trees, one tree per path component, so a commit
costs only the trees that changed along that path.  Commits the graph does
not hold, and filters that are missing, empty or written with other
settings, take that lookup.  Each tree is read and decoded once
per id into gitstore's name map, {raw name: (mode, hex id)}, which is cached
and looked up by raw name bytes.  When the path disappears from the
parent, every file the commit deleted (and, with copy detection, every file
it retained) is a candidate, and the best candidate at or above the
threshold continues the chain as a rename or copy; of two equal scores the
smaller path wins.

A score is at most min(size)/max(size) of the two files, in bytes or in
lines by the metric, or 1/1 when both are empty.  So the first parent's
files are indexed once per tree id and metric, sorted by (size, path), as
three parallel columns of sizes, paths and blob ids; every index of one
FollowCaches shares one string per path.  From a FollowCaches' second
follow on, its name maps also share each equal name and (mode, hex id)
value, since successive versions of a directory repeat almost every entry.
A disappearance bisects the sizes to the target's size and walks outward,
always on the side whose next bound is larger.  It stops at the first
bound strictly below the best score, and a candidate whose bound only
equals it is scored only if its path is smaller than the best's.  The
winner, its score and its kind are those of scoring every candidate in
path order, even when the best falls below the threshold.  Whether a
candidate was deleted is one lookup in the commit's own tree, made only
for the candidates visited (with copy detection, only for the winner), so
that tree is never flattened.  Byte sizes come from the object's pack or
loose header, as git's rename detection takes them from oid_object_info,
all that an index lacks in one ObjectStore.sizes pass, and are memoised
per blob id, so under the byte metric a candidate that is not visited is
never inflated; line counts need the fingerprint.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

from .commitgraph import path_keys
from .errors import TrackError
from .gitstore import FILE_MODES, TREE_MODE, ObjectStore

_CHUNK = 64


class PathNotFound(TrackError):
    pass


class AmbiguousStart(TrackError):
    pass


class Metric(enum.Enum):
    GIT_BYTES = "git-bytes"
    LINES = "lines"


@dataclass(frozen=True)
class SimilarityScore:
    """An unreduced similarity ratio in [0, 1]."""

    numerator: int
    denominator: int

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True)
class Fingerprint:
    chunks: Counter
    total_bytes: int
    lines: Counter
    line_count: int


def fingerprint(content: bytes) -> Fingerprint:
    """Chunk and line multisets of the content, keyed by the bytes themselves.

    Lines are split on LF with terminators kept; lines longer than 64 bytes
    contribute 64-byte chunks instead of one whole-line chunk.
    """
    if b"\r" in content:
        parts = content.split(b"\n")
        lines = [part + b"\n" for part in parts[:-1]]
        if parts[-1]:
            lines.append(parts[-1])
    else:
        # Without a CR, splitlines splits on LF alone, as above, in one pass.
        lines = content.splitlines(keepends=True)
    counted = Counter(lines)
    chunks = counted
    if counted and max(map(len, counted)) > _CHUNK:
        chunks = Counter()
        for line, n in counted.items():
            if len(line) <= _CHUNK:
                chunks[line] += n
            else:
                for i in range(0, len(line), _CHUNK):
                    chunks[line[i : i + _CHUNK]] += n
    return Fingerprint(
        chunks=chunks,
        total_bytes=len(content),
        lines=counted,
        line_count=len(lines),
    )


def _common(a: Counter, b: Counter, by_length: bool) -> int:
    """Size of the multiset intersection of a and b, each common piece
    weighed by its length if by_length; loops over the smaller Counter."""
    if len(a) > len(b):
        a, b = b, a
    get = b.get
    total = 0
    for piece, n in a.items():
        m = get(piece)
        if m:
            common = n if n < m else m
            total += len(piece) * common if by_length else common
    return total


def similarity(a: Fingerprint, b: Fingerprint, metric: Metric) -> SimilarityScore:
    """Similarity of two fingerprints; identical empty contents score 1/1."""
    if metric is Metric.GIT_BYTES:
        if a.total_bytes == 0 and b.total_bytes == 0:
            return SimilarityScore(1, 1)
        num = _common(a.chunks, b.chunks, True)
        return SimilarityScore(num, max(a.total_bytes, b.total_bytes))
    if a.line_count == 0 and b.line_count == 0:
        return SimilarityScore(1, 1)
    num = _common(a.lines, b.lines, False)
    return SimilarityScore(num, max(a.line_count, b.line_count))


@dataclass(frozen=True)
class TrackerConfig:
    threshold: int = 60
    detect_copies: bool = False
    metric: Metric = Metric.GIT_BYTES

    def __post_init__(self) -> None:
        if not 1 <= self.threshold <= 100:
            raise TrackError(f"threshold must be in 1..100, got {self.threshold}")


class StepKind(enum.Enum):
    ADD = "ADD"
    MODIFY = "MODIFY"
    RENAME = "RENAME"
    COPY = "COPY"


@dataclass(frozen=True)
class TrackStep:
    commit_id: str
    kind: StepKind
    old_path: str | None
    new_path: str
    score: SimilarityScore | None


@dataclass
class FollowCaches:
    """Shared lookup state, reusable across follow() calls on one store.

    trees maps a tree id to its name map (ObjectStore.read_tree); sizes maps
    a blob id, sized or fingerprinted, to its size in bytes; candidates
    maps (tree id, metric) to every regular file under the tree, sorted by
    (size in the metric's unit, path), as three parallel tuples (sizes,
    paths, blob ids); paths maps each path _flatten built to its one
    string, so the indexes of all trees share a path's string; entries
    maps, from the second follow on, each raw name and (mode, hex id) value
    of the name maps read to its one object, so the name maps of all trees
    share an entry that did not change.  The two tables are kept apart
    because a raw name hashes as the path of the same text does, and
    comparing bytes with str is an error under python -bb.  The caches free
    what they share with themselves.  fingerprints maps a blob id to its
    Fingerprint; commits maps a commit id to (tree id, parent ids, position
    in the commit-graph or None); keys is commitgraph.path_keys's memo of
    Bloom keys by path; starts maps a ref a follow started from, or None
    for the branch tips, to its names and the commits they peel to, [(name,
    commit id)], sorted by name.  So a batch of follows sharing one caches
    sees the refs as they were at its first follow.  follows counts the
    follow() calls the caches served; a cold query, which serves one,
    shares no tree entry, as it would have nothing to share them with.
    """

    trees: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    candidates: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)
    entries: dict = field(default_factory=dict)
    fingerprints: dict = field(default_factory=dict)
    commits: dict = field(default_factory=dict)
    keys: dict = field(default_factory=dict)
    starts: dict = field(default_factory=dict)
    follows: int = 0


@dataclass(frozen=True)
class _Winner:
    score: SimilarityScore
    old_path: str
    kind: StepKind
    blob: str


def _commit(
    store: ObjectStore, oid: str, caches: FollowCaches, pos: int | None = None
) -> tuple[str, list[str], int | None]:
    """(tree id, parent ids, commit-graph position) of the commit, from
    the commit-graph when it holds the commit, else read; once per id.
    pos, when given, is the commit's position in the commit-graph."""
    entry = caches.commits.get(oid)
    if entry is None:
        graph = store.commit_graph()
        if pos is None and graph is not None:
            pos = graph.position(oid)
        if pos is not None:
            entry = (*graph.commit(pos), pos)
        else:
            record = store.read_commit(oid)
            entry = (record.tree, record.parents, None)
        caches.commits[oid] = entry
    return entry


def _peel(store: ObjectStore, oid: str, caches: FollowCaches) -> str:
    """oid peeled to a commit.  A commit the caches or the commit-graph
    hold is not read, and one that is read is cached."""
    graph = store.commit_graph()
    commit_id, record = store.peel(
        oid,
        lambda c: c in caches.commits or (graph is not None and graph.position(c) is not None),
    )
    if record is not None:
        caches.commits[commit_id] = (record.tree, record.parents, None)
    return commit_id


def _entries(
    store: ObjectStore, tree_oid: str, caches: FollowCaches
) -> dict[bytes, tuple[bytes, str]]:
    """The tree's name map, read once per id.  From the caches' second
    follow on, each name and (mode, hex id) value equal to one
    caches.entries holds is that object, so successive versions of a
    directory share their unchanged entries; a single follow shares none."""
    entries = caches.trees.get(tree_oid)
    if entries is None:
        if caches.follows > 1:
            entries = store.read_tree(tree_oid, share=caches.entries)
        else:
            entries = store.read_tree(tree_oid)
        caches.trees[tree_oid] = entries
    return entries


def _lookup(
    store: ObjectStore, tree_oid: str, path: str, caches: FollowCaches
) -> str | None:
    """The blob id of the regular file at path under the tree, or None."""
    try:
        raw_path = path.encode("utf-8", "surrogateescape")
    except UnicodeEncodeError:  # no name in a tree decodes to such a path
        return None
    *dirs, name = raw_path.split(b"/")
    for part in dirs:
        entry = _entries(store, tree_oid, caches).get(part)
        if entry is None or entry[0] != TREE_MODE:
            return None
        tree_oid = entry[1]
    entry = _entries(store, tree_oid, caches).get(name)
    if entry is None or entry[0] not in FILE_MODES:
        return None
    return entry[1]


def _flatten(store: ObjectStore, tree_oid: str, caches: FollowCaches) -> dict[str, str]:
    """path -> blob id for every regular file under the tree, built in one
    pass over the cached name maps; nothing per subtree is kept.  Each path
    is the one string caches.paths holds for it, from the first follow on."""
    flat = {}
    share = caches.paths.setdefault
    pending = [("", tree_oid)]
    while pending:
        prefix, oid = pending.pop()
        for raw_name, (mode, sub_oid) in _entries(store, oid, caches).items():
            path = prefix + raw_name.decode("utf-8", "surrogateescape")
            if mode == TREE_MODE:
                pending.append((path + "/", sub_oid))
            elif mode in FILE_MODES:
                flat[share(path, path)] = sub_oid
    return flat


def _candidates(
    store: ObjectStore, tree_oid: str, metric: Metric, caches: FollowCaches
) -> tuple[tuple[int, ...], tuple[str, ...], tuple[str, ...]]:
    """(sizes, paths, blob ids) of every regular file under the tree, sorted
    by (size, path); built once per tree id and metric, not once per
    disappearance."""
    key = (tree_oid, metric)
    columns = caches.candidates.get(key)
    if columns is None:
        flat = _flatten(store, tree_oid, caches)
        if metric is Metric.LINES:
            items = sorted(
                (_blob_fingerprint(store, oid, caches).line_count, path, oid)
                for path, oid in flat.items()
            )
        else:
            sizes = caches.sizes
            missing = list(dict.fromkeys(oid for oid in flat.values() if oid not in sizes))
            sizes.update(zip(missing, store.sizes(missing)))
            items = sorted((sizes[oid], path, oid) for path, oid in flat.items())
        columns = caches.candidates[key] = tuple(zip(*items)) if items else ((), (), ())
    return columns


def _blob_fingerprint(store: ObjectStore, oid: str, caches: FollowCaches) -> Fingerprint:
    """The blob's fingerprint, once per id; its byte size is memoised too."""
    fp = caches.fingerprints.get(oid)
    if fp is None:
        _, content = store.read(oid)
        fp = caches.fingerprints[oid] = fingerprint(content)
        caches.sizes[oid] = fp.total_bytes
    return fp


def resolve_start(
    store: ObjectStore, path: str, ref: str | None, caches: FollowCaches
) -> str:
    """The commit a walk of path starts from: ref's commit, or else the
    single branch tip that has path.  A ref, and the branch tips, are
    resolved and peeled once per caches (caches.starts)."""
    tips = caches.starts.get(ref)
    if tips is None:
        if ref is None:
            named = [(name, oid) for name, oid in sorted(store.refs().items())
                     if name.startswith("refs/heads/")]
        else:
            oid = store.resolve_ref(ref)
            if oid is None:
                raise TrackError(f"ref not found: {ref}")
            named = [(ref, oid)]
        tips = caches.starts[ref] = [(name, _peel(store, oid, caches)) for name, oid in named]
    containing: dict[str, list[str]] = {}
    for name, commit_id in tips:
        if _lookup(store, _commit(store, commit_id, caches)[0], path, caches) is not None:
            containing.setdefault(commit_id, []).append(name)
    if not containing:
        where = "on any branch" if ref is None else f"at {ref}"
        raise PathNotFound(f"path {path} not found {where}")
    if len(containing) > 1:
        names = sorted(n for branch in containing.values() for n in branch)
        raise AmbiguousStart(
            f"path {path} exists on multiple branch tips: {', '.join(names)}; "
            "pass a ref to choose one"
        )
    return next(iter(containing))


def _ahead(numerator: int, denominator: int, score: SimilarityScore) -> int:
    """Positive, zero or negative as numerator/denominator is above, equal
    to or below score; by cross-multiplication, as denominators are >= 1."""
    return numerator * score.denominator - score.numerator * denominator


def _disappearance(
    store: ObjectStore,
    commit_id: str,
    tree_oid: str,
    parent_tree_oid: str,
    blob_oid: str,
    config: TrackerConfig,
    caches: FollowCaches,
) -> _Winner | None:
    """Best rename/copy candidate for the blob that appeared at commit_id,
    scored against the first parent's files, whatever its score; the
    caller applies the threshold.  Of equal scores the smaller path wins."""
    target = _blob_fingerprint(store, blob_oid, caches)
    metric = config.metric
    size = target.line_count if metric is Metric.LINES else target.total_bytes
    sizes, paths, blobs = _candidates(store, parent_tree_oid, metric, caches)
    # Left of `right` every file is smaller than the target, so bounds fall
    # walking away from it on either side.
    right = bisect_left(sizes, size)
    left = right - 1
    end = len(sizes)
    square = size * size
    best: tuple[SimilarityScore, str, str] | None = None  # score, path, blob
    while True:
        # Next is the side with the larger bound, min/max: left's is
        # sizes[left]/size and right's size/sizes[right].
        if left >= 0 and (right == end or sizes[left] * sizes[right] > square):
            i = left
            left -= 1
        elif right < end:
            i = right
            right += 1
        else:
            break
        old_size = sizes[i]
        old_path = paths[i]
        if best is not None:
            top = max(old_size, size)
            # Two empty files bound their score by 1/1, at or above any best.
            ahead = _ahead(min(old_size, size), top, best[0]) if top else 1
            if ahead < 0:
                break  # the largest bound left is below the best score
            if ahead == 0 and old_path > best[1]:
                continue  # at most a tie, which the smaller path wins
        if not config.detect_copies and _lookup(store, tree_oid, old_path, caches) is not None:
            continue  # retained, and only deleted files are candidates
        old_oid = blobs[i]
        score = similarity(_blob_fingerprint(store, old_oid, caches), target, metric)
        if best is not None:
            ahead = _ahead(score.numerator, score.denominator, best[0])
            if ahead < 0 or (ahead == 0 and old_path > best[1]):
                continue
        best = (score, old_path, old_oid)
    if best is None:
        return None
    score, old_path, old_oid = best
    retained = config.detect_copies and _lookup(store, tree_oid, old_path, caches) is not None
    return _Winner(
        score=score,
        old_path=old_path,
        kind=StepKind.COPY if retained else StepKind.RENAME,
        blob=old_oid,
    )


def follow(
    store: ObjectStore,
    path: str,
    config: TrackerConfig,
    ref: str | None = None,
    caches: FollowCaches | None = None,
) -> list[TrackStep]:
    """Track a path backwards from the start commit to its introduction.

    Steps are returned newest first.  The walk prefers the first parent and
    falls back to later parents only when the path is absent; the last step
    is always an ADD.
    """
    caches = caches if caches is not None else FollowCaches()
    caches.follows += 1
    graph = store.commit_graph()
    commit_id = resolve_start(store, path, ref, caches)
    cur_path = path
    blob = _lookup(store, _commit(store, commit_id, caches)[0], cur_path, caches)
    keys = None  # cur_path's Bloom keys, made when a filter is first asked
    # A valid walk meets each graph commit at most once.
    graph_steps = graph.count if graph is not None else 0
    steps: list[TrackStep] = []
    while True:
        tree, parents, pos = _commit(store, commit_id, caches)
        if parents and pos is not None:
            graph_steps -= 1
            if graph_steps < 0:
                raise graph.cycle(pos)
            if keys is None:
                keys = path_keys(cur_path.encode("utf-8", "surrogateescape"), caches.keys)
            stop = graph.skip(pos, keys)
            if stop != pos:
                # Every commit stepped over kept the file at cur_path.
                commit_id = graph.oid(stop)
                tree, parents, pos = _commit(store, commit_id, caches, stop)
        chosen = None
        for parent in parents:
            parent_blob = _lookup(store, _commit(store, parent, caches)[0], cur_path, caches)
            if parent_blob is not None:
                chosen = (parent, parent_blob)
                break
        if chosen is not None:
            parent, parent_blob = chosen
            if parent_blob != blob:
                steps.append(
                    TrackStep(commit_id, StepKind.MODIFY, cur_path, cur_path, None)
                )
                blob = parent_blob
            commit_id = parent
            continue
        if parents:
            winner = _disappearance(
                store,
                commit_id,
                tree,
                _commit(store, parents[0], caches)[0],
                blob,
                config,
                caches,
            )
            if (
                winner is not None
                and winner.score.numerator * 100
                >= config.threshold * winner.score.denominator
            ):
                steps.append(
                    TrackStep(commit_id, winner.kind, winner.old_path, cur_path, winner.score)
                )
                cur_path = winner.old_path
                keys = None
                blob = winner.blob
                commit_id = parents[0]
                continue
        steps.append(TrackStep(commit_id, StepKind.ADD, None, cur_path, None))
        return steps


def count_renames(steps: list[TrackStep]) -> int:
    return sum(1 for s in steps if s.kind in (StepKind.RENAME, StepKind.COPY))


def steps_to_tsv(steps: list[TrackStep]) -> str:
    lines = ["commit\tkind\toldPath\tnewPath\tscore"]
    for s in steps:
        lines.append(
            "\t".join(
                (
                    s.commit_id,
                    s.kind.value,
                    s.old_path or "",
                    s.new_path,
                    str(s.score) if s.score is not None else "",
                )
            )
        )
    return "\n".join(lines) + "\n"


def steps_to_json(steps: list[TrackStep]) -> list[dict]:
    return [
        {
            "commit": s.commit_id,
            "kind": s.kind.value,
            "oldPath": s.old_path,
            "newPath": s.new_path,
            "score": str(s.score) if s.score is not None else None,
        }
        for s in steps
    ]
