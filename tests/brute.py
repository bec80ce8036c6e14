"""Independent brute-force reference tracker.

Recomputes similarity from raw bytes with quadratic multiset matching (no
hashing) and re-derives every walk decision, so agreement with follow() is
meaningful evidence rather than shared code.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from methodgit import ObjectStore
from methodgit.tracking import Fingerprint

_CHUNK = 64


def fraction(score) -> Fraction | None:
    """A SimilarityScore as an exact Fraction; None stays None."""
    return None if score is None else Fraction(score.numerator, score.denominator)


def _lines(content: bytes) -> list[bytes]:
    parts = content.split(b"\n")
    out = [p + b"\n" for p in parts[:-1]]
    if parts[-1]:
        out.append(parts[-1])
    return out


def split_fingerprint(content: bytes) -> Fingerprint:
    """tracking.fingerprint as it was written first: one bytes.split on LF,
    then a Counter of lines and, only when some line is longer than 64
    bytes, a second Counter of 64-byte chunks."""
    lines = _lines(content)
    counted = Counter(lines)
    chunks = counted
    if any(len(line) > _CHUNK for line in counted):
        chunks = Counter()
        for line, n in counted.items():
            if len(line) <= _CHUNK:
                chunks[line] += n
            else:
                for i in range(0, len(line), _CHUNK):
                    chunks[line[i : i + _CHUNK]] += n
    return Fingerprint(
        chunks=chunks, total_bytes=len(content), lines=counted, line_count=len(lines)
    )


def _multiset_common(a: list[bytes], b: list[bytes]) -> list[bytes]:
    rest = list(b)
    common = []
    for item in a:
        if item in rest:
            rest.remove(item)
            common.append(item)
    return common


def brute_similarity(a: bytes, b: bytes, metric: str) -> Fraction:
    la, lb = _lines(a), _lines(b)
    if metric == "lines":
        if not la and not lb:
            return Fraction(1)
        return Fraction(len(_multiset_common(la, lb)), max(len(la), len(lb)))

    def pieces(lines: list[bytes]) -> list[bytes]:
        out = []
        for line in lines:
            if len(line) <= _CHUNK:
                out.append(line)
            else:
                out.extend(
                    line[i : i + _CHUNK] for i in range(0, len(line), _CHUNK)
                )
        return out

    if not a and not b:
        return Fraction(1)
    matched = _multiset_common(pieces(la), pieces(lb))
    return Fraction(sum(len(p) for p in matched), max(len(a), len(b)))


def _flatten(store: ObjectStore, tree_oid: str, prefix: str = "") -> dict[str, str]:
    out: dict[str, str] = {}
    for raw_name, (mode, oid) in store.read_tree(tree_oid).items():
        name = raw_name.decode()
        if mode == b"40000":
            out.update(_flatten(store, oid, prefix + name + "/"))
        elif mode in (b"100644", b"100755"):
            out[prefix + name] = oid
    return out


def brute_follow(
    store: ObjectStore,
    path: str,
    start_commit: str,
    threshold: int,
    detect_copies: bool,
    metric: str,
) -> list[tuple[str, str, str | None, str, Fraction | None]]:
    """Steps as (commit, kind, oldPath, newPath, score) tuples, newest first."""
    steps: list[tuple[str, str, str | None, str, Fraction | None]] = []
    cur = path
    commit_id = start_commit
    blob = _flatten(store, store.read_commit(commit_id).tree)[cur]
    while True:
        record = store.read_commit(commit_id)
        hit = None
        for parent in record.parents:
            flat = _flatten(store, store.read_commit(parent).tree)
            if cur in flat:
                hit = (parent, flat[cur])
                break
        if hit is not None:
            parent, parent_blob = hit
            if parent_blob != blob:
                steps.append((commit_id, "MODIFY", cur, cur, None))
                blob = parent_blob
            commit_id = parent
            continue
        if record.parents:
            first = store.read_commit(record.parents[0])
            cur_flat = _flatten(store, record.tree)
            parent_flat = _flatten(store, first.tree)
            target = store.read(blob)[1]
            best = None
            for old_path in sorted(parent_flat):
                retained = old_path in cur_flat
                if retained and not detect_copies:
                    continue
                old_oid = parent_flat[old_path]
                score = brute_similarity(store.read(old_oid)[1], target, metric)
                if best is None or score > best[0]:
                    best = (
                        score,
                        old_path,
                        "COPY" if retained else "RENAME",
                        old_oid,
                    )
            if best is not None and best[0] >= Fraction(threshold, 100):
                steps.append((commit_id, best[2], best[1], cur, best[0]))
                cur = best[1]
                blob = best[3]
                commit_id = record.parents[0]
                continue
        steps.append((commit_id, "ADD", None, cur, None))
        return steps
