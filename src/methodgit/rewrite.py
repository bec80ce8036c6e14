"""Rewriting a Java repository into its method-per-file equivalent.

The destination is a bare repository with an isomorphic commit graph:
one commit per source commit, same parent structure, same author,
committer, message, and encoding.  Signatures are not carried over.

It also holds objects/info/commit-graph, git's commit-graph file with
changed-path Bloom filters (see commitgraph), so that tracking and `git
log -- <path>` skip the commits that leave a path alone.  Each commit's
changed paths come from diffing the name maps its converted trees were
written from against its first parent's, so the written pack is never
read back.  Those name maps are kept only while the diff can need them,
as git's bloom.c keeps nothing per commit: a commit's root is live from
its conversion until the last commit naming it as first parent is added
to the commit-graph.  A converted tree has one record (_Held), with its
name map and the source trees memoised as converted to it, while a live
root or a kept map names it.  So memory grows with the trees of the live
roots (two in a linear history), not with the history.  A source tree that
recurs after its record went is converted again, from the memoised
conversions of its blobs, and writes nothing new.

A .java file is converted against the Walk of the last version converted
under the same name, the one record kept per name: it is lexed against that
version's LexBase, and a member the edit left alone takes its file names and
blob ids from it, without being walked, named or rendered (see extract).
Every other declaration is rendered, and addressed as git addresses every
file: by the blob id of its content.  A rendering whose id the destination
already holds is not written again.
"""

from __future__ import annotations

import heapq
import os
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, TypeVar

from .commitgraph import CommitGraphWriter, commit_date
from .emit import RenderConfig, render
from .errors import LexError, NotACommitError, ParseError, RepositoryError
from .extract import Declaration, Walk, extract
from .gitstore import FILE_MODES, TREE_MODE, CommitRecord, ObjectStore, RepoWriter, hash_object
from .naming import NamePolicy, field_file_name, method_file_name


@dataclass(frozen=True)
class ConversionConfig:
    render: RenderConfig = RenderConfig()
    emit_fields: bool = False
    keep_original_java: bool = False
    name_policy: NamePolicy = NamePolicy()


@dataclass
class ConversionStats:
    commits_processed: int = 0
    files_emitted: int = 0
    files_skipped: int = 0
    # of the files emitted, those whose declaration was walked, and those
    # taken from the last conversion of the same .java name
    declarations_extracted: int = 0
    declarations_reused: int = 0
    wall_seconds: float = 0.0
    # tags chosen implicitly that name a tree or a blob, not a commit
    refs_skipped: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {**asdict(self), "wall_seconds": round(self.wall_seconds, 3)}


Content = TypeVar("Content")


def convert_source(
    source: str,
    config: ConversionConfig,
    emit: Callable[[Declaration], Content] | None = None,
    walk: Walk | None = None,
) -> list[tuple[str, Content]]:
    """All (file name, content) pairs for one Java source text.

    Duplicate names keep the first occurrence.  emit(decl) gives a
    declaration's content, by default its rendering under config.render.
    Raises LexError or ParseError when the source cannot be processed.

    walk, given with the same config and emit each time, makes the
    conversion incremental: it holds the walk of the last conversion of an
    earlier version of the file (see extract), a new Walk by default.  A
    member whose record is reused gets the (file name, content) pairs it
    got then, without being walked, named or emitted.  Names are still
    taken in order, so a reused pair that now repeats an earlier name is
    dropped.  Walk.settle then keeps each member's pairs in its record.
    """
    if emit is None:
        def emit(decl: Declaration) -> bytes:
            return render(decl, config.render)
    if walk is None:
        walk = Walk()
    methods, fields = extract(source, walk)
    out: list[tuple[str, Content]] = []
    seen: set[str] = set()
    policy = config.name_policy

    def take(decls: list, file_name: Callable) -> list[tuple[str, Content] | None]:
        """The pair of each declaration, None for a dropped one; a reused
        declaration is its pair already."""
        kept: list[tuple[str, Content] | None] = []
        for decl in decls:
            reused = type(decl) is tuple
            name = decl[0] if reused else file_name(decl, policy)
            if name in seen:
                kept.append(None)
                continue
            seen.add(name)
            pair = decl if reused else (name, emit(decl))
            out.append(pair)
            kept.append(pair)
        return kept

    kept_methods = take(methods, method_file_name)
    kept_fields = take(fields, field_file_name) if config.emit_fields else []
    walk.settle(kept_methods, kept_fields)
    return out


def convert_blob(
    content: bytes,
    config: ConversionConfig,
    emit: Callable[[Declaration], Content] | None = None,
    walk: Walk | None = None,
) -> list[tuple[str, Content]] | None:
    """Convert one .java blob as convert_source does; None when it cannot
    be decoded, lexed or parsed, or nests too deeply.  walk is as in
    convert_source.  Any other exception is a bug and propagates."""
    if content.startswith(b"\xef\xbb\xbf"):
        content = content[3:]
    try:
        source = content.decode("utf-8")
    except UnicodeDecodeError:
        return None
    try:
        return convert_source(source, config, emit, walk)
    except (LexError, ParseError, RecursionError):
        return None


@dataclass(slots=True)
class _Held:
    """A converted tree while it is held: the name map it was written from,
    the source trees converted to it, and its holds, its callers' and those
    of the held maps that name it, each once per name."""

    tree: dict[bytes, tuple[bytes, str]]
    sources: list[str]
    holds: int = 1


class _TreeConverter:
    def __init__(
        self,
        store: ObjectStore,
        writer: RepoWriter,
        config: ConversionConfig,
        stats: ConversionStats,
    ):
        self.store = store
        self.writer = writer
        self.config = config
        self.stats = stats
        # source tree id -> converted tree id, while the converted tree is held
        self.trees: dict[str, str] = {}
        # converted tree id -> its record, while it has holds (see convert_tree)
        self.held: dict[str, _Held] = {}
        # id of a blob copied as it is -> the id it was written under
        self.copied: dict[str, str] = {}
        self.blobs: dict[str, list[tuple[bytes, str]] | None] = {}
        # .java file name -> the walk of the last version of a file of that
        # name lexed, with nothing to reuse when it failed after lexing
        self.walks: dict[bytes, Walk] = {}

    def _convert_java_blob(self, oid: str, *, java_name: bytes) -> list[tuple[bytes, str]] | None:
        """File names and blob ids of a .java blob's declarations.  The
        blob is converted against the last file called java_name, reusing
        the members it did not change.  A blob that fails to convert, or
        any blob under keep_original_java, is also copied from the content
        read here, after its declarations.  (java_name is keyword-only
        because bench/spans.py keys its cache-hit count on the positional
        arguments.)"""
        cached = self.blobs.get(oid, False)
        if cached is not False:
            return cached
        _, content = self.store.read(oid)
        walk = self.walks.setdefault(java_name, Walk())
        config = self.config.render
        rendered: list[tuple[str, bytes]] = []  # (blob id, data)

        def emit(decl: Declaration) -> str:
            data = render(decl, config)
            blob_id = hash_object(b"blob", data)
            rendered.append((blob_id, data))
            return blob_id

        files = convert_blob(content, self.config, emit, walk)
        result = None
        if files is None:
            self.stats.files_skipped += 1
        else:
            # Written only now: a blob that fails to convert writes no declaration.
            for blob_id, data in rendered:
                self.writer.write_object(b"blob", data, oid=blob_id)
            result = [(file_name.encode("utf-8"), blob_id) for file_name, blob_id in files]
            self.stats.files_emitted += len(result)
            self.stats.declarations_extracted += len(rendered)
            self.stats.declarations_reused += len(result) - len(rendered)
        if result is None or self.config.keep_original_java:
            self._copy_blob(oid, content)
        self.blobs[oid] = result
        return result

    def _copy_blob(self, oid: str, content: bytes | None = None) -> str:
        """The id oid's blob is written under; content, when given, is the
        blob's, so it is not read again."""
        copied = self.copied.get(oid)
        if copied is None:
            if content is None:
                _, content = self.store.read(oid)
            copied = self.copied[oid] = self.writer.write_blob(content)
        return copied

    def convert_tree(self, tree_oid: str) -> str:
        """The id of the converted tree, written with its subtrees.  The
        caller takes one hold on it and gives it back with release; the
        name map and memo entry of a converted tree are kept while it is
        held, by a caller or by the held map of a tree that names it."""
        new_oid = self.trees.get(tree_oid)
        if new_oid is not None:
            self.held[new_oid].holds += 1
            return new_oid
        # The first entry of a name wins: a later file that would take it
        # is dropped.  Each converted tree that out names is held by this call.
        out: dict[bytes, tuple[bytes, str]] = {}
        for name, (mode, oid) in self.store.read_tree(tree_oid).items():
            if mode == TREE_MODE:
                entry = (mode, self.convert_tree(oid))
                if out.setdefault(name, entry) is not entry:
                    self.release(entry[1])
                continue
            if mode == b"160000":
                out.setdefault(name, (mode, oid))
                continue
            if mode in FILE_MODES and name.endswith(b".java"):
                files = self._convert_java_blob(oid, java_name=name)
                if files is not None:
                    if self.config.keep_original_java:
                        out.setdefault(name, (mode, self._copy_blob(oid)))
                    for file_name, blob_oid in files:
                        out.setdefault(file_name, (b"100644", blob_oid))
                    continue
            out.setdefault(name, (mode, self._copy_blob(oid)))
        new_oid = self.writer.write_tree(out)
        self.trees[tree_oid] = new_oid
        held = self.held.get(new_oid)
        if held is None:
            self.held[new_oid] = _Held(out, [tree_oid])
        else:
            # Another source tree converted to the same tree, whose held
            # map already names these subtrees.
            held.holds += 1
            held.sources.append(tree_oid)
            for mode, oid in out.values():
                if mode == TREE_MODE:
                    self.release(oid)
        return new_oid

    def release(self, tree_oid: str) -> None:
        """Give back one hold on a converted tree.  A tree left with none
        loses its record and memo entries, and gives back the hold its map
        has on each tree it names; a source tree converted to it is then
        converted again if it recurs."""
        pending = [tree_oid]
        while pending:
            oid = pending.pop()
            held = self.held[oid]
            held.holds -= 1
            if held.holds == 0:
                del self.held[oid]
                for source in held.sources:
                    del self.trees[source]
                pending += [sub for mode, sub in held.tree.values() if mode == TREE_MODE]


def _select_refs(
    store: ObjectStore, ref_names: list[str] | None
) -> tuple[dict[str, CommitRecord], list[str]]:
    """Full ref name -> its commit (annotated tags peeled), each commit read
    once; and, without ref_names, the sorted names of the refs skipped for
    naming a tree or a blob.  A named one raises NotACommitError."""
    all_refs = store.refs()
    if ref_names is None:
        selected = {name: oid for name, oid in all_refs.items()
                    if name.startswith(("refs/heads/", "refs/tags/"))}
    else:
        selected = {}
        for name in ref_names:
            full = ObjectStore.expand_ref(name, all_refs)
            if full is None:
                raise RepositoryError(f"ref not found: {name}")
            selected[full] = all_refs[full]
    commits: dict[str, CommitRecord] = {}
    out: dict[str, CommitRecord] = {}
    skipped: list[str] = []
    for name, oid in selected.items():
        try:
            commit_id, record = store.peel(oid, commits.__contains__)
            out[name] = commits.setdefault(commit_id, record)
        except NotACommitError:
            if ref_names is not None:
                raise
            skipped.append(name)
    return out, sorted(skipped)


def _topo_order(store: ObjectStore, tips: list[CommitRecord]) -> list[CommitRecord]:
    """The tips and all their ancestors, parents before children, ties
    broken by (commit date, id); each ancestor that is not a tip is read
    once.  A parent missing behind a shallow clone's boundary raises
    RepositoryError naming the boundary."""
    commits = {tip.id: tip for tip in tips}
    stack = [(parent, tip.id) for tip in tips for parent in tip.parents]
    while stack:
        oid, child = stack.pop()
        if oid in commits:
            continue
        try:
            record = commits[oid] = store.read_commit(oid)
        except RepositoryError:
            if child in store.shallow() and not store.contains(oid):
                raise RepositoryError(
                    f"shallow clone: commit {child} is on the shallow boundary "
                    f"({os.path.join(store.commondir, 'shallow')}) and its parent "
                    f"{oid} is missing; run `git fetch --unshallow` in the source "
                    "repository first"
                ) from None
            raise
        for parent in record.parents:
            if parent not in commits:
                stack.append((parent, oid))

    children: dict[str, list[str]] = {oid: [] for oid in commits}
    pending: dict[str, int] = {}
    for oid, record in commits.items():
        pending[oid] = len(record.parents)
        for parent in record.parents:
            children[parent].append(oid)

    ready = [(commit_date(r.committer), oid) for oid, r in commits.items() if not r.parents]
    heapq.heapify(ready)
    order: list[CommitRecord] = []
    while ready:
        _, oid = heapq.heappop(ready)
        order.append(commits[oid])
        for child in children[oid]:
            pending[child] -= 1
            if pending[child] == 0:
                heapq.heappush(ready, (commit_date(commits[child].committer), child))
    if len(order) != len(commits):
        raise RepositoryError("commit graph contains a cycle")
    return order


def rewrite_history(
    src_path: str,
    dst_path: str,
    config: ConversionConfig | None = None,
    ref_names: list[str] | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> ConversionStats:
    """Rewrite the repository at src_path into a bare repository at dst_path.

    Writes a commit-map.tsv file (source id TAB destination id, in
    processing order) at the top of the destination repository.  dst_path
    must be absent or empty.  The repository is built in a temporary
    sibling directory and renamed into place, so dst_path appears only when
    the conversion succeeds.
    """
    start = time.monotonic()
    if os.path.exists(dst_path) and os.listdir(dst_path):
        raise RepositoryError(f"destination exists and is not empty: {dst_path}")
    store = ObjectStore(src_path)
    try:
        refs, skipped = _select_refs(store, ref_names)
        if not refs:
            raise RepositoryError(f"no branches or tags to convert in {src_path}")
        parent = os.path.dirname(os.path.abspath(dst_path))
        os.makedirs(parent, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix=".methodgit-", dir=parent)
        try:
            built = os.path.join(scratch, "repo")
            stats = _rewrite(store, refs, built, config or ConversionConfig(), progress)
            os.replace(built, dst_path)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    finally:
        store.close()
    stats.refs_skipped = skipped
    stats.wall_seconds = time.monotonic() - start
    return stats


def _rewrite(
    store: ObjectStore,
    refs: dict[str, CommitRecord],
    dst_path: str,
    config: ConversionConfig,
    progress: Callable[[int, int], None] | None,
) -> ConversionStats:
    stats = ConversionStats()
    commit_map: dict[str, str] = {}  # in processing order
    with RepoWriter(dst_path) as writer:
        writer.init_bare()
        order = _topo_order(store, list(refs.values()))
        converter = _TreeConverter(store, writer, config, stats)
        graph = CommitGraphWriter(lambda oid: converter.held[oid].tree)
        # A commit's root is live, holding its converted tree, from its
        # conversion until the last commit naming it as first parent is
        # added to the graph, which diffs against the root's map.
        children = Counter(record.parents[0] for record in order if record.parents)
        roots: dict[str, str] = {}  # live commit -> its converted tree
        for i, record in enumerate(order):
            new_tree = roots[record.id] = converter.convert_tree(record.tree)
            new_parents = [commit_map[p] for p in record.parents]
            new_id = writer.write_commit(
                tree=new_tree,
                parents=new_parents,
                author=record.author,
                committer=record.committer,
                message=record.message,
                encoding=record.encoding,
            )
            graph.add(new_id, new_tree, new_parents, record.committer)
            commit_map[record.id] = new_id
            if record.parents:
                first = record.parents[0]
                children[first] -= 1
                if not children[first]:
                    converter.release(roots.pop(first))
            if not children[record.id]:
                converter.release(roots.pop(record.id))
            if progress is not None and (i + 1) % 100 == 0:
                progress(i + 1, len(order))
    stats.commits_processed = len(order)
    graph.write(os.path.join(writer.path, "objects", "info", "commit-graph"))

    new_refs = {name: commit_map[commit.id] for name, commit in refs.items()}
    writer.write_refs(new_refs)

    head_ref = None
    kind, target = store.head_target()
    if kind == "ref" and target in new_refs:
        head_ref = target
    else:
        branches = sorted(n for n in new_refs if n.startswith("refs/heads/"))
        if branches:
            head_ref = branches[0]
    if head_ref is not None:
        writer.set_head(head_ref)

    with open(os.path.join(writer.path, "commit-map.tsv"), "w", encoding="utf-8") as f:
        for old_id, new_id in commit_map.items():
            f.write(f"{old_id}\t{new_id}\n")
    return stats
