"""Rewriting a Java repository into its method-per-file equivalent.

The destination is a bare repository with an isomorphic commit graph:
one commit per source commit, same parent structure, same author,
committer, message, and encoding.  Signatures are not carried over.

It also holds objects/info/commit-graph, git's commit-graph file with
changed-path Bloom filters (see commitgraph), so that tracking and `git
log -- <path>` skip the commits that leave a path alone.  Each commit's
changed paths come from diffing the name maps its converted trees were
written from against its first parent's, so the written pack is never
read back.

A .java file is converted against the last version converted under the
same name: it is lexed against that version's LexBase, and a member that
the edit left alone takes its file names and blob ids from that version's
Walk, without being walked, named or rendered (see extract).  Every other
declaration is rendered once per distinct render key.
"""

from __future__ import annotations

import heapq
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from .commitgraph import CommitGraphWriter, commit_date
from .emit import LineFormat, RenderConfig, render
from .errors import LexError, ParseError, RepositoryError
from .extract import Declaration, Walk, extract
from .gitstore import FILE_MODES, TREE_MODE, CommitRecord, ObjectStore, RepoWriter
from .lexer import LexBase
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

    def to_dict(self) -> dict:
        return {
            "commits_processed": self.commits_processed,
            "files_emitted": self.files_emitted,
            "files_skipped": self.files_skipped,
            "declarations_extracted": self.declarations_extracted,
            "declarations_reused": self.declarations_reused,
            "wall_seconds": round(self.wall_seconds, 3),
        }


Content = TypeVar("Content")


def convert_source(
    source: str,
    config: ConversionConfig,
    emit: Callable[[str, Declaration], Content] | None = None,
    base: LexBase | None = None,
    walk: Walk | None = None,
) -> list[tuple[str, Content]]:
    """All (file name, content) pairs for one Java source text.

    Duplicate names keep the first occurrence.  emit(source, decl) gives a
    declaration's content, by default its rendering under config.render;
    base is as in extract.  Raises LexError or ParseError when the source
    cannot be processed.

    walk, given with base and the same config and emit each time, makes
    the conversion incremental: it holds the walk of the last conversion
    of the file base recorded (see extract).  A member whose record is
    reused gets the (file name, content) pairs it got then, without being
    walked, named or emitted.  Names are still taken in order, so a reused
    pair that now repeats an earlier name is dropped.  Each record then
    keeps its member's pairs; one with a dropped pair is removed, so that
    member is walked again next time.
    """
    if emit is None:
        def emit(source: str, decl: Declaration) -> bytes:
            return render(decl, config.render)
    methods, fields = extract(source, base, walk)
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
            pair = decl if reused else (name, emit(source, decl))
            out.append(pair)
            kept.append(pair)
        return kept

    kept_methods = take(methods, method_file_name)
    kept_fields = take(fields, field_file_name) if config.emit_fields else None
    if walk is not None:
        settled = []
        for rec in walk.members:
            pairs = tuple(kept_methods[rec.methods])
            field_pairs = () if kept_fields is None else tuple(kept_fields[rec.fields])
            if None not in pairs and None not in field_pairs:
                rec.kept = pairs, field_pairs
                settled.append(rec)
        walk.members = settled
    return out


def convert_blob(
    content: bytes,
    config: ConversionConfig,
    emit: Callable[[str, Declaration], Content] | None = None,
    base: LexBase | None = None,
    walk: Walk | None = None,
) -> list[tuple[str, Content]] | None:
    """Convert one .java blob as convert_source does; None when it cannot
    be decoded, lexed or parsed, or nests too deeply.  Any other exception
    is a bug and propagates."""
    if content.startswith(b"\xef\xbb\xbf"):
        content = content[3:]
    try:
        source = content.decode("utf-8")
    except UnicodeDecodeError:
        return None
    try:
        return convert_source(source, config, emit, base, walk)
    except (LexError, ParseError, RecursionError):
        return None


def _render_key(source: str, decl: Declaration, config: RenderConfig) -> tuple:
    """Everything that render(decl, config) reads, for one fixed config.

    Plain lines are whole source lines with comments spliced out, so under
    LineFormat.PLAIN they are the key.  Otherwise render reads the text of
    the declaration's token runs and its javadoc lines: the source from the
    first token of each run through its last.
    """
    javadoc = tuple(decl.javadoc_lines)
    if config.line_format is LineFormat.PLAIN:
        return javadoc, tuple(decl.plain_lines)
    offsets, ends = decl.file.offsets, decl.file.ends
    return (*(source[offsets[lo] : ends[hi - 1]] for lo, hi in decl.runs), javadoc)


@dataclass
class _Caches:
    trees: dict[str, str] = field(default_factory=dict)
    # converted tree id -> the name map it was written from
    converted: dict[str, dict[bytes, tuple[bytes, str]]] = field(default_factory=dict)
    # id of a blob copied as it is -> the id it was written under
    copied: dict[str, str] = field(default_factory=dict)
    blobs: dict[str, list[tuple[bytes, str]] | None] = field(default_factory=dict)
    # _render_key of a declaration -> id of its rendered blob
    rendered: dict[tuple, str] = field(default_factory=dict)
    # .java file name -> the last version of a file of that name lexed
    lexed: dict[bytes, LexBase] = field(default_factory=dict)
    # .java file name -> the walk of the conversion of that version, with
    # nothing to reuse when it failed after lexing
    walks: dict[bytes, Walk] = field(default_factory=dict)


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
        self.caches = _Caches()
        # renderings of this blob's new render keys, not yet written
        self._pending: dict[tuple, bytes] = {}
        self._emitted = 0

    def _emit(self, source: str, decl: Declaration) -> tuple:
        """The declaration's _render_key, its content in convert_blob's
        result.  The declaration is rendered into _pending unless a blob for
        that key was written before in this conversion."""
        config = self.config.render
        key = _render_key(source, decl, config)
        if key not in self.caches.rendered:
            self._pending[key] = render(decl, config)
        self._emitted += 1
        return key

    def _convert_java_blob(self, oid: str, *, java_name: bytes) -> list[tuple[bytes, str]] | None:
        """File names and blob ids of a .java blob's declarations.  The
        blob is converted against the last file called java_name, reusing
        the members it did not change.  A blob that fails to convert, or
        any blob under keep_original_java, is also copied from the content
        read here, after its declarations.  (java_name is keyword-only
        because bench/spans.py keys its cache-hit count on the positional
        arguments.)"""
        cached = self.caches.blobs.get(oid, False)
        if cached is not False:
            return cached
        _, content = self.store.read(oid)
        base = self.caches.lexed.setdefault(java_name, LexBase())
        walk = self.caches.walks.setdefault(java_name, Walk())
        emitted = self._emitted
        files = convert_blob(content, self.config, self._emit, base, walk)
        pending, self._pending = self._pending, {}
        if files is None:
            self.stats.files_skipped += 1
            result = None
        else:
            # Written only now: a blob that fails to convert writes no declaration.
            rendered = self.caches.rendered
            result = []
            for file_name, key in files:
                data = pending.pop(key, None)
                if data is not None:
                    rendered[key] = self.writer.write_blob(data)
                result.append((file_name.encode("utf-8"), rendered[key]))
            self.stats.files_emitted += len(result)
            extracted = self._emitted - emitted
            self.stats.declarations_extracted += extracted
            self.stats.declarations_reused += len(result) - extracted
        if result is None or self.config.keep_original_java:
            self._copy_blob(oid, content)
        self.caches.blobs[oid] = result
        return result

    def _copy_blob(self, oid: str, content: bytes | None = None) -> str:
        """The id oid's blob is written under; content, when given, is the
        blob's, so it is not read again."""
        copied = self.caches.copied.get(oid)
        if copied is None:
            if content is None:
                _, content = self.store.read(oid)
            copied = self.caches.copied[oid] = self.writer.write_blob(content)
        return copied

    def convert_tree(self, tree_oid: str) -> str:
        cached = self.caches.trees.get(tree_oid)
        if cached is not None:
            return cached
        # The first entry of a name wins: a later file that would take it
        # is dropped.
        out: dict[bytes, tuple[bytes, str]] = {}
        for name, (mode, oid) in self.store.read_tree(tree_oid).items():
            if mode == TREE_MODE:
                out.setdefault(name, (mode, self.convert_tree(oid)))
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
        self.caches.trees[tree_oid] = new_oid
        self.caches.converted[new_oid] = out
        return new_oid


def _select_refs(store: ObjectStore, ref_names: list[str] | None) -> dict[str, CommitRecord]:
    """Full ref name -> its commit (annotated tags peeled); each commit is
    read once."""
    all_refs = store.refs()
    selected: dict[str, str] = {}
    if ref_names is None:
        for name, oid in all_refs.items():
            if name.startswith("refs/heads/") or name.startswith("refs/tags/"):
                selected[name] = oid
    else:
        for name in ref_names:
            full = ObjectStore.expand_ref(name, all_refs)
            if full is None:
                raise RepositoryError(f"ref not found: {name}")
            selected[full] = all_refs[full]
    commits: dict[str, CommitRecord] = {}
    return {name: store.peel_to_commit(oid, commits) for name, oid in selected.items()}


def _topo_order(store: ObjectStore, tips: list[CommitRecord]) -> list[CommitRecord]:
    """The tips and all their ancestors, parents before children, ties
    broken by (commit date, id); each ancestor that is not a tip is read
    once."""
    commits = {tip.id: tip for tip in tips}
    stack = [parent for tip in tips for parent in tip.parents]
    while stack:
        oid = stack.pop()
        if oid in commits:
            continue
        record = commits[oid] = store.read_commit(oid)
        for parent in record.parents:
            if parent not in commits:
                stack.append(parent)

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
        refs = _select_refs(store, ref_names)
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
    commit_map: dict[str, str] = {}
    map_lines: list[str] = []
    with RepoWriter(dst_path) as writer:
        writer.init_bare()
        order = _topo_order(store, list(refs.values()))
        converter = _TreeConverter(store, writer, config, stats)
        graph = CommitGraphWriter(converter.caches.converted.__getitem__)
        for i, record in enumerate(order):
            new_tree = converter.convert_tree(record.tree)
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
            map_lines.append(f"{record.id}\t{new_id}")
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
        for line in map_lines:
            f.write(line + "\n")
    return stats
