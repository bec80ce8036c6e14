"""History-rewriting unit tests: tree conversion, graph isomorphism,
ref handling, and conversion statistics."""

from __future__ import annotations

import os
import subprocess
from collections import Counter
from importlib import import_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import methodgit.rewrite
from methodgit import (
    ConversionConfig,
    LineFormat,
    ObjectStore,
    RenderConfig,
    RepoWriter,
    rewrite_history,
    tokenize,
)
from methodgit.emit import render
from methodgit.errors import LexError, ParseError, RepositoryError
from methodgit.extract import Walk
from methodgit.gitstore import hash_object
from methodgit.lexer import LexBase
from methodgit.lexer import tokenize as full_tokenize
from methodgit.rewrite import convert_blob, convert_source

from conftest import (
    AUTHOR,
    ENGINEER_JAVA,
    GETTER_PATH_NEW,
    GETTER_PATH_OLD,
    NESTED_JAVA,
    PERSON_JAVA,
    SETTER_PATH_NEW,
    SETTER_PATH_OLD,
    build_linear_repo,
    requires_git,
    write_tree_dict,
)
from repogen import generate_java_repo


def flatten(store: ObjectStore, tree_oid: str, prefix: str = "") -> dict[str, str]:
    out: dict[str, str] = {}
    for raw_name, (mode, oid) in store.read_tree(tree_oid).items():
        name = raw_name.decode()
        if mode == b"40000":
            out.update(flatten(store, oid, prefix + name + "/"))
        else:
            out[prefix + name] = oid
    return out


def head_files(path: str) -> dict[str, str]:
    store = ObjectStore(path)
    head = store.resolve_ref("HEAD")
    files = flatten(store, store.read_commit(head).tree)
    store.close()
    return files


def test_convert_source_names_person():
    files = convert_source(PERSON_JAVA, ConversionConfig())
    assert [name for name, _ in files] == [GETTER_PATH_OLD, SETTER_PATH_OLD]


def test_convert_source_emits_fields_on_request():
    files = convert_source(PERSON_JAVA, ConversionConfig(emit_fields=True))
    assert [name for name, _ in files] == [
        GETTER_PATH_OLD,
        SETTER_PATH_OLD,
        "Person#private_int_length.fjava",
    ]


def test_convert_source_deduplicates_names():
    src = """
    class D {
      void f() { int a = 1; }
      void f() { int b = 2; }
    }
    """
    files = convert_source(src, ConversionConfig())
    assert len(files) == 1
    assert b"a" in files[0][1]
    assert b"b" not in files[0][1]


def test_person_conversion_head_tree(person_repo, tmp_path):
    dst = str(tmp_path / "out.git")
    stats = rewrite_history(person_repo, dst)
    assert stats.commits_processed == 2
    assert stats.files_emitted == 4
    assert stats.files_skipped == 0
    assert sorted(head_files(dst)) == [GETTER_PATH_NEW, SETTER_PATH_NEW]


def test_graph_isomorphism_and_metadata(person_repo, tmp_path):
    dst = str(tmp_path / "out.git")
    rewrite_history(person_repo, dst)
    src_store = ObjectStore(person_repo)
    dst_store = ObjectStore(dst)
    pairs = []
    with open(os.path.join(dst, "commit-map.tsv"), encoding="utf-8") as f:
        for line in f:
            old, new = line.rstrip("\n").split("\t")
            pairs.append((old, new))
    assert len(pairs) == 2
    mapping = dict(pairs)
    for old, new in pairs:
        old_rec = src_store.read_commit(old)
        new_rec = dst_store.read_commit(new)
        assert new_rec.message == old_rec.message
        assert new_rec.author == old_rec.author
        assert new_rec.committer == old_rec.committer
        assert new_rec.parents == [mapping[p] for p in old_rec.parents]
    assert dst_store.head_target() == ("ref", "refs/heads/master")
    src_store.close()
    dst_store.close()


def _merge_history(src: str) -> tuple[str, str, str, str]:
    """base, then left and right on top of it, then their merge; the
    commit ids in that order."""
    writer = RepoWriter(src)
    writer.init_bare()

    def commit(files, parents, n):
        stamp = AUTHOR % (1700000000 + n * 60)
        return writer.write_commit(
            tree=write_tree_dict(writer, files),
            parents=parents,
            author=stamp,
            committer=stamp,
            message=b"c%d\n" % n,
        )

    base = commit({"A.java": b"class A { void f() {} }"}, [], 0)
    left = commit({"A.java": b"class A { void f() { go(); } }"}, [base], 1)
    right = commit(
        {"A.java": b"class A { void f() {} }", "B.java": b"class B { void g() {} }"},
        [base],
        2,
    )
    merge = commit(
        {
            "A.java": b"class A { void f() { go(); } }",
            "B.java": b"class B { void g() {} }",
        },
        [left, right],
        3,
    )
    writer.close()
    writer.write_refs({"refs/heads/master": merge})
    writer.set_head("refs/heads/master")
    return base, left, right, merge


def test_merge_topology_preserved(tmp_path):
    src = str(tmp_path / "src.git")
    _merge_history(src)
    dst = str(tmp_path / "dst.git")
    stats = rewrite_history(src, dst)
    assert stats.commits_processed == 4
    dst_store = ObjectStore(dst)
    new_merge = dst_store.resolve_ref("HEAD")
    record = dst_store.read_commit(new_merge)
    assert len(record.parents) == 2
    grandparents = {
        p
        for parent in record.parents
        for p in dst_store.read_commit(parent).parents
    }
    assert len(grandparents) == 1
    dst_store.close()


def test_conversion_reads_each_commit_once(tmp_path, monkeypatch):
    src = str(tmp_path / "src.git")
    base, left, right, merge = _merge_history(src)
    # Two annotated tags name the tip as well.
    stamp = AUTHOR % 1700000000
    with RepoWriter(src) as writer:
        tags = {
            f"refs/tags/v{i}": writer.write_object(
                b"tag", b"object %s\ntype commit\ntag v%d\ntagger %s\n\nv\n"
                % (merge.encode(), i, stamp),
            )
            for i in (1, 2)
        }
    writer.write_refs({"refs/heads/master": merge, **tags})
    reads = Counter()
    read = ObjectStore.read

    def counting_read(store, oid):
        result = read(store, oid)
        if result[0] == "commit":
            reads[oid] += 1
        return result

    monkeypatch.setattr(ObjectStore, "read", counting_read)
    rewrite_history(src, str(tmp_path / "dst.git"))
    # The tip's only read is the one that peels its ref to a commit.
    assert reads == {base: 1, left: 1, right: 1, merge: 1}


def test_conversion_reads_each_copied_blob_once(tmp_path, monkeypatch):
    # README.md, docs/a.txt and Broken.java, which does not parse, stay
    # while Person.java changes beside them, so every commit has a new root
    # tree that holds them.
    src = str(tmp_path / "src.git")
    snapshots = [
        {
            "Person.java": PERSON_JAVA.replace("length", f"length{i}").encode(),
            "Broken.java": b"class Broken {",
            "README.md": b"# readme\n",
            "docs/a.txt": b"a\n" if i < 3 else b"b\n",
        }
        for i in range(6)
    ]
    build_linear_repo(src, snapshots)
    reads = Counter()
    read = ObjectStore.read

    def counting_read(store, oid):
        result = read(store, oid)
        if result[0] == "blob":
            reads[oid] += 1
        return result

    for keep_java in (False, True):
        reads.clear()
        monkeypatch.setattr(ObjectStore, "read", counting_read)
        dst = str(tmp_path / f"dst-{keep_java}.git")
        stats = rewrite_history(src, dst, ConversionConfig(keep_original_java=keep_java))
        monkeypatch.undo()
        # Six Person.java versions, Broken.java, README.md, and two versions
        # of docs/a.txt.
        assert len(reads) == 10 and set(reads.values()) == {1}
        assert stats.files_skipped == 1
        files = head_files(dst)
        assert files["Broken.java"] == hash_object(b"blob", b"class Broken {")
        assert ("Person.java" in files) is keep_java


def test_non_java_files_pass_through(tmp_path):
    src = str(tmp_path / "src.git")
    build_linear_repo(
        src,
        [
            {
                "Person.java": PERSON_JAVA.encode(),
                "docs/readme.md": b"# hi\n",
                "data.bin": bytes(range(256)),
            }
        ],
    )
    dst = str(tmp_path / "dst.git")
    rewrite_history(src, dst)
    files = head_files(dst)
    assert "docs/readme.md" in files
    assert "data.bin" in files
    assert "Person.java" not in files


def test_keep_java_retains_original(person_repo, tmp_path):
    dst = str(tmp_path / "dst.git")
    rewrite_history(
        person_repo, dst, ConversionConfig(keep_original_java=True)
    )
    files = head_files(dst)
    assert "Engineer.java" in files
    assert GETTER_PATH_NEW in files


def test_undecodable_java_is_skipped_and_kept(tmp_path):
    src = str(tmp_path / "src.git")
    bogus = b"\xff\xfe\x00broken"
    build_linear_repo(
        src, [{"Bad.java": bogus, "Good.java": b"class Good { void f() {} }"}]
    )
    dst = str(tmp_path / "dst.git")
    stats = rewrite_history(src, dst)
    assert stats.files_skipped == 1
    assert stats.files_emitted == 1
    files = head_files(dst)
    assert "Bad.java" in files
    store = ObjectStore(dst)
    assert store.read(files["Bad.java"])[1] == bogus
    store.close()


def test_unparseable_java_is_skipped_and_kept(tmp_path):
    src = str(tmp_path / "src.git")
    build_linear_repo(src, [{"Broken.java": b"class Broken { void f() { "}])
    dst = str(tmp_path / "dst.git")
    stats = rewrite_history(src, dst)
    assert stats.files_skipped == 1
    assert "Broken.java" in head_files(dst)


# Tokens spliced into the sources: declaration keywords, delimiters, and
# openers of literals and comments that the lexer cannot close.
MUTATION_TOKENS = (
    "class", "enum", "interface", "record", "@", "{", "}", "(", ")", ";", ",",
    "=", "<", ">", "new", "default", "sealed", "->", ".", "X", "int", '"', "'", "/*",
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((PERSON_JAVA, NESTED_JAVA)),
    st.lists(
        st.tuples(
            st.sampled_from(("delete", "insert", "replace", "swap")),
            st.integers(min_value=0, max_value=10**6),
            st.sampled_from(MUTATION_TOKENS),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_convert_blob_returns_files_or_none_on_mutated_java(source, edits):
    pieces = list(tokenize(source).tokens)
    for op, pos, text in edits:
        i = pos % len(pieces)
        if op == "delete" and len(pieces) > 1:
            del pieces[i]
        elif op == "insert":
            pieces.insert(i, text)
        elif op == "replace":
            pieces[i] = text
        else:
            pieces[i - 1], pieces[i] = pieces[i], pieces[i - 1]
    result = convert_blob(" ".join(pieces).encode(), ConversionConfig(emit_fields=True))
    assert result is None or all(
        isinstance(name, str) and isinstance(data, bytes) for name, data in result
    )


def test_convert_blob_lets_internal_errors_propagate(monkeypatch):
    def broken(source, base=None, walk=None):
        raise KeyError("walker bug")

    monkeypatch.setattr(methodgit.rewrite, "extract", broken)
    with pytest.raises(KeyError):
        convert_blob(PERSON_JAVA.encode(), ConversionConfig())


def test_gitlink_entries_are_preserved(tmp_path):
    src = str(tmp_path / "src.git")
    writer = RepoWriter(src)
    writer.init_bare()
    tree = writer.write_tree(
        {b"vendored": (b"160000", "a" * 40), b"x.txt": (b"100644", writer.write_blob(b"x\n"))}
    )
    stamp = AUTHOR % 1700000000
    cid = writer.write_commit(
        tree=tree, parents=[], author=stamp, committer=stamp, message=b"c\n"
    )
    writer.close()
    writer.write_refs({"refs/heads/master": cid})
    dst = str(tmp_path / "dst.git")
    rewrite_history(src, dst)
    store = ObjectStore(dst)
    head = store.resolve_ref("HEAD")
    entries = store.read_tree(store.read_commit(head).tree)
    assert entries[b"vendored"] == (b"160000", "a" * 40)
    store.close()


def test_ref_subset_selection(tmp_path):
    src = str(tmp_path / "src.git")
    writer = RepoWriter(src)
    writer.init_bare()

    def commit(files, parents, n):
        stamp = AUTHOR % (1700000000 + n * 60)
        return writer.write_commit(
            tree=write_tree_dict(writer, files),
            parents=parents,
            author=stamp,
            committer=stamp,
            message=b"c%d\n" % n,
        )

    main_tip = commit({"A.java": b"class A { void f() {} }"}, [], 0)
    side_tip = commit({"B.java": b"class B { void g() {} }"}, [main_tip], 1)
    writer.close()
    writer.write_refs(
        {"refs/heads/master": main_tip, "refs/heads/side": side_tip}
    )
    writer.set_head("refs/heads/master")

    dst = str(tmp_path / "dst.git")
    stats = rewrite_history(src, dst, ref_names=["refs/heads/master"])
    assert stats.commits_processed == 1
    store = ObjectStore(dst)
    assert sorted(store.refs()) == ["refs/heads/master"]
    store.close()


def test_head_falls_back_to_first_branch(tmp_path):
    src = str(tmp_path / "src.git")
    writer = RepoWriter(src)
    writer.init_bare()
    stamp = AUTHOR % 1700000000
    cid = writer.write_commit(
        tree=write_tree_dict(writer, {"A.java": b"class A { void f() {} }"}),
        parents=[],
        author=stamp,
        committer=stamp,
        message=b"c\n",
    )
    writer.close()
    writer.write_refs({"refs/heads/trunk": cid})
    writer.set_head("refs/heads/gone")
    dst = str(tmp_path / "dst.git")
    rewrite_history(src, dst)
    store = ObjectStore(dst)
    assert store.head_target() == ("ref", "refs/heads/trunk")
    store.close()


def test_empty_source_rejected(tmp_path):
    src = str(tmp_path / "src.git")
    writer = RepoWriter(src)
    writer.init_bare()
    with pytest.raises(RepositoryError):
        rewrite_history(src, str(tmp_path / "dst.git"))
    assert os.listdir(tmp_path) == ["src.git"]


@pytest.mark.parametrize("existing", [False, True])
def test_destination_appears_only_when_complete(person_repo, tmp_path, existing):
    out = tmp_path / "out"
    if existing:
        (out / "dst.git").mkdir(parents=True)
    rewrite_history(person_repo, str(out / "dst.git"))
    assert os.listdir(out) == ["dst.git"]
    assert sorted(head_files(str(out / "dst.git"))) == [GETTER_PATH_NEW, SETTER_PATH_NEW]


def test_conversion_is_deterministic(tmp_path):
    src = str(tmp_path / "src.git")
    build_linear_repo(
        src,
        [
            {"Person.java": PERSON_JAVA.encode(), "note.txt": b"n\n"},
            {"Engineer.java": ENGINEER_JAVA.encode(), "note.txt": b"n\n"},
        ],
    )

    def convert_to(name: str) -> dict[str, bytes]:
        dst = str(tmp_path / name)
        rewrite_history(src, dst)
        out = {}
        objects = os.path.join(dst, "objects")
        for root, _dirs, files in os.walk(objects):
            for fname in files:
                full = os.path.join(root, fname)
                rel = os.path.relpath(full, dst)
                with open(full, "rb") as f:
                    out[rel] = f.read()
        with open(os.path.join(dst, "packed-refs"), "rb") as f:
            out["packed-refs"] = f.read()
        return out

    assert convert_to("one.git") == convert_to("two.git")


def test_plain_mode_emits_source_lines(person_repo, tmp_path):
    from methodgit import LineFormat

    dst = str(tmp_path / "dst.git")
    rewrite_history(
        person_repo,
        dst,
        ConversionConfig(render=RenderConfig(line_format=LineFormat.PLAIN)),
    )
    files = head_files(dst)
    store = ObjectStore(dst)
    content = store.read(files[GETTER_PATH_NEW])[1]
    store.close()
    assert content == b"  public int getHeight() {\n    return height;\n  }\n"


def test_rename_limit_policy_applies(tmp_path):
    from methodgit import NamePolicy

    long_name = "m" + "x" * 300
    src = str(tmp_path / "src.git")
    build_linear_repo(
        src,
        [{"A.java": f"class A {{ void {long_name}() {{}} }}".encode()}],
    )
    dst = str(tmp_path / "dst.git")
    rewrite_history(
        src,
        dst,
        ConversionConfig(name_policy=NamePolicy(max_file_name_bytes=80)),
    )
    (path,) = head_files(dst)
    assert len(path.encode("utf-8")) <= 80
    assert path.endswith(".mjava")


@requires_git
def test_converted_repo_passes_fsck(person_repo, tmp_path):
    dst = str(tmp_path / "dst.git")
    rewrite_history(person_repo, dst)
    for command in (["fsck", "--strict"], ["commit-graph", "verify"]):
        result = subprocess.run(["git", *command], cwd=dst, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


@requires_git
def test_git_follow_agrees_on_fixture(person_repo, tmp_path):
    dst = str(tmp_path / "dst.git")
    rewrite_history(person_repo, dst)

    def subjects(threshold: str) -> list[str]:
        return subprocess.run(
            [
                "git", "log", "--follow", "--format=%s",
                f"-M{threshold}", "--", GETTER_PATH_NEW,
            ],
            cwd=dst,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.splitlines()

    # At 60% git itself crosses the rename, reaching both commits.
    assert subjects("60%") == ["commit 1", "commit 0"]

# Declarations that render alike from different places, and ones that
# differ only outside their tokens.  Two files are called Util.java, so one
# is lexed against the other.
UTIL_A = """\
package a;
/** Util. */
class Util {
  int twin(int x) { return x + 1; }
  /** One. */
  int doc() { return 1; }
  int f = 1, g = f + 1; int h() { return 2; } int k; // trailing
  @Deprecated int[] arr = {1, 2}, brr;
  int same() { return (int) 2L; } int same2() { return 3; }
}
"""

UTIL_B = """\
package b;
class Util {
  int twin(int x) { return x + 1; }
  /** Two. */
  int doc() { return 1; }
  int f = 1, g = f + 2; int h() { return 2; } int k = 5;
  @Deprecated int[] arr = {1, 2}, brr;
}
"""

TWINS = """\
class Left { int twin(int x) { return x + 1; } int w = 0, v; }
class Right { int twin(int x) { return x + 1; } long w = 0, u; int v; }
"""

MEMO_SNAPSHOTS = [
    {"a/Util.java": UTIL_A, "b/Util.java": UTIL_B, "c/Twins.java": TWINS},
    {"a/Util.java": UTIL_A.replace("x + 1", "x + 2"), "b/Util.java": UTIL_B,
     "c/Twins.java": TWINS},
    {"a/Util.java": UTIL_A.replace("x + 1", "x + 2"),
     "b/Util.java": UTIL_B.replace("/** Two. */", "/** Three. */").replace("k = 5", "k = 6"),
     "c/Twins.java": TWINS.replace("int w = 0, u;", "int w = 1, u;")},
    {"a/Util.java": UTIL_A.replace("// trailing", "// changed").replace("/** One. */", ""),
     "b/Util.java": UTIL_B, "c/Twins.java": TWINS + "// end\n"},
]

MEMO_CONFIGS = [
    RenderConfig(),
    RenderConfig(heuristic1=False),
    RenderConfig(heuristic2=False),
    RenderConfig(heuristic1=False, heuristic2=False),
    RenderConfig(line_format=LineFormat.PLAIN),
]


def assert_files_render_fresh(
    src: ObjectStore, dst: ObjectStore, src_tree: str, dst_tree: str,
    config: ConversionConfig,
) -> int:
    """Check that every file the conversion emitted for a .java blob is a
    fresh render of a fresh extract of that blob; returns how many files
    were checked.  Names repeat as the converter handles them: first wins."""
    emitted = {name: oid for name, (_, oid) in dst.read_tree(dst_tree).items()}
    seen: set[bytes] = set()
    checked = 0
    for entry_name, (mode, oid) in src.read_tree(src_tree).items():
        files = None
        if mode == b"40000":
            checked += assert_files_render_fresh(src, dst, oid, emitted[entry_name], config)
        elif entry_name.endswith(b".java"):
            files = convert_blob(src.read(oid)[1], config)
        if files is None:
            seen.add(entry_name)
            continue
        for name, data in files:
            if name.encode() in seen:
                continue
            seen.add(name.encode())
            assert emitted[name.encode()] == hash_object(b"blob", data), name
            checked += 1
    return checked


@pytest.mark.parametrize("history", ["repogen", "crafted"])
@pytest.mark.parametrize("render_config", MEMO_CONFIGS, ids=["h1-h2", "h2", "h1", "none", "plain"])
def test_memoised_conversion_equals_fresh_rendering(tmp_path, monkeypatch, history, render_config):
    src = str(tmp_path / "src.git")
    if history == "repogen":
        generate_java_repo(src, n_commits=14, n_files=6, seed=11)
    else:
        build_linear_repo(src, [
            {path: text.encode() for path, text in snap.items()} for snap in MEMO_SNAPSHOTS
        ])
    renders = 0
    real_render = methodgit.rewrite.render

    def counted(decl, config):
        nonlocal renders
        renders += 1
        return real_render(decl, config)

    monkeypatch.setattr(methodgit.rewrite, "render", counted)
    config = ConversionConfig(render=render_config, emit_fields=True)
    dst = str(tmp_path / "dst.git")
    stats = rewrite_history(src, dst, config)
    monkeypatch.undo()
    checked = 0
    with open(os.path.join(dst, "commit-map.tsv"), encoding="utf-8") as f:
        pairs = [line.split() for line in f]
    with ObjectStore(src) as src_store, ObjectStore(dst) as dst_store:
        for src_commit, dst_commit in pairs:
            checked += assert_files_render_fresh(
                src_store, dst_store,
                src_store.read_commit(src_commit).tree,
                dst_store.read_commit(dst_commit).tree,
                config,
            )
    assert checked >= stats.files_emitted > 0
    assert renders <= stats.files_emitted
    if history == "crafted":
        # Declarations repeat, so fewer are rendered than emitted.
        assert renders < stats.files_emitted


def test_every_lex_of_a_conversion_goes_through_extracts_tokenize(tmp_path, monkeypatch):
    """Per-layer lexer metrics wrap methodgit.extract.tokenize: every blob
    a conversion lexes must pass through it, and the tokens it returns must
    be those of a full lex."""
    src = str(tmp_path / "src.git")
    generate_java_repo(src, n_commits=10, n_files=5, seed=5)
    lexed: list[tuple[str, int]] = []
    # import_module: the package rebinds the name extract to the function.
    m_extract = import_module("methodgit.extract")
    real_tokenize = m_extract.tokenize

    def counted(source, *args):
        result = real_tokenize(source, *args)
        lexed.append((source, len(result.tokens)))
        return result

    converted = 0
    real_convert_blob = methodgit.rewrite.convert_blob

    def counted_blob(*args):
        nonlocal converted
        converted += 1
        return real_convert_blob(*args)

    monkeypatch.setattr(m_extract, "tokenize", counted)
    monkeypatch.setattr(methodgit.rewrite, "convert_blob", counted_blob)
    rewrite_history(src, str(tmp_path / "dst.git"))
    monkeypatch.undo()
    assert len(lexed) == converted > 10
    assert [n for _, n in lexed] == [len(full_tokenize(source).tokens) for source, _ in lexed]


def test_a_blob_that_fails_to_render_writes_no_object(tmp_path):
    # extract walks blocks without recursing; the tagger recurses per block
    # and gives up on the second method, after the first was rendered.
    deep = "class A { int g() { return 1; } void f() {" + "if (x) {" * 2000 + "}" * 2000 + "} }"
    config = ConversionConfig()
    assert convert_blob(deep.encode(), config) is None
    (g,) = convert_source("class A { int g() { return 1; } }", config)
    src = str(tmp_path / "src.git")
    build_linear_repo(src, [{"A.java": deep.encode()}])
    dst = str(tmp_path / "dst.git")
    stats = rewrite_history(src, dst, config)
    assert stats.files_skipped == 1
    with ObjectStore(dst) as store:
        assert not store.contains(hash_object(b"blob", g[1]))


# -- incremental conversion: reused members against a conversion from scratch


def convert_or_error(text: str, config: ConversionConfig, *args):
    """convert_source's pairs, or the name of the error it raised."""
    try:
        return convert_source(text, config, *args)
    except (LexError, ParseError) as e:
        return type(e).__name__


def incremental_against_fresh(versions: list[str], config: ConversionConfig) -> list[int]:
    """Convert the versions in turn against one base and walk, as a
    conversion does with the files of one name, and check each result
    against a conversion from scratch; returns the number of declarations
    reused at each version."""
    base, walk = LexBase(), Walk()
    emitted = 0

    def emit(source: str, decl) -> bytes:
        nonlocal emitted
        emitted += 1
        return render(decl, config.render)

    reused = []
    for text in versions:
        emitted = 0
        got = convert_or_error(text, config, emit, base, walk)
        assert got == convert_or_error(text, config, None, None), text
        reused.append(len(got) - emitted if isinstance(got, list) else 0)
    return reused


PLAIN_FIELDS = ConversionConfig(render=RenderConfig(line_format=LineFormat.PLAIN), emit_fields=True)

DOCUMENTED = """\
class A {
  int a() { return 1; }
  /** Doc one. */
  int b() { return 2; }
  int c() { return 3; }
}
"""


@pytest.mark.parametrize("config", [ConversionConfig(), PLAIN_FIELDS], ids=["token", "plain"])
def test_incremental_javadoc_only_edit(config):
    versions = [
        DOCUMENTED,
        DOCUMENTED.replace("Doc one.", "Doc two."),
        DOCUMENTED.replace("  /** Doc one. */\n", ""),
        DOCUMENTED,
        DOCUMENTED.replace("  int c()", "  /** Doc three. */\n  int c()"),
    ]
    reused = incremental_against_fresh(versions, config)
    # The edited javadoc's method is rendered again; the others are reused.
    assert reused == [0, 2, 2, 2, 2]


def test_incremental_same_line_edit_under_plain_fields():
    text = "class A {\n  int f = 1; int g() { return 2; }\n  int h() { return 3; }\n}\n"
    versions = [text, text.replace("f = 1", "f = 5"), text.replace("return 2", "return 7")]
    reused = incremental_against_fresh(versions, PLAIN_FIELDS)
    # g shares its line with f, and f with g, so neither is reused.
    assert reused == [0, 1, 1]


ANONYMOUS = """\
class A {
  void a() { }
  void b() { Runnable r = new Runnable() { public void run() { } }; }
  int c() { return 1; }
}
"""


def test_incremental_anonymous_class_added_before_a_holder():
    versions = [
        ANONYMOUS,
        ANONYMOUS.replace(
            "void a() { }", "void a() { Object o = new Object() { public int hashCode() { return 0; } }; }"
        ),
        ANONYMOUS,
    ]
    reused = incremental_against_fresh(versions, ConversionConfig())
    # b's anonymous class is renumbered, so b and its run() are walked.
    assert reused == [0, 1, 1]


NESTED = """\
class Outer {
  int a() { return 1; }
  static class Inner {
    int b() { return 2; }
  }
  int c() { return 3; }
}
"""


def test_incremental_renamed_enclosing_class():
    versions = [
        NESTED,
        NESTED.replace("class Outer", "class Renamed"),
        NESTED.replace("class Outer", "class Renamed").replace("class Inner", "class Other"),
        NESTED.replace("class Outer", "class Renamed").replace("return 3", "return 4"),
    ]
    reused = incremental_against_fresh(versions, ConversionConfig())
    # a and c are walked again once their class is renamed, b once its own
    # class is.
    assert reused == [0, 0, 2, 1]


def test_incremental_duplicate_whose_earlier_twin_is_deleted():
    text = (
        "class A {\n  int f() { return 1; }\n  long g() { return 2; }\n"
        "  int f() { return 3; }\n}\n"
    )
    versions = [text, text.replace("  int f() { return 1; }\n", ""), text]
    reused = incremental_against_fresh(versions, ConversionConfig())
    # The second f was dropped, so nothing was kept for it: it is walked
    # and rendered once its twin is gone.  When the twin is back, the kept
    # second f is dropped again.
    assert reused == [0, 1, 1]


def test_incremental_edit_that_unbalances_braces():
    versions = [NESTED, NESTED.replace("return 2; }", "return 2;"), NESTED, NESTED.replace("}\n}", "}")]
    reused = incremental_against_fresh(versions, ConversionConfig())
    assert reused == [0, 0, 0, 0]
    assert convert_or_error(versions[1], ConversionConfig()) == "ParseError"


@pytest.mark.parametrize("broken", ["int b(int) { return 2; }", 'int b() { return "2; }'])
def test_incremental_version_that_fails_then_a_valid_one(broken):
    versions = [
        NESTED,
        NESTED.replace("int b() { return 2; }", broken),
        NESTED.replace("return 3", "return 5"),
    ]
    reused = incremental_against_fresh(versions, ConversionConfig())
    assert convert_or_error(versions[1], ConversionConfig()) in ("ParseError", "LexError")
    # A lex error leaves the base and walk of the first version in place; a
    # parse error leaves a base with no walk.
    assert reused[2] == (0 if "(int)" in broken else 2)


def test_incremental_member_whose_scan_reads_past_its_end():
    # The '(' after X pairs with the last ')' of g, so the walk of f scans
    # g's body for types: f's declarations depend on g's tokens.
    text = (
        "class A {\n  void f() { new X( ; }\n"
        "  void g() { Object o = new Y() { void m() { } }; h()); }\n}\n"
    )
    versions = [text, text.replace("void m()", "void n()")]
    assert incremental_against_fresh(versions, ConversionConfig()) == [0, 0]
    assert "A$1#void_n().mjava" in dict(convert_source(versions[1], ConversionConfig()))


# A member of the generated classes: (kind, name, javadoc, body, comment,
# separator after it).
MEMBER_KINDS = ("method", "field", "initializer", "nested", "anonymous")
BODIES = (
    "",
    "return;",
    "x++;",
    "if (x > 0) { y(); }",
    "Object o = new Object() { int h() { return 1; } };",
    "class Local { int m() { return 2; } }",
)
generated_members = st.tuples(
    st.sampled_from(MEMBER_KINDS),
    st.sampled_from("abc"),
    st.sampled_from(("", "/** One. */", "/** Two. */\n  ")),
    st.sampled_from(BODIES),
    st.sampled_from(("", " // one", " // two")),
    st.sampled_from(("\n  ", " ")),
)


def member_text(member: tuple) -> str:
    kind, name, doc, body, comment, sep = member
    if kind == "method":
        text = f"void {name}() {{ {body} }}"
    elif kind == "field":
        text = f"int {name} = {len(body)};"
    elif kind == "initializer":
        text = f"{{ {body} }}"
    elif kind == "nested":
        text = f"class N{name} {{ int {name}() {{ {body} }} int z() {{ return 0; }} }}"
    else:
        text = f"Runnable {name} = new Runnable() {{ public void run() {{ {body} }} }};"
    # A line comment must end its line.
    return doc + text + (comment + "\n  " if comment else sep)


def class_text(name: str, body: list[tuple]) -> str:
    return f"class {name} {{\n  " + "".join(map(member_text, body)) + "\n}\n"


member_edits = st.tuples(
    st.sampled_from(("add", "delete", "replace", "field", "rename class")),
    st.integers(min_value=0, max_value=99),
    generated_members,
    st.integers(min_value=0, max_value=5),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(generated_members, min_size=1, max_size=6),
    st.lists(member_edits, min_size=1, max_size=6),
    st.sampled_from([ConversionConfig(), PLAIN_FIELDS]),
)
def test_incremental_conversion_equals_a_conversion_from_scratch(body, changes, config):
    """Member-level edit sequences: members added, deleted or replaced, and
    one field of a member changed (its name, javadoc, body, line comment,
    layout), or the class renamed."""
    name = "A"
    versions = [class_text(name, body)]
    for op, pos, member, field in changes:
        i = pos % (len(body) + 1)
        if op == "add":
            body.insert(i, member)
        elif body and op == "delete":
            del body[i % len(body)]
        elif body and op == "replace":
            body[i % len(body)] = member
        elif body and op == "field":
            i %= len(body)
            body[i] = body[i][:field] + member[field : field + 1] + body[i][field + 1 :]
        elif op == "rename class":
            name = "B" if name == "A" else "A"
        versions.append(class_text(name, body))
    incremental_against_fresh(versions, config)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((PERSON_JAVA, NESTED_JAVA)),
    st.lists(
        st.tuples(
            st.sampled_from(("delete", "insert", "replace")),
            st.integers(min_value=0, max_value=10**6),
            st.sampled_from(MUTATION_TOKENS),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_incremental_conversion_of_token_mutations_equals_a_fresh_one(source, edits):
    """Each version splices one token into the last, so many do not parse
    and their members pair their brackets in odd ways."""
    pieces = [t if t != ";" else ";\n" for t in tokenize(source).tokens]
    versions = [" ".join(pieces)]
    for op, pos, text in edits:
        i = pos % len(pieces)
        if op == "delete" and len(pieces) > 1:
            del pieces[i]
        elif op == "insert":
            pieces.insert(i, text)
        else:
            pieces[i] = text
        versions += [" ".join(pieces), versions[0]]
    incremental_against_fresh(versions, ConversionConfig(emit_fields=True))
