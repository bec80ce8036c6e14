"""Shared fixtures: canonical Java sources and bare-repository builders."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

from methodgit import (
    ConversionConfig,
    LineFormat,
    Metric,
    ObjectStore,
    RenderConfig,
    RepoWriter,
    extract,
    fingerprint,
    render,
    rewrite_history,
    similarity,
)
from methodgit.commitgraph import CommitGraphWriter
from methodgit.rewrite import _topo_order

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(*argv: str) -> subprocess.CompletedProcess:
    """This interpreter with the source tree on its path, installed or not."""
    path = os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )

PERSON_JAVA = """\
public class Person {
  private int length;

  public int getLength() {
    return length;
  }

  public void setLength(int length) {
    this.length = length;
  }
}
"""

ENGINEER_JAVA = """\
public class Engineer {
  private int height;

  public int getHeight() {
    return height;
  }

  public void setHeight(int height) {
    this.height = height;
  }
}
"""

# Method bodies and field initializers that declare types of their own: the
# tags inside come from the walk over local, anonymous and enum-constant
# class bodies.  Type annotations in a nested member's header are tagged as
# in a top-level declaration.
NESTED_JAVA = """
class Outer {
  @Deprecated(since = "1") private final Runnable task = new Runnable() {
    int count = (1), limit;
    { count++; }
    @interface Tag { int value() default (1); String[] names() default {"a"}; }
    @Override public void run() { count += (int) 2L; }
  };

  @SuppressWarnings({"a", "b"}) int work(@Named("n") int n) {
    class Local implements Comparable<Local> {
      @Ann(x = 1) int f = n;
      java.util.List<@Ann(2) String> names;
      static { System.gc(); }
      @SuppressWarnings("unchecked") public int compareTo(Local o) { return 0; }
      <T extends Number> @Ann(4) T pick(@Ann(5) T a) throws @Ann(6) Exception { return a; }
    }
    enum Color {
      RED(1), GREEN(2) { @Override int code() { return -(2); } }, @Ann(3) BLUE;
      private final int c;
      Color(int c) { this.c = c; }
      Color() { this(0); }
      int code() { return c; }
    }
    interface Shape {
      double area();
      default int sides() { return 0; }
    }
    record Point(int x, int y) implements Shape {
      Point { if (x < 0) throw new IllegalArgumentException(); }
      public double area() { return (double) x * y; }
    }
    Object o = new Object() {
      String s = "x", t;
      { s = s + t; }
      public String toString() { return s; }
    };
    return new Local().f + Color.RED.code();
  }
}
"""

GETTER_PATH_OLD = "Person#public_int_getLength().mjava"
GETTER_PATH_NEW = "Engineer#public_int_getHeight().mjava"
SETTER_PATH_OLD = "Person#public_void_setLength(int).mjava"
SETTER_PATH_NEW = "Engineer#public_void_setHeight(int).mjava"

AUTHOR = b"Dev One <dev@example.org> %d +0000"


def write_tree_dict(writer: RepoWriter, files: dict[str, bytes]) -> str:
    """Write a nested tree from {path: content}; returns the root tree id."""
    root: dict = {}
    for path, content in files.items():
        parts = path.split("/")
        node = root
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = content

    def emit(node: dict) -> str:
        entries = {}
        for name, value in node.items():
            if isinstance(value, dict):
                entries[name.encode()] = (b"40000", emit(value))
            else:
                entries[name.encode()] = (b"100644", writer.write_blob(value))
        return writer.write_tree(entries)

    return emit(root)


def write_files(root: str, files: dict[str, bytes]) -> None:
    """Write {path relative to root: bytes}, making directories as needed."""
    for path, data in files.items():
        os.makedirs(os.path.dirname(os.path.join(root, path)), exist_ok=True)
        with open(os.path.join(root, path), "wb") as f:
            f.write(data)


def read_files(root: str) -> dict[str, bytes]:
    """Every file under root as {path relative to root: bytes}."""
    files = {}
    for base, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, root)] = f.read()
    return files


def build_linear_repo(
    dst: str,
    snapshots: list[dict[str, bytes]],
    branch: str = "refs/heads/master",
    start_time: int = 1700000000,
) -> list[str]:
    """Build a bare repository from whole-tree snapshots, one commit each.

    Returns commit ids oldest first.
    """
    ids: list[str] = []
    parent: list[str] = []
    with RepoWriter(dst) as writer:
        writer.init_bare()
        for i, files in enumerate(snapshots):
            tree = write_tree_dict(writer, files)
            stamp = AUTHOR % (start_time + i * 60)
            cid = writer.write_commit(
                tree=tree,
                parents=parent,
                author=stamp,
                committer=stamp,
                message=b"commit %d\n" % i,
            )
            ids.append(cid)
            parent = [cid]
    writer.write_refs({branch: ids[-1]})
    writer.set_head(branch)
    return ids


def build_tag_repo(dst: str, target: bytes) -> str:
    """A one-commit repository whose tag refs/tags/bad is an annotated tag
    with `object <target>`; objects/cd/ exists, as a fan-out directory
    would.  Returns the tag's id."""
    (commit,) = build_linear_repo(dst, [{"Person.java": PERSON_JAVA.encode()}])
    stamp = AUTHOR % 1700000000
    payload = b"object %s\ntype commit\ntag bad\ntagger %s\n\nbad\n" % (target, stamp)
    with RepoWriter(dst) as writer:
        tag = writer.write_object(b"tag", payload)
    writer.write_refs({"refs/heads/master": commit, "refs/tags/bad": tag})
    os.makedirs(os.path.join(dst, "objects", "cd"), exist_ok=True)
    return tag


def build_unreadable_pack_repo(dst: str) -> str:
    """A one-commit repository whose pack directory also holds an empty
    pack-0000.pack beside a copy of the real pack's index; the empty pack
    sorts first and cannot be mapped.  Returns the commit id."""
    (commit,) = build_linear_repo(dst, [{"Person.java": PERSON_JAVA.encode()}])
    pack_dir = os.path.join(dst, "objects", "pack")
    (idx,) = [name for name in os.listdir(pack_dir) if name.endswith(".idx")]
    shutil.copyfile(os.path.join(pack_dir, idx), os.path.join(pack_dir, "pack-0000.idx"))
    open(os.path.join(pack_dir, "pack-0000.pack"), "wb").close()
    return commit


def write_commit_graph(repo: str, commits: int | None = None) -> str:
    """Write the repository's commit-graph with methodgit's writer, for the
    first `commits` of its commits in topological order (all by default),
    so a prefix holds every parent of its commits.  Returns its path."""
    with ObjectStore(repo) as store:
        tips = [
            store.peel(oid, lambda _: False)[1]
            for name, oid in store.refs().items()
            if name.startswith(("refs/heads/", "refs/tags/"))
        ]
        graph = CommitGraphWriter(store.read_tree)
        for record in _topo_order(store, tips)[:commits]:
            graph.add(record.id, record.tree, record.parents, record.committer)
        path = os.path.join(store.gitdir, "objects", "info", "commit-graph")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    graph.write(path)
    return path


def method_named(source: str, name: str):
    methods, _fields = extract(source)
    for m in methods:
        if m.name == name:
            return m
    raise AssertionError(f"no method named {name}")


def render_method(source: str, name: str, config: RenderConfig) -> bytes:
    return render(method_named(source, name), config)


def sim(a: bytes, b: bytes, metric: Metric):
    return similarity(fingerprint(a), fingerprint(b), metric)


FINER = RenderConfig()
FINER_NO_H2 = RenderConfig(heuristic2=False)
FINER_NO_H1 = RenderConfig(heuristic1=False)
PLAIN = RenderConfig(line_format=LineFormat.PLAIN)


@pytest.fixture(scope="session")
def person_repo(tmp_path_factory) -> str:
    """Two commits: Person.java, then the four-way rename to Engineer.java."""
    dst = str(tmp_path_factory.mktemp("src") / "person.git")
    build_linear_repo(
        dst,
        [
            {"Person.java": PERSON_JAVA.encode()},
            {"Engineer.java": ENGINEER_JAVA.encode()},
        ],
    )
    return dst


def convert(src: str, dst: str, render_config: RenderConfig, **kwargs):
    return rewrite_history(
        src, dst, ConversionConfig(render=render_config, **kwargs)
    )


@pytest.fixture(scope="session")
def person_finer(person_repo, tmp_path_factory) -> str:
    dst = str(tmp_path_factory.mktemp("conv") / "finer.git")
    convert(person_repo, dst, FINER)
    return dst


@pytest.fixture(scope="session")
def person_finer_no_h2(person_repo, tmp_path_factory) -> str:
    dst = str(tmp_path_factory.mktemp("conv") / "finer-no-h2.git")
    convert(person_repo, dst, FINER_NO_H2)
    return dst


@pytest.fixture(scope="session")
def person_plain(person_repo, tmp_path_factory) -> str:
    dst = str(tmp_path_factory.mktemp("conv") / "plain.git")
    convert(person_repo, dst, PLAIN)
    return dst


def git_available() -> bool:
    return shutil.which("git") is not None


requires_git = pytest.mark.skipif(
    not git_available(), reason="git binary not on PATH"
)
