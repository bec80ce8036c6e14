"""Seeded Java history generator with a method-level rename oracle.

The generator keeps a model of every class and method, applies
method-level edits commit by commit and writes the history with
`git fast-import`.  Because it knows which edits moved a method to a new
path, it can state the ground truth that `evaluate` is scored against:
the number of renames (and copies) on the line of each HEAD method.

Method file names are predicted with the naming rule documented in the
README (`Chain#modifiers_returnType_name(paramTypes).mjava`), restricted to
the plain top-level classes generated here.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
from dataclasses import dataclass, field
from hashlib import sha1

WORDS = (
    "alpha", "bravo", "cargo", "delta", "ember", "focus", "gamma", "hotel",
    "index", "joker", "karma", "lemon", "micro", "night", "ocean", "pilot",
    "quark", "radar", "sigma", "tango", "umbra", "vivid", "whale", "xenon",
    "yacht", "zebra", "amber", "brisk", "cedar", "dune", "flint", "grove",
    "haze", "iris", "jade", "kelp", "lotus", "maple", "nova", "onyx",
)
VERBS = ("get", "put", "load", "save", "merge", "split", "scan", "parse",
         "build", "check", "apply", "render", "sum", "count", "find", "sort")
PARAM_TYPES = ("int", "long", "String", "boolean", "double", "String[]",
               "List<String>", "Map<String, Integer>")
RETURN_TYPES = ("int", "long", "String", "boolean", "double", "void")
MODIFIERS = ("public", "private", "protected", "public static", "static",
             "public final", "")
PACKAGES = tuple(f"src/main/java/org/bench/{w}" for w in WORDS[:10])

# Edit mix per 100 edits.  No measured mix is cited for these weights, the
# batch of 1-3 edits per commit or the size law below: they are assumptions,
# chosen so that every kind that moves a method to a new path occurs and the
# oracle has renames of each kind.
EDIT_WEIGHTS = (
    ("body", 55), ("add", 10), ("delete", 4), ("rename", 8),
    ("signature", 6), ("move", 5), ("copy", 4), ("class_rename", 3),
    ("file_move", 2), ("new_file", 3),
)
RENAME_KINDS = ("rename", "signature", "move", "copy", "class_rename", "file_move")
# Statement counts at evenly spaced quantiles of a Pareto(1) law: half the
# methods are one-liners, one in 64 passes 100 lines.
BODY_SIZES = tuple(min(int(64 / (63.5 - i)), 120) for i in range(64))

# The shape of every history: which edits happen, to which methods, and how
# large the methods are.  The seed only writes the code, so that every seed
# costs the same work and runs of different seeds differ by the machine's
# noise alone.
SHAPE_SEED = 0

AUTHOR = "Bench Author <bench@example.com>"
EPOCH = 1_600_000_000


@dataclass(eq=False)
class Method:
    mods: str
    ret: str
    name: str
    params: list[tuple[str, str]]
    body: list[str]
    renames: int = 0

    def base_name(self) -> str:
        segments = self.mods.split() + ["".join(self.ret.split())]
        types = ",".join("".join(t.split()) for t, _ in self.params)
        segments.append(f"{self.name}({types})")
        return "_".join(segments)

    def lines(self) -> int:
        return max(1, len(self.body))

    def text(self) -> str:
        params = ", ".join(f"{t} {n}" for t, n in self.params)
        head = f"    {self.mods + ' ' if self.mods else ''}{self.ret} {self.name}({params})"
        if len(self.body) == 1:
            return f"{head} {{ {self.body[0].strip()} }}\n"
        inner = "".join(f"        {line}\n" for line in self.body)
        return f"{head} {{\n{inner}    }}\n"


@dataclass(eq=False)
class JavaFile:
    package: str
    cls: str
    methods: list[Method] = field(default_factory=list)

    @property
    def path(self) -> str:
        return f"{self.package}/{self.cls}.java"

    def method_path(self, m: Method) -> str:
        return f"{self.package}/{self.cls}#{m.base_name()}.mjava"

    def text(self) -> bytes:
        pkg = self.package[len("src/main/java/"):].replace("/", ".")
        body = "\n".join(m.text() for m in self.methods)
        return f"package {pkg};\n\npublic class {self.cls} {{\n\n{body}}}\n".encode()


@dataclass
class History:
    """What the generator wrote and what the converted output must hold."""

    head: str
    commits: int
    oracle: dict[str, int]
    properties: dict


class _Deck:
    """Deals the items of source() in a shuffled order and reshuffles when
    it runs out, so that the history has the stated mix of sizes and edits
    and every file is edited about equally often."""

    def __init__(self, rng: random.Random, source):
        self.rng = rng
        self.source = source
        self.left: list = []

    def draw(self):
        if not self.left:
            self.left = list(self.source())
            self.rng.shuffle(self.left)
        return self.left.pop()


class _Model:
    """The classes and methods of the history.  rng draws its shape: edit
    kinds, sizes, statement kinds and every choice of a file, a method or a
    position.  text draws the words and numbers the code is written in."""

    def __init__(self, rng: random.Random, text: random.Random, n_files: int):
        self.rng = rng
        self.text = text
        self.counter = 0
        self.files: list[JavaFile] = []
        self.renames_by_kind = {kind: 0 for kind in RENAME_KINDS}
        self.dirty: list[JavaFile] = []
        self._before: dict[Method, tuple[str, int]] = {}
        self._copies: list[tuple[Method, Method]] = []
        self._sizes = _Deck(rng, lambda: BODY_SIZES)
        self._widths = _Deck(rng, lambda: range(3, 13))
        self._file_deck = _Deck(rng, lambda: self.files)
        self._packages = _Deck(rng, lambda: PACKAGES)
        self.kinds = _Deck(rng, lambda: [k for k, w in EDIT_WEIGHTS for _ in range(w)])
        self.batch = _Deck(rng, lambda: (1, 2, 3))
        for _ in range(n_files):
            self.files.append(self._new_file())
        self.dirty = list(self.files)

    # -- names and code ----------------------------------------------------

    def _uid(self) -> int:
        self.counter += 1
        return self.counter

    def _class_name(self) -> str:
        return f"{self.text.choice(WORDS).capitalize()}{self._uid()}"

    def _method_name(self) -> str:
        return f"{self.text.choice(VERBS)}{self.text.choice(WORDS).capitalize()}{self._uid()}"

    def _expr(self, names: list[str]) -> str:
        rng = self.text
        a = rng.choice(names)
        op = rng.choice(("+", "-", "*", "^", "%"))
        return f"{a} {op} {rng.randint(2, 997)}"

    def _statement(self, names: list[str]) -> list[str]:
        roll = self.rng.random()
        rng = self.text
        word = rng.choice(WORDS)
        if roll < 0.35:
            var = f"{word}{rng.randint(0, 99)}"
            names.append(var)
            return [f"int {var} = {self._expr(names)};"]
        if roll < 0.55:
            return [f"acc = acc {rng.choice('+-*')} {self._expr(names)};"]
        if roll < 0.70:
            return [
                f"if ({rng.choice(names)} > {rng.randint(1, 500)}) {{",
                f"    acc -= {self._expr(names)};",
                "}",
            ]
        if roll < 0.80:
            return [
                f"for (int i = 0; i < {rng.randint(2, 64)}; i++) {{",
                f"    acc += i * {rng.randint(2, 97)};",
                "}",
            ]
        if roll < 0.92:
            return [f'log("{word} {rng.choice(WORDS)}", {self._expr(names)});']
        return [f"acc = {rng.choice(VERBS)}{word.capitalize()}(acc, {rng.randint(0, 9)});"]

    def _return(self, ret: str) -> str:
        rng = self.text
        n = rng.randint(1, 99)
        return {
            "int": f"return acc + {n};",
            "long": f"return (long) acc * {n}L;",
            "String": f'return "{rng.choice(WORDS)}" + acc;',
            "boolean": f"return acc > {n};",
            "double": f"return acc / {n}.0;",
            "void": f'log("{rng.choice(WORDS)}", acc);',
        }[ret]

    def _one_liner(self, ret: str) -> str:
        return self._return(ret).replace("acc", str(self.text.randint(3, 9999)))

    def _body(self, ret: str) -> list[str]:
        count = self._sizes.draw()
        if count == 1:
            return [self._one_liner(ret)]
        names = ["acc"]
        body = [f"int acc = {self.text.randint(0, 9999)};"]
        while len(body) < count:
            body.extend(self._statement(names))
        body.append(self._return(ret))
        return body

    def _params(self) -> list[tuple[str, str]]:
        return [
            (self.rng.choice(PARAM_TYPES), f"p{i}")
            for i in range(self.rng.choice((0, 1, 1, 2, 2, 3)))
        ]

    def _new_method(self) -> Method:
        ret = self.rng.choice(RETURN_TYPES)
        return Method(
            mods=self.rng.choice(MODIFIERS),
            ret=ret,
            name=self._method_name(),
            params=self._params(),
            body=self._body(ret),
        )

    def _new_file(self) -> JavaFile:
        f = JavaFile(self._packages.draw(), self._class_name())
        f.methods = [self._new_method() for _ in range(self._widths.draw())]
        return f

    # -- edits --------------------------------------------------------------

    def _touch(self, f: JavaFile) -> JavaFile:
        """Mark f as edited, remembering its method paths as they were
        before the commit the first time it is touched."""
        if f not in self.dirty:
            self.dirty.append(f)
            for m in f.methods:
                self._before.setdefault(m, (f.method_path(m), m.renames))
        return f

    def _pick_file(self) -> JavaFile:
        return self._touch(self._file_deck.draw())

    def _pick_method(self) -> tuple[JavaFile, Method]:
        f = self._pick_file()
        return f, self.rng.choice(f.methods)

    def _other_file(self, f: JavaFile) -> JavaFile:
        return self._touch(self.rng.choice([g for g in self.files if g is not f]))

    def edit(self, kind: str) -> bool:
        """Apply one edit of the given kind; False when it did not apply."""
        rng = self.rng
        if kind == "body":
            _, m = self._pick_method()
            if len(m.body) == 1:
                m.body = [self._one_liner(m.ret)]
                return True
            pos = rng.randrange(1, len(m.body))
            last = pos == len(m.body) - 1
            if rng.random() < 0.3 and not last and m.body[pos].startswith(("acc =", "log(")):
                del m.body[pos]
            else:
                m.body[pos:pos] = self._statement(["acc"])
        elif kind == "add":
            f = self._pick_file()
            f.methods.insert(rng.randint(0, len(f.methods)), self._new_method())
        elif kind == "delete":
            f, m = self._pick_method()
            if len(f.methods) == 1:
                return False
            f.methods.remove(m)
        elif kind == "rename":
            _, m = self._pick_method()
            m.name = self._method_name()
        elif kind == "signature":
            _, m = self._pick_method()
            roll = rng.random()
            if roll < 0.4:
                m.params = m.params + [(rng.choice(PARAM_TYPES), f"p{len(m.params)}")]
            elif roll < 0.6 and m.params:
                m.params = m.params[:-1]
            elif roll < 0.8:
                m.mods = rng.choice([x for x in MODIFIERS if x != m.mods])
            else:
                m.ret = rng.choice([x for x in RETURN_TYPES if x != m.ret])
                if len(m.body) == 1:
                    m.body = [self._one_liner(m.ret)]
                else:
                    m.body[-1] = self._return(m.ret)
        elif kind == "move":
            f, m = self._pick_method()
            if len(f.methods) == 1:
                return False
            f.methods.remove(m)
            self._other_file(f).methods.append(m)
        elif kind == "copy":
            f, m = self._pick_method()
            g = self._other_file(f)
            if any(x.name == m.name for x in g.methods):
                return False
            clone = Method(m.mods, m.ret, m.name, list(m.params), list(m.body))
            g.methods.append(clone)
            self._copies.append((clone, m))
        elif kind == "class_rename":
            self._pick_file().cls = self._class_name()
        elif kind == "file_move":
            f = self._pick_file()
            f.package = rng.choice([p for p in PACKAGES if p != f.package])
        elif kind == "new_file":
            self.files.append(self._touch(self._new_file()))
        return True

    def commit(self, kinds: list[str]) -> None:
        """Apply the edits of one commit.  Every method whose path changed
        gets one more rename, and each copy one more than its source had
        before the commit, which is what a first-parent walk can see."""
        self._before = {}
        self._copies = []
        for kind in kinds:
            if self.edit(kind) and kind in self.renames_by_kind:
                self.renames_by_kind[kind] += 1
        before = self._before
        for f in self.dirty:
            for m in f.methods:
                old = before.get(m)
                if old is not None and old[0] != f.method_path(m):
                    m.renames = old[1] + 1
        for clone, src in self._copies:
            # A copy of a method that is itself new in this commit has no
            # line in the parent commit.
            clone.renames = before[src][1] + 1 if src in before else 0

    def changes(self, written: dict[JavaFile, str]) -> dict[str, bytes | None]:
        """Contents of the files edited since the last call, and None for
        the paths they left; written maps each file to its last path."""
        out: dict[str, bytes | None] = {}
        for f in self.dirty:
            old = written.get(f)
            if old is not None and old != f.path:
                out.setdefault(old, None)
            out[f.path] = f.text()
            written[f] = f.path
        self.dirty = []
        return out


def _fast_import_commit(out: list[bytes], n: int, changed: dict[str, bytes | None],
                        message: str) -> None:
    stamp = f"{AUTHOR} {EPOCH + n * 60} +0000"
    msg = message.encode()
    out.append(
        f"commit refs/heads/master\nmark :{n + 1}\nauthor {stamp}\n"
        f"committer {stamp}\ndata {len(msg)}\n".encode() + msg + b"\n"
    )
    for path in sorted(changed):
        content = changed[path]
        if content is None:
            out.append(f"D {path}\n".encode())
        else:
            out.append(f"M 100644 inline {path}\ndata {len(content)}\n".encode())
            out.append(content + b"\n")
    out.append(b"\n")


def git(args: list[str], cwd: str, stdin: bytes | None = None) -> bytes:
    """Run git with no user or system configuration."""
    env = dict(os.environ, GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull,
               LC_ALL="C")
    result = subprocess.run(["git", *args], cwd=cwd, input=stdin, env=env,
                            capture_output=True, check=False)
    if result.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)} failed: {result.stderr.decode()[-500:]}")
    return result.stdout


def max_chain_depth(gitdir: str) -> int:
    pack_dir = os.path.join(gitdir, "objects", "pack")
    depth = 0
    for name in sorted(os.listdir(pack_dir)):
        if name.endswith(".idx"):
            out = git(["verify-pack", "-s", os.path.join(pack_dir, name)], gitdir)
            for line in out.decode().splitlines():
                if line.startswith("chain length = "):
                    depth = max(depth, int(line.split("=")[1].split(":")[0]))
    return depth


def generate(dst: str, seed: int, n_commits: int, n_files: int,
             deep_pack: bool) -> History:
    """Write a bare repository at dst and return its oracle and properties.

    With deep_pack the history is repacked into one pack with long delta
    chains, so that reading the source replays many deltas per object.
    """
    model = _Model(random.Random(SHAPE_SEED), random.Random(seed), n_files)
    stream: list[bytes] = []
    written: dict[JavaFile, str] = {}
    initial = model.changes(written)
    blobs = {sha1(c).digest() for c in initial.values()}
    initial["README.md"] = f"Generated history, seed {seed}.\n".encode()
    _fast_import_commit(stream, 0, initial, "initial import\n")
    for n in range(1, n_commits):
        batch = [model.kinds.draw() for _ in range(model.batch.draw())]
        model.commit(batch)
        changed = model.changes(written)
        blobs.update(sha1(c).digest() for c in changed.values() if c is not None)
        _fast_import_commit(stream, n, changed, f"{' '.join(batch)}\n")

    os.makedirs(dst)
    git(["init", "--bare", "-q", "-b", "master", dst], os.path.dirname(dst) or ".")
    git(["fast-import", "--quiet", "--date-format=raw"], dst, b"".join(stream))
    if deep_pack:
        git(["repack", "-adfq", "--depth=250", "--window=250", "--threads=1"], dst)
    head = git(["rev-parse", "refs/heads/master"], dst).decode().strip()

    oracle = {
        f.method_path(m): m.renames for f in model.files for m in f.methods
    }
    method_lines = sorted(m.lines() for f in model.files for m in f.methods)
    properties = {
        "commits": n_commits,
        "java_blobs": len(blobs),
        "head_java_files": len(model.files),
        "head_methods": len(oracle),
        "method_lines_quartiles": statistics.quantiles(method_lines, n=4),
        "method_lines_max": method_lines[-1],
        "renames_by_kind": model.renames_by_kind,
        "max_delta_chain": max_chain_depth(dst),
    }
    return History(head, n_commits, oracle, properties)
