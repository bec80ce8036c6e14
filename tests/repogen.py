"""Seeded synthetic repository generators for determinism, oracle, and
throughput tests.  All randomness flows from the caller's seed."""

from __future__ import annotations

import random

from methodgit import RepoWriter

from conftest import AUTHOR, write_tree_dict

_WORDS = (
    "alpha", "bravo", "cargo", "delta", "ember", "focus", "gamma", "hotel",
    "index", "joker", "karma", "lemon", "micro", "night", "ocean", "pilot",
    "quark", "radar", "sigma", "tango",
)


def _java_source(rng: random.Random, class_name: str, body_salt: int) -> bytes:
    """A small class whose method bodies vary with body_salt."""
    methods = []
    for i in range(rng.randint(2, 4)):
        verb = rng.choice(("get", "put", "sum", "fix"))
        noun = rng.choice(_WORDS).capitalize()
        methods.append(
            f"  public int {verb}{noun}{i}(int x) {{\n"
            f"    int y = x + {body_salt + i};\n"
            f"    if (y > {rng.randint(1, 99)}) {{\n"
            f"      y -= {rng.randint(1, 9)};\n"
            f"    }}\n"
            f"    return y;\n"
            f"  }}\n"
        )
    body = "\n".join(methods)
    return f"public class {class_name} {{\n{body}}}\n".encode()


def generate_java_repo(
    dst: str, n_commits: int, n_files: int, seed: int
) -> list[str]:
    """Linear history over ~n_files Java files spread across directories.

    Each commit touches a few files; occasionally a file is renamed together
    with its class, exercising rename tracking after conversion.
    """
    rng = random.Random(seed)
    writer = RepoWriter(dst)
    writer.init_bare()

    files: dict[str, bytes] = {}
    for i in range(n_files):
        word = _WORDS[i % len(_WORDS)]
        name = f"{word.capitalize()}{i}"
        path = f"src/{word}/{name}.java"
        files[path] = _java_source(rng, name, i)
    files["README.md"] = b"# generated fixture\n"

    ids: list[str] = []
    parent: list[str] = []
    for c in range(n_commits):
        if c > 0:
            for _ in range(rng.randint(1, 3)):
                path = rng.choice(sorted(p for p in files if p.endswith(".java")))
                name = path.rsplit("/", 1)[1][: -len(".java")]
                roll = rng.random()
                if roll < 0.08:
                    new_name = f"{name}R{c}"
                    new_path = path.rsplit("/", 1)[0] + f"/{new_name}.java"
                    del files[path]
                    files[new_path] = _java_source(rng, new_name, c)
                else:
                    files[path] = _java_source(rng, name, c)
        tree = write_tree_dict(writer, files)
        stamp = AUTHOR % (1700000000 + c * 30)
        cid = writer.write_commit(
            tree=tree,
            parents=parent,
            author=stamp,
            committer=stamp,
            message=b"change %d\n" % c,
        )
        ids.append(cid)
        parent = [cid]
    writer.close()
    writer.write_refs({"refs/heads/master": ids[-1]})
    writer.set_head("refs/heads/master")
    return ids


def _block(tag: str, lines: list[str]) -> bytes:
    """Lines of exactly 8 bytes each so byte and line ratios coincide."""
    out = []
    for line in lines:
        text = f"{tag}{line}"
        assert len(text) == 7, text
        out.append(text + "\n")
    return "".join(out).encode()


def build_metrics_repo(dst: str) -> dict[str, int]:
    """Five tracked files with designed rename similarities plus one stable
    file.  Returns {head path: expected rename count}.

    Similarities: m1 and m5 rename with identical content, m2 at exactly
    16/32, m3 at 24/32, m4 at 8/32.  Contents are disjoint across files so
    copy detection never cross-matches.
    """
    a, b, c, d = "lineA", "lineB", "lineC", "lineD"
    before = {
        "m1_before.mjava": _block("m1", [a, b, c, d]),
        "m2_before.mjava": _block("m2", [a, b, c, d]),
        "m3_before.mjava": _block("m3", [a, b, c, d]),
        "m4_before.mjava": _block("m4", [a, b, c, d]),
        "m5_before.mjava": _block("m5", [a, b, c, d]),
        "stable.mjava": _block("st", [a, b]),
    }
    after = {
        "m1.mjava": before["m1_before.mjava"],
        "m2.mjava": _block("m2", [a, b, "newEE", "newFF"]),
        "m3.mjava": _block("m3", [a, b, c, "newDD"]),
        "m4.mjava": _block("m4", [a, "newXX", "newYY", "newZZ"]),
        "m5.mjava": before["m5_before.mjava"],
    }

    writer = RepoWriter(dst)
    writer.init_bare()
    files = dict(before)
    parent: list[str] = []
    step = 0

    def commit(msg: bytes) -> str:
        nonlocal parent, step
        tree = write_tree_dict(writer, files)
        stamp = AUTHOR % (1700000000 + step * 60)
        cid = writer.write_commit(
            tree=tree, parents=parent, author=stamp, committer=stamp, message=msg
        )
        parent = [cid]
        step += 1
        return cid

    commit(b"seed\n")
    for i in range(1, 6):
        del files[f"m{i}_before.mjava"]
        files[f"m{i}.mjava"] = after[f"m{i}.mjava"]
        commit(b"rename m%d\n" % i)
    writer.close()
    writer.write_refs({"refs/heads/master": parent[0]})
    writer.set_head("refs/heads/master")
    return {f"m{i}.mjava": 1 for i in range(1, 6)}


def _text_blob(rng: random.Random) -> bytes:
    lines = [
        f"{rng.choice(_WORDS)} {rng.choice(_WORDS)} {rng.randint(0, 9)}"
        for _ in range(rng.randint(2, 8))
    ]
    return ("\n".join(lines) + "\n").encode()


def _mutate(rng: random.Random, content: bytes) -> bytes:
    lines = content.decode().splitlines()
    roll = rng.random()
    if roll < 0.4 and len(lines) > 1:
        lines.pop(rng.randrange(len(lines)))
    elif roll < 0.7:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(_WORDS) * 2)
    else:
        lines[rng.randrange(len(lines))] = rng.choice(_WORDS)
    return ("\n".join(lines) + "\n").encode()


def generate_text_repo(
    dst: str, n_commits: int, max_files: int, seed: int
) -> list[str]:
    """History of small text files with renames, copies, and merges.

    About one commit in six is a two-parent merge so that the first-parent
    walk is exercised; returns commit ids oldest first.
    """
    rng = random.Random(seed)
    writer = RepoWriter(dst)
    writer.init_bare()

    files: dict[str, bytes] = {
        f"f{i}.txt": _text_blob(rng) for i in range(rng.randint(2, 4))
    }
    next_file = len(files)
    ids: list[str] = []
    parent: list[str] = []

    def commit(tree_files: dict[str, bytes], parents: list[str], n: int) -> str:
        tree = write_tree_dict(writer, tree_files)
        stamp = AUTHOR % (1700000000 + n * 30)
        return writer.write_commit(
            tree=tree,
            parents=parents,
            author=stamp,
            committer=stamp,
            message=b"step %d\n" % n,
        )

    c = 0
    while c < n_commits:
        paths = sorted(files)
        roll = rng.random()
        if roll < 0.30 and len(files) < max_files:
            files[f"f{next_file}.txt"] = _text_blob(rng)
            next_file += 1
        elif roll < 0.55:
            path = rng.choice(paths)
            files[path] = _mutate(rng, files[path])
        elif roll < 0.75 and paths:
            old = rng.choice(paths)
            content = files.pop(old)
            if rng.random() < 0.6:
                content = _mutate(rng, content)
            files[f"f{next_file}.txt"] = content
            next_file += 1
        elif roll < 0.85 and paths and len(files) < max_files:
            src = rng.choice(paths)
            files[f"f{next_file}.txt"] = files[src]
            next_file += 1
        elif len(files) > 1:
            files.pop(rng.choice(paths))

        if parent and rng.random() < 0.16 and c + 2 <= n_commits:
            side_files = dict(files)
            side_files[f"side{c}.txt"] = _text_blob(rng)
            side = commit(side_files, parent, c)
            ids.append(side)
            c += 1
            merged = commit(files, [parent[0], side], c)
            ids.append(merged)
            parent = [merged]
        else:
            cid = commit(files, parent, c)
            ids.append(cid)
            parent = [cid]
        c += 1

    writer.close()
    writer.write_refs({"refs/heads/master": ids[-1]})
    writer.set_head("refs/heads/master")
    return ids
