"""Command-line interface tests: flag validation, exit statuses, and the
stdout data contracts of all four subcommands."""

from __future__ import annotations

import functools
import glob
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import zlib
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from methodgit import RepoWriter
from methodgit.gitstore import _PackFile, hash_object
from methodgit.cli import main

from conftest import (
    AUTHOR,
    GETTER_PATH_NEW,
    GETTER_PATH_OLD,
    PERSON_JAVA,
    build_linear_repo,
    build_tag_repo,
    build_unreadable_pack_repo,
    read_files,
    write_commit_graph,
    write_files,
)
from repogen import build_metrics_repo


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_subcommand_is_usage_error(capsys):
    code, _out, err = run(capsys)
    assert code == 2
    assert "usage" in err


def test_convert_missing_src_is_usage_error(capsys):
    code, _out, err = run(capsys, "convert", "--dst", "/tmp/x")
    assert code == 2
    assert "--src" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _out, err = run(capsys, "track", "--repo", "r", "--path", "p",
                          "-M", "60", "--bogus")
    assert code == 2
    assert "bogus" in err


@pytest.mark.parametrize("value", ["101", "0", "-5", "abc", "60.5"])
def test_track_threshold_validation(capsys, value):
    code, _out, err = run(
        capsys, "track", "--repo", "r", "--path", "p", "-M", value
    )
    assert code == 2
    assert "threshold" in err


def test_copy_threshold_must_match(capsys, person_finer):
    code, _out, err = run(
        capsys,
        "track", "--repo", person_finer, "--path", GETTER_PATH_NEW,
        "-M", "60", "-C", "50",
    )
    assert code == 2
    assert "-C" in err


def test_convert_stats_and_file(person_repo, tmp_path, capsys):
    dst = str(tmp_path / "out.git")
    stats_file = tmp_path / "stats.json"
    code, out, _err = run(
        capsys,
        "convert", "--src", person_repo, "--dst", dst,
        "--stats-json", str(stats_file),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["commits_processed"] == 2
    assert payload["files_emitted"] == 4
    assert payload["files_skipped"] == 0
    # Person.java and Engineer.java do not share a name, so nothing is reused.
    assert payload["declarations_extracted"] == 4
    assert payload["declarations_reused"] == 0
    on_disk = json.loads(stats_file.read_text())
    assert on_disk == payload


def test_convert_stats_count_reused_declarations(tmp_path, capsys):
    src = str(tmp_path / "src.git")
    one = "class A {\n  int a() { return 1; }\n  int b() { return 2; }\n}\n"
    build_linear_repo(src, [{"A.java": one.encode()}, {"A.java": one.replace("2", "3").encode()}])
    code, out, _err = run(capsys, "convert", "--src", src, "--dst", str(tmp_path / "dst.git"))
    assert code == 0
    payload = json.loads(out)
    # b is extracted again when it changes; a is taken from the first version.
    assert payload["files_emitted"] == 4
    assert payload["declarations_extracted"] == 3
    assert payload["declarations_reused"] == 1


def test_convert_refuses_non_empty_dst(person_repo, tmp_path, capsys):
    dst = tmp_path / "busy"
    dst.mkdir()
    (dst / "junk").write_text("x")
    code, _out, err = run(
        capsys, "convert", "--src", person_repo, "--dst", str(dst)
    )
    assert code == 1
    assert "error:" in err


def test_convert_missing_src_repo_fails(tmp_path, capsys):
    code, _out, err = run(
        capsys,
        "convert", "--src", str(tmp_path / "nope"),
        "--dst", str(tmp_path / "out.git"),
    )
    assert code == 1
    assert "error:" in err


def test_track_tsv_reports_rename_score(person_finer_no_h2, capsys):
    code, out, _err = run(
        capsys,
        "track", "--repo", person_finer_no_h2, "--path", GETTER_PATH_NEW,
        "-M", "60", "--metric", "lines",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "commit\tkind\toldPath\tnewPath\tscore"
    _commit, kind, old, new, score = lines[1].split("\t")
    assert (kind, old, new, score) == (
        "RENAME", GETTER_PATH_OLD, GETTER_PATH_NEW, "8/10"
    )
    assert lines[2].split("\t")[1] == "ADD"


def test_track_json_format(person_finer, capsys):
    code, out, _err = run(
        capsys,
        "track", "--repo", person_finer, "--path", GETTER_PATH_NEW,
        "-M", "60", "--metric", "lines", "--format", "json",
    )
    assert code == 0
    steps = json.loads(out)
    assert steps[0]["kind"] == "RENAME"
    assert steps[0]["score"] == "4/6"
    assert steps[-1]["kind"] == "ADD"
    assert steps[-1]["oldPath"] is None


def test_track_copy_detection_flag(tmp_path, capsys):
    repo = str(tmp_path / "r.git")
    content = b"alpha\nbeta\ngamma\n"
    build_linear_repo(
        repo,
        [
            {"orig.txt": content},
            {"orig.txt": content, "copy.txt": content},
        ],
    )
    code, out, _err = run(
        capsys,
        "track", "--repo", repo, "--path", "copy.txt", "-M", "50", "-C", "50",
    )
    assert code == 0
    assert "\tCOPY\t" in out
    code, out, _err = run(
        capsys, "track", "--repo", repo, "--path", "copy.txt", "-M", "50"
    )
    assert code == 0
    assert "COPY" not in out


def test_track_missing_path_fails(person_finer, capsys):
    code, _out, err = run(
        capsys,
        "track", "--repo", person_finer, "--path", "Missing.mjava", "-M", "60",
    )
    assert code == 1
    assert "error:" in err


def test_track_missing_repo_fails(tmp_path, capsys):
    code, _out, err = run(
        capsys,
        "track", "--repo", str(tmp_path / "absent"), "--path", "x", "-M", "60",
    )
    assert code == 1
    assert "error:" in err


@pytest.fixture(scope="module")
def metrics_repo_cli(tmp_path_factory):
    dst = str(tmp_path_factory.mktemp("cli") / "metrics.git")
    expected = build_metrics_repo(dst)
    return dst, expected


def write_oracle(tmp_path, expected: dict[str, int], extra=()) -> str:
    entries = [
        {"methodPath": path, "expectedRenameCount": count}
        for path, count in sorted(expected.items())
    ]
    entries.extend(extra)
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(entries))
    return str(path)


def test_evaluate_csv_output(metrics_repo_cli, tmp_path, capsys):
    repo, expected = metrics_repo_cli
    oracle = write_oracle(tmp_path, expected)
    code, out, err = run(
        capsys,
        "evaluate", "--repo", repo, "--oracle", oracle, "--thresholds", "50",
    )
    assert code == 0
    assert out == (
        "threshold,precision,recall,fmeasure\n"
        "50,1.000000,0.800000,0.888889\n"
    )
    assert err == ""


def test_evaluate_default_threshold_count(metrics_repo_cli, tmp_path, capsys):
    repo, expected = metrics_repo_cli
    oracle = write_oracle(tmp_path, expected)
    code, out, _err = run(capsys, "evaluate", "--repo", repo, "--oracle", oracle)
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 14
    assert rows[1].startswith("20,")
    assert rows[-1].startswith("80,")


def test_evaluate_skipped_entry_sets_exit_one(metrics_repo_cli, tmp_path, capsys):
    repo, expected = metrics_repo_cli
    oracle = write_oracle(
        tmp_path,
        expected,
        extra=[{"methodPath": "ghost.mjava", "expectedRenameCount": 1}],
    )
    code, out, err = run(
        capsys,
        "evaluate", "--repo", repo, "--oracle", oracle, "--thresholds", "50",
    )
    assert code == 1
    assert "ghost.mjava" in err
    assert out.splitlines()[1] == "50,1.000000,0.800000,0.888889"


def test_evaluate_empty_oracle_fails(metrics_repo_cli, tmp_path, capsys):
    repo, _expected = metrics_repo_cli
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    code, out, err = run(
        capsys, "evaluate", "--repo", repo, "--oracle", str(empty)
    )
    assert code == 1
    assert out == ""
    assert "no entries" in err


def test_evaluate_malformed_oracle_fails(metrics_repo_cli, tmp_path, capsys):
    repo, _expected = metrics_repo_cli
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, _out, err = run(
        capsys, "evaluate", "--repo", repo, "--oracle", str(bad)
    )
    assert code == 1
    assert "error:" in err


def test_evaluate_threshold_list_validation(metrics_repo_cli, tmp_path, capsys):
    repo, expected = metrics_repo_cli
    oracle = write_oracle(tmp_path, expected)
    code, _out, err = run(
        capsys,
        "evaluate", "--repo", repo, "--oracle", oracle, "--thresholds", "50,140",
    )
    assert code == 2
    assert "threshold" in err


def test_compare_uses_55_25_defaults(metrics_repo_cli, tmp_path, capsys):
    repo, expected = metrics_repo_cli
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("".join(f"{p}\t{p}\n" for p in sorted(expected)))
    code, out, _err = run(
        capsys,
        "compare", "--repo-a", repo, "--repo-b", repo, "--pairs", str(pairs),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pairCount"] == 5
    # 55 percent keeps the identical and 75 percent renames on side A;
    # 25 percent keeps all five on side B.
    assert payload["meanRenamesA"] == pytest.approx(3 / 5)
    assert payload["meanRenamesB"] == pytest.approx(1.0)
    assert payload["fractionBMore"] == pytest.approx(2 / 5)
    assert payload["fractionEqual"] == pytest.approx(3 / 5)


def test_compare_unmapped_pair_fails(metrics_repo_cli, tmp_path, capsys):
    repo, _expected = metrics_repo_cli
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("ghost.mjava\tghost.mjava\n")
    code, _out, err = run(
        capsys,
        "compare", "--repo-a", repo, "--repo-b", repo, "--pairs", str(pairs),
    )
    assert code == 1
    assert "error:" in err


@pytest.mark.skipif(
    shutil.which("methodgit") is None, reason="entry point not installed"
)
def test_installed_entry_point_help():
    result = subprocess.run(
        ["methodgit", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "convert" in result.stdout
    assert "track" in result.stdout


SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """python -m methodgit from the source tree, installed or not."""
    path = os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "methodgit", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_module_entry_point_help():
    result = run_module("--help")
    assert result.returncode == 0
    assert "convert" in result.stdout
    assert "track" in result.stdout


def test_convert_corrupt_object_fails_without_traceback(tmp_path):
    src = str(tmp_path / "src.git")
    build_linear_repo(src, [{"Person.java": PERSON_JAVA.encode()}])
    blob = hash_object(b"blob", PERSON_JAVA.encode())
    (pack_path,) = glob.glob(os.path.join(src, "objects", "pack", "*.pack"))
    pack = _PackFile(pack_path)
    _, _, data_pos = pack._read_varint_header(pack.find(bytes.fromhex(blob)))
    pack.close()
    os.chmod(pack_path, 0o644)
    with open(pack_path, "r+b") as f:
        f.seek(data_pos)
        f.write(b"not zlib data")
    result = run_module("convert", "--src", src, "--dst", str(tmp_path / "dst.git"))
    assert result.returncode == 1
    assert "error:" in result.stderr
    assert blob in result.stderr
    assert "Traceback" not in result.stderr
    # Neither the destination nor the temporary directory it was built in
    # is left behind.
    assert sorted(os.listdir(tmp_path)) == ["src.git"]


@pytest.mark.parametrize("target", [b"cd", b"\xff"], ids=["short", "not-utf8"])
def test_convert_tag_with_a_malformed_object_id_fails_without_traceback(tmp_path, target):
    src = str(tmp_path / "src.git")
    build_tag_repo(src, target)
    result = run_module("convert", "--src", src, "--dst", str(tmp_path / "dst.git"))
    assert result.returncode == 1
    assert f"malformed object id {target.decode('latin-1')!r}" in result.stderr
    assert "Traceback" not in result.stderr
    assert sorted(os.listdir(tmp_path)) == ["src.git"]


@pytest.mark.parametrize("header", [b"tree \xff", b"tree cd", b"parent \xff\ntree " + b"0" * 40],
                         ids=["tree-not-utf8", "tree-short", "parent-not-utf8"])
def test_convert_commit_with_a_malformed_object_id_fails_without_traceback(tmp_path, header):
    src = str(tmp_path / "src.git")
    with RepoWriter(src) as writer:
        writer.init_bare()
        commit = writer.write_object(b"commit", header + b"\nauthor A <a@b> 1 +0000\n"
                                     b"committer A <a@b> 1 +0000\n\nm\n")
    writer.write_refs({"refs/heads/master": commit})
    os.makedirs(os.path.join(src, "objects", "cd"))
    result = run_module("convert", "--src", src, "--dst", str(tmp_path / "dst.git"))
    assert result.returncode == 1
    assert "malformed object id" in result.stderr
    assert "Traceback" not in result.stderr


def test_convert_tree_with_a_duplicate_name_fails_without_traceback(tmp_path):
    src = str(tmp_path / "src.git")
    with RepoWriter(src) as writer:
        writer.init_bare()
        blob = bytes.fromhex(writer.write_blob(b"x\n"))
        tree = writer.write_object(b"tree", b"100644 a\x00" + blob + b"100755 a\x00" + blob)
        stamp = AUTHOR % 1700000000
        commit = writer.write_commit(tree=tree, parents=[], author=stamp, committer=stamp,
                                     message=b"m\n")
    writer.write_refs({"refs/heads/master": commit})
    result = run_module("convert", "--src", src, "--dst", str(tmp_path / "dst.git"))
    assert result.returncode == 1
    assert f"corrupt tree {tree}: duplicate tree entry name" in result.stderr
    assert "Traceback" not in result.stderr
    assert sorted(os.listdir(tmp_path)) == ["src.git"]


def test_track_tree_with_a_slash_in_a_name_fails_without_traceback(tmp_path):
    src = str(tmp_path / "src.git")
    with RepoWriter(src) as writer:
        writer.init_bare()
        blob = bytes.fromhex(writer.write_blob(b"x\n"))
        # a/b names one entry, though it reads as the path of another.
        tree = writer.write_object(b"tree", b"100644 a/b\x00" + blob)
        stamp = AUTHOR % 1700000000
        commit = writer.write_commit(tree=tree, parents=[], author=stamp, committer=stamp,
                                     message=b"m\n")
    writer.write_refs({"refs/heads/master": commit})
    result = run_module("track", "--repo", src, "--path", "a/b", "-M", "50")
    assert result.returncode == 1
    assert f"corrupt tree {tree}: tree entry name contains '/'" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_track_with_an_unreadable_pack_fails_without_traceback(tmp_path, capsys):
    src = str(tmp_path / "src.git")
    build_unreadable_pack_repo(src)
    code, out, err = run(capsys, "track", "--repo", src, "--path", "Person.java", "-M", "50")
    assert code == 1
    assert "cannot open pack" in err and "pack-0000.pack" in err
    assert out == ""


@pytest.mark.parametrize("path, data, message", [
    ("HEAD", b"ref: refs/heads/\xff\n", "malformed HEAD"),
    ("refs/heads/odd", b"\xff" * 40 + b"\n", "malformed object id"),
    ("packed-refs", None, "malformed ref name in packed-refs"),
], ids=["head", "loose-ref", "packed-ref-name"])
def test_refs_that_are_not_utf8_fail_without_traceback(tmp_path, capsys, path, data, message):
    # Found by the fuzz test below: each of these raised UnicodeDecodeError.
    src = str(tmp_path / "src.git")
    build_linear_repo(src, [{"Person.java": PERSON_JAVA.encode()}])
    if data is None:
        with open(os.path.join(src, path), "rb") as f:
            data = f.read().replace(b"refs/heads/master", b"refs/heads/\xff")
    with open(os.path.join(src, path), "wb") as f:
        f.write(data)
    code, _, err = run(capsys, "convert", "--src", src, "--dst", str(tmp_path / "dst.git"))
    assert code == 1
    assert message in err
    if path != "HEAD":  # track does not read HEAD
        code, _, err = run(capsys, "track", "--repo", src, "--path", "Person.java", "-M", "50")
        assert code == 1
        assert message in err


@functools.cache
def _ref_fuzz_repository() -> tuple[dict[str, bytes], str, bytes]:
    """A bare repository as {path: bytes} but for its one loose tag, the
    path that tag is stored at, and the tag's payload.  Two commits of
    Person.java and a commit-graph of both; HEAD names master, a loose ref;
    packed-refs holds a stale master, the tag v1 of the last commit and a
    branch that points at the tag."""
    with tempfile.TemporaryDirectory() as tmp:
        _, last = build_linear_repo(tmp, [
            {"Person.java": PERSON_JAVA.encode()},
            {"Person.java": PERSON_JAVA.replace("length", "size").encode()},
        ])
        write_commit_graph(tmp)
        files = read_files(tmp)
    stamp = AUTHOR % 1700000000
    tag = b"object %s\ntype commit\ntag v1\ntagger %s\n\nv1\n" % (last.encode(), stamp)
    tag_id = hash_object(b"tag", tag)
    tag_path = f"objects/{tag_id[:2]}/{tag_id[2:]}"
    files["refs/heads/master"] = last.encode() + b"\n"
    files["packed-refs"] = (
        "# pack-refs with: peeled fully-peeled sorted \n"
        f"{'0' * 40} refs/heads/master\n{tag_id} refs/heads/tagged\n"
        f"{tag_id} refs/tags/v1\n^{last}\n"
    ).encode()
    return files, tag_path, tag


def _loose(kind: bytes, payload: bytes) -> bytes:
    return zlib.compress(b"%s %d\x00" % (kind, len(payload)) + payload)


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    """data with one bit flipped, cut short, with bytes inserted, or
    replaced outright."""
    how = draw(st.sampled_from(["flip", "cut", "insert", "replace"]))
    if how == "replace" or not data:
        return draw(st.binary(max_size=64))
    at = draw(st.integers(0, len(data) - 1))
    if how == "flip":
        return data[:at] + bytes([data[at] ^ 1 << draw(st.integers(0, 7))]) + data[at + 1 :]
    if how == "cut":
        return data[:at]
    return data[:at] + draw(st.binary(min_size=1, max_size=8)) + data[at:]


GRAPH = "objects/info/commit-graph"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_refs_and_tags_end_in_an_exit_status(data):
    # HEAD, a loose ref, packed-refs, the tag's payload or its deflated
    # file, or the commit-graph is mutated, the graph also with its
    # checksum made right again; convert and track must each return 0, 1
    # or 2 and raise nothing.
    files, tag_path, tag = _ref_fuzz_repository()
    files = {**files, tag_path: _loose(b"tag", tag)}
    target = data.draw(st.sampled_from(
        ["HEAD", "refs/heads/master", "packed-refs", "tag payload", tag_path, GRAPH,
         "graph body"]))
    if target == "tag payload":
        files[tag_path] = _loose(b"tag", data.draw(_mutated(tag)))
    elif target == "graph body":
        body = data.draw(_mutated(files[GRAPH][:-20]))
        files[GRAPH] = body + hashlib.sha1(body).digest()
    else:
        files[target] = data.draw(_mutated(files[target]))
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src.git")
        write_files(src, files)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            codes = [
                main(["convert", "--src", src, "--dst", os.path.join(tmp, "dst.git")]),
                main(["track", "--repo", src, "--path", "Person.java", "-M", "50"]),
            ]
    assert set(codes) <= {0, 1, 2}, codes
