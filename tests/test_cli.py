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
import tempfile
import zlib
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from methodgit import ObjectStore, RepoWriter
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
    requires_git,
    run_python,
    write_commit_graph,
    write_files,
    write_tree_dict,
)
from repogen import build_metrics_repo, generate_java_repo


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


def test_convert_name_budget_below_the_minimum_is_usage_error(person_repo, tmp_path, capsys):
    dst = tmp_path / "out.git"
    code, out, err = run(
        capsys, "convert", "--src", person_repo, "--dst", str(dst), "--max-name-bytes", "10"
    )
    assert code == 2
    assert "--max-name-bytes" in err and "at least 32" in err
    assert out == "" and not dst.exists()


def test_convert_unwritable_stats_path_fails_before_converting(person_repo, tmp_path, capsys):
    dst = tmp_path / "out.git"
    stats_file = tmp_path / "missing" / "stats.json"
    code, out, err = run(
        capsys, "convert", "--src", person_repo, "--dst", str(dst),
        "--stats-json", str(stats_file),
    )
    assert code == 1
    assert "error:" in err and "Traceback" not in err
    assert out == "" and not dst.exists() and not stats_file.exists()


def test_convert_that_fails_leaves_no_stats_file(person_repo, tmp_path, capsys):
    dst = tmp_path / "out.git"
    dst.mkdir()
    (dst / "taken").write_text("")
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("earlier stats\n")
    for stats_file in (new, old):
        code, out, err = run(
            capsys, "convert", "--src", person_repo, "--dst", str(dst),
            "--stats-json", str(stats_file),
        )
        assert code == 1 and "not empty" in err and out == ""
    # The file the run would have created is gone; the one it found is as it was.
    assert not new.exists() and old.read_text() == "earlier stats\n"
    assert sorted(os.listdir(dst)) == ["taken"]


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


def test_convert_reports_progress_on_stderr_and_only_stats_on_stdout(tmp_path, capsys):
    src = str(tmp_path / "src.git")
    build_linear_repo(src, [{"A.java": b"class A { int f() { return %d; } }\n" % i}
                            for i in range(100)])
    code, out, err = run(capsys, "convert", "--src", src, "--dst", str(tmp_path / "dst.git"))
    assert code == 0
    assert err == "100/100 commits\n"
    assert json.loads(out)["commits_processed"] == 100


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


def test_track_ref_chooses_between_branches_that_hold_the_path(tmp_path, capsys):
    repo = str(tmp_path / "r.git")
    with RepoWriter(repo) as writer:
        writer.init_bare()

        def commit(content: bytes, parents: list[str], n: int) -> str:
            stamp = AUTHOR % (1700000000 + n * 60)
            return writer.write_commit(
                tree=write_tree_dict(writer, {"f.txt": content}),
                parents=parents,
                author=stamp,
                committer=stamp,
                message=b"c%d\n" % n,
            )

        base = commit(b"0\n", [], 0)
        main_tip = commit(b"1\n", [base], 1)
        other_tip = commit(b"2\n", [base], 2)
    writer.write_refs({"refs/heads/main": main_tip, "refs/heads/other": other_tip})
    writer.set_head("refs/heads/main")
    track = ("track", "--repo", repo, "--path", "f.txt", "-M", "50")
    code, out, err = run(capsys, *track)
    assert code == 1 and out == ""
    assert "multiple branch tips: refs/heads/main, refs/heads/other" in err
    code, out, _err = run(capsys, *track, "--ref", "other")
    assert code == 0
    assert [line.split("\t")[:2] for line in out.splitlines()[1:]] == [
        [other_tip, "MODIFY"], [base, "ADD"],
    ]
    code, out, _err = run(capsys, *track, "--ref", "main", "--format", "json")
    assert code == 0
    assert [step["commit"] for step in json.loads(out)] == [main_tip, base]
    code, out, err = run(capsys, *track, "--ref", "absent")
    assert code == 1 and out == ""
    assert "ref not found: absent" in err


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


def test_evaluate_ref_scores_paths_that_several_branch_tips_hold(tmp_path, capsys, monkeypatch):
    repo = str(tmp_path / "r.git")
    text = b"".join(b"line %d\n" % i for i in range(10))
    with RepoWriter(repo) as writer:
        writer.init_bare()
        stamp = AUTHOR % 1700000000

        def commit(files: dict, parents: list[str]) -> str:
            return writer.write_commit(
                tree=write_tree_dict(writer, files), parents=parents,
                author=stamp, committer=stamp, message=b"c\n",
            )

        base = commit({"a.txt": text, "c.txt": b"c\n"}, [])
        main_tip = commit({"b.txt": text + b"more\n", "c.txt": b"c\n"}, [base])
        other_tip = commit({"b.txt": b"other\n", "c.txt": b"c\n"}, [base])
    writer.write_refs({"refs/heads/main": main_tip, "refs/heads/other": other_tip})
    writer.set_head("refs/heads/main")
    oracle = write_oracle(tmp_path, {"b.txt": 1, "c.txt": 0})
    evaluate = ("evaluate", "--repo", repo, "--oracle", oracle, "--thresholds", "50")
    code, _out, err = run(capsys, *evaluate)
    assert code == 1
    assert "unresolvable path: b.txt" in err and "unresolvable path: c.txt" in err
    scans = []
    refs = ObjectStore.refs

    def counting(store):
        scans.append(1)
        return refs(store)

    monkeypatch.setattr(ObjectStore, "refs", counting)
    code, out, err = run(capsys, *evaluate, "--ref", "main")
    assert (code, err) == (0, "")
    assert out == "threshold,precision,recall,fmeasure\n50,1.000000,1.000000,1.000000\n"
    # The ref is resolved once per evaluate, not once per oracle path.
    assert len(scans) == 1


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
    for thresholds in ("50,140", ","):
        code, _out, err = run(
            capsys,
            "evaluate", "--repo", repo, "--oracle", oracle, "--thresholds", thresholds,
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
    repo, expected = metrics_repo_cli
    pairs = tmp_path / "pairs.tsv"
    known = min(expected)
    for line, side in (("ghost.mjava\tghost.mjava", "A"), (f"{known}\tghost.mjava", "B")):
        pairs.write_text(line + "\n")
        code, out, err = run(
            capsys,
            "compare", "--repo-a", repo, "--repo-b", repo, "--pairs", str(pairs),
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot track ghost.mjava in repo {side}: ")


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


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """python -m methodgit from the source tree, installed or not."""
    return run_python("-m", "methodgit", *argv)


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
    _, _, data_pos, _ = pack._entry_header(pack.find(bytes.fromhex(blob)))
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


@requires_git
def test_convert_shallow_clone_names_the_shallow_boundary(tmp_path, capsys):
    src, clone = str(tmp_path / "src.git"), str(tmp_path / "clone.git")
    ids = generate_java_repo(src, n_commits=5, n_files=3, seed=2)
    subprocess.run(
        ["git", "clone", "--quiet", "--bare", "--depth", "1", f"file://{src}", clone],
        check=True, capture_output=True,
    )
    with open(os.path.join(clone, "shallow")) as f:
        assert f.read().split() == [ids[-1]]
    dst = str(tmp_path / "dst.git")
    code, out, err = run(capsys, "convert", "--src", clone, "--dst", dst)
    assert code == 1 and out == ""
    assert f"shallow clone: commit {ids[-1]} is on the shallow boundary" in err
    assert f"its parent {ids[-2]} is missing" in err
    assert "git fetch --unshallow" in err
    assert not os.path.exists(dst)
    # The full history converts.
    assert run(capsys, "convert", "--src", src, "--dst", dst)[0] == 0


def test_convert_corrupt_parent_on_the_shallow_boundary_is_corrupt_not_missing(
    tmp_path, capsys
):
    src = str(tmp_path / "src.git")
    ids = build_linear_repo(src, [{"a.txt": b"1\n"}, {"a.txt": b"2\n"}])
    (pack_path,) = glob.glob(os.path.join(src, "objects", "pack", "*.pack"))
    pack = _PackFile(pack_path)
    _, _, data_pos, _ = pack._entry_header(pack.find(bytes.fromhex(ids[0])))
    pack.close()
    os.chmod(pack_path, 0o644)
    with open(pack_path, "r+b") as f:
        f.seek(data_pos)
        f.write(b"not zlib data")
    with open(os.path.join(src, "shallow"), "w") as f:
        f.write(ids[1] + "\n")
    dst = str(tmp_path / "dst.git")
    code, out, err = run(capsys, "convert", "--src", src, "--dst", dst)
    assert code == 1 and out == ""
    # Its header still reads, so the parent is present, and its payload
    # is what fails.
    assert f"corrupt object {ids[0]}" in err
    assert "shallow clone" not in err
    assert not os.path.exists(dst)


@pytest.mark.parametrize("target", [b"cd", b"\xff"], ids=["short", "not-utf8"])
def test_convert_tag_with_a_malformed_object_id_fails_without_traceback(tmp_path, target):
    src = str(tmp_path / "src.git")
    build_tag_repo(src, target)
    result = run_module("convert", "--src", src, "--dst", str(tmp_path / "dst.git"))
    assert result.returncode == 1
    assert f"malformed object id {target.decode('latin-1')!r}" in result.stderr
    assert "Traceback" not in result.stderr
    assert sorted(os.listdir(tmp_path)) == ["src.git"]


@pytest.mark.parametrize("kind", ["annotated-tree", "lightweight-blob"])
def test_convert_skips_a_tag_that_names_a_tree_or_a_blob(tmp_path, capsys, kind):
    src = str(tmp_path / "src.git")
    blob = hash_object(b"blob", PERSON_JAVA.encode())
    if kind == "annotated-tree":
        build_tag_repo(src, hash_object(b"tree", b"100644 Person.java\0" + bytes.fromhex(blob))
                       .encode())
        tag = "refs/tags/bad"
    else:
        (commit,) = build_linear_repo(src, [{"Person.java": PERSON_JAVA.encode()}])
        tag = "refs/tags/key"
        RepoWriter(src).write_refs({"refs/heads/master": commit, tag: blob})
    dst = str(tmp_path / "dst.git")
    code, out, err = run(capsys, "convert", "--src", src, "--dst", dst)
    assert code == 0
    assert json.loads(out)["refs_skipped"] == [tag]
    assert err == f"warning: skipped {tag}: it names a tree or a blob, not a commit\n"
    with ObjectStore(dst) as store:
        assert list(store.refs()) == ["refs/heads/master"]
    # Named explicitly, the tag is an error.
    named = str(tmp_path / "named.git")
    code, out, err = run(capsys, "convert", "--src", src, "--dst", named, "--ref", tag)
    assert code == 1 and out == ""
    assert "cannot peel" in err
    assert not os.path.exists(named)


def test_convert_tag_of_a_missing_object_fails(tmp_path, capsys):
    src = str(tmp_path / "src.git")
    build_tag_repo(src, b"0" * 40)
    code, out, err = run(capsys, "convert", "--src", src, "--dst", str(tmp_path / "dst.git"))
    assert code == 1 and out == ""
    assert f"object not found: {'0' * 40}" in err


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


@pytest.mark.parametrize("case", ["parent-is-a-blob", "tree-is-a-blob", "parent-cycle",
                                  "tag-cycle", "ref-not-found", "commit-graph-directory"])
def test_objects_and_refs_of_the_wrong_kind_fail_without_traceback(tmp_path, capsys, case):
    src = str(tmp_path / "src.git")
    stamp = AUTHOR % 1700000000
    argv = ["convert", "--src", src, "--dst", str(tmp_path / "dst.git")]
    with RepoWriter(src) as writer:
        writer.init_bare()
        blob = writer.write_blob(PERSON_JAVA.encode())
        tree = writer.write_tree({b"Person.java": (b"100644", blob)})
        commit = writer.write_commit(tree=blob if case == "tree-is-a-blob" else tree,
                                     parents=[blob] if case == "parent-is-a-blob" else [],
                                     author=stamp, committer=stamp, message=b"m\n")
    refs = {"refs/heads/master": commit}
    message = {"parent-is-a-blob": f"not a commit: {blob}",
               "tree-is-a-blob": f"not a tree: {blob}",
               "ref-not-found": "ref not found: nosuch"}.get(case)
    if case == "parent-cycle":
        # Two loose commits, each stored under the id the other names.
        one, two = "1" * 40, "2" * 40
        for oid, parent in ((one, two), (two, one)):
            write_files(src, {f"objects/{oid[:2]}/{oid[2:]}": _loose(
                b"commit", b"tree %s\nparent %s\nauthor %s\ncommitter %s\n\nm\n"
                % (tree.encode(), parent.encode(), stamp, stamp))})
        refs["refs/heads/master"] = one
        message = "commit graph contains a cycle"
    elif case == "tag-cycle":
        # A loose tag stored under the id that it names.
        loop = "3" * 40
        write_files(src, {f"objects/{loop[:2]}/{loop[2:]}": _loose(
            b"tag", b"object %s\ntype tag\ntag loop\ntagger %s\n\nloop\n"
            % (loop.encode(), stamp))})
        refs["refs/tags/loop"] = loop
        message = f"tag cycle at {loop}"
    elif case == "ref-not-found":
        argv += ["--ref", "nosuch"]
    elif case == "commit-graph-directory":
        os.mkdir(os.path.join(src, "objects", "info", "commit-graph"))
        argv = ["track", "--repo", src, "--path", "Person.java", "-M", "50"]
        message = f"cannot read commit-graph {os.path.join(src, 'objects', 'info', 'commit-graph')}"
    writer.write_refs(refs)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err
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
    (os.fsdecode(b"refs/heads/b\xff"), None, "malformed ref name: b'refs/heads/b\\xff'"),
], ids=["head", "loose-ref", "packed-ref-name", "loose-ref-name"])
def test_refs_that_are_not_utf8_fail_without_traceback(tmp_path, capsys, path, data, message):
    # Found by the fuzz test below: each of these raised UnicodeDecodeError.
    src = str(tmp_path / "src.git")
    (commit,) = build_linear_repo(src, [{"Person.java": PERSON_JAVA.encode()}])
    if path == "packed-refs":
        with open(os.path.join(src, path), "rb") as f:
            data = f.read().replace(b"refs/heads/master", b"refs/heads/\xff")
    elif data is None:
        data = commit.encode() + b"\n"
    with open(os.path.join(src, path), "wb") as f:
        f.write(data)
    code, _, err = run(capsys, "convert", "--src", src, "--dst", str(tmp_path / "dst.git"))
    assert code == 1
    assert message in err
    if path != "HEAD":  # track does not read HEAD
        code, _, err = run(capsys, "track", "--repo", src, "--path", "Person.java", "-M", "50")
        assert code == 1
        assert message in err


@pytest.mark.parametrize("case, message", [
    ("gitlink", "malformed gitdir file"),
    ("oracle", "cannot read oracle"),
    ("pairs", "cannot read pairs file"),
], ids=["gitlink", "oracle", "pairs"])
def test_inputs_that_are_not_utf8_fail_without_traceback(tmp_path, capsys, case, message):
    # Each of these raised UnicodeDecodeError.
    src = str(tmp_path / "src.git")
    build_linear_repo(src, [{"Person.java": PERSON_JAVA.encode()}])
    bad = tmp_path / "bad"
    if case == "gitlink":
        bad.mkdir()
        (bad / ".git").write_bytes(b"gitdir: \xff\n")
        argv = ("convert", "--src", str(bad), "--dst", str(tmp_path / "dst.git"))
    elif case == "oracle":
        bad.write_bytes(b'[{"methodPath": "\xff", "expectedRenameCount": 0}]')
        argv = ("evaluate", "--repo", src, "--oracle", str(bad))
    else:
        bad.write_bytes(b"a.mjava\tb\xff.mjava\n")
        argv = ("compare", "--repo-a", src, "--repo-b", src, "--pairs", str(bad))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and message in err
    assert out == ""


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
