"""Command-line interface tests: flag validation, exit statuses, and the
stdout data contracts of all four subcommands."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from methodgit.gitstore import hash_object
from methodgit.cli import main

from conftest import (
    GETTER_PATH_NEW,
    GETTER_PATH_OLD,
    PERSON_JAVA,
    build_linear_repo,
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
    on_disk = json.loads(stats_file.read_text())
    assert on_disk == payload


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
    with open(os.path.join(src, "objects", blob[:2], blob[2:]), "wb") as f:
        f.write(b"not zlib data")
    result = run_module("convert", "--src", src, "--dst", str(tmp_path / "dst.git"))
    assert result.returncode == 1
    assert "error:" in result.stderr
    assert blob in result.stderr
    assert "Traceback" not in result.stderr
    # Neither the destination nor the temporary directory it was built in
    # is left behind.
    assert sorted(os.listdir(tmp_path)) == ["src.git"]
