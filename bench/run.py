"""Seeded benchmark of methodgit's convert, track and evaluate workloads.

    python3 bench/run.py --workload convert --seed 1 --seconds 30 --trace 0

Builds the workload's input from the seed (set-up, done three times and
timed), measures the workload in a process of its own for --seconds,
checks its outputs, and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones of a traced run, whose spans are written to
.bench_out/.  --workload all runs the three workloads one after another.
See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, "work.py")
PINS = os.path.join(BENCH, "digests.json")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("convert", "track", "evaluate")
SETUP_REPEATS = 3
# A run, with its set-ups, must end well inside three minutes.
DEADLINE_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("calibrated_wall_s", "s"),
    ("calibrated_cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("dst_mib", "MiB"),
)


class BenchError(Exception):
    pass


def child(args: list[str], deadline: float) -> dict:
    """Run bench/work.py with args and return the JSON it prints."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + args[0])
    try:
        proc = subprocess.run([sys.executable, WORK, *args], capture_output=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} failed:\n{proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def environment(seed: int) -> dict:
    try:
        git = subprocess.run(["git", "--version"], capture_output=True,
                             check=True).stdout.decode().strip()
    except (OSError, subprocess.CalledProcessError):
        git = "unavailable"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git": git,
        "seed": seed,
        "loadavg": os.getloadavg(),
    }


def load_pins() -> dict:
    try:
        with open(PINS, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def digests_of(setups: list[dict], measured: dict) -> dict:
    out = {"head": setups[0]["head"]}
    if "commit_map" in setups[0]:
        out["commit_map"] = setups[0]["commit_map"]
    out.update(measured["digests"])
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 pin: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = environment(seed)
    work = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{workload}-{seed}.tsv.gz")
    try:
        setups = []
        for k in range(SETUP_REPEATS):
            d = os.path.join(work, f"setup{k}")
            os.makedirs(d)
            setups.append(child(["setup", workload, str(seed), d], deadline))
            if k:
                shutil.rmtree(os.path.join(work, f"setup{k - 1}"))
        os.sync()
        args = ["measure", workload, d, str(1 if pin else seconds)]
        measured = child(args + ([spans] if trace else []), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    # Errors of the run as a whole: every operation ran on a wrong input or
    # gave a wrong output.
    run_errors = [e for s in setups for e in s["errors"]]
    keys = ("head", "commit_map")
    if any(s.get(k) != setups[0].get(k) for s in setups for k in keys):
        run_errors.append("set-ups from one seed produced different histories")
    digests = digests_of(setups, measured)
    # --pin replaces a stale pin, so it skips only this comparison: the new
    # digests are recorded when every other check passes.
    pinned = None if pin else load_pins().get(workload, {}).get(str(seed))
    if pinned is not None and pinned != digests:
        run_errors.append(f"digests {digests} differ from the pinned {pinned}")
    attempted = measured["attempted"]
    failed = attempted if run_errors else measured["failed"]
    errors = measured["errors"] + run_errors
    correct = failed == 0 and not errors

    if pin and correct:
        pins = load_pins()
        pins.setdefault(workload, {})[str(seed)] = digests
        with open(PINS, "w", encoding="utf-8") as f:
            json.dump(pins, f, indent=1, sort_keys=True)
            f.write("\n")

    e2e = {name: measured[name] for name, _unit in END_TO_END if name != "setup_s"}
    e2e["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    report = {"wall_s": measured["wall_s"], "cpu_s": measured["cpu_s"], **measured["report"]}
    if trace:
        metrics = measured["per_layer"]
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "workload": workload,
        "traced": trace,
        "env": env,
        "properties": setups[0]["properties"],
        "digests": digests,
        "errors": errors,
        "samples": measured["samples"],
        "walls": measured["walls"],
        "cpus": measured["cpus"],
        "scales": measured["scales"],
        "end_to_end": e2e,
        "report": report,
        "result": {"correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }


def report_lines(record: dict) -> list[str]:
    w = record["workload"]
    env = record["env"]
    res = record["result"]
    lines = [
        f"# {w}: seed {env['seed']}, python {env['python']}, nproc {env['nproc']}, "
        f"{env['git']}, loadavg {env['loadavg'][0]:.2f} -> {env['loadavg_end'][0]:.2f}",
        f"# input: {json.dumps(record['properties'], sort_keys=True)}",
    ]
    e2e = dict(record["end_to_end"])
    e2e.update(record["report"])
    e2e["failed_share"] = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    units = dict(END_TO_END, wall_s="s", cpu_s="s", commits_per_s="1/s", queries_per_s="1/s",
                 follows_per_s="1/s", query_ms_p50="ms", query_ms_p90="ms",
                 best_f1="ratio", failed_share="ratio", queries="count")
    for name, value in e2e.items():
        lines.append(f"{w:9} {name:17} {value:12.4f} {units[name]}")
    lines.append(f"{w:9} {'samples':17} {record['samples']:12d} operations timed")
    if record["traced"]:
        for name, m in res["metrics"].items():
            lines.append(f"{w:9} {name:40} {m['value']:14.6f} {m['unit']}")
    for error in record["errors"]:
        lines.append(f"# error: {error}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record this seed's digests in bench/digests.json")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "methodgit", "__init__.py")):
        print("error: no methodgit sources at src/methodgit", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        try:
            record = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.pin)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        name = f"result-{workload}-{args.seed}-trace{args.trace}.json"
        with open(os.path.join(OUT, name), "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
        print("\n".join(report_lines(record)), flush=True)
        results.append(record["result"])
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{name}": m for w, r in zip(workloads, results)
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
