"""Set-up and measurement of one workload, each in a process of its own.

    python3 bench/work.py setup WORKLOAD SEED DIR
    python3 bench/work.py measure WORKLOAD DIR SECONDS [SPANS]

Both print one JSON object on stdout.  bench/run.py starts them; the
measuring process does nothing but the workload, so that its peak RSS is
the workload's own.  Everything runs in one thread.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from methodgit.evaluate import OracleEntry, evaluate, metrics_to_csv  # noqa: E402
from methodgit.gitstore import ObjectStore  # noqa: E402
from methodgit.rewrite import rewrite_history  # noqa: E402
from methodgit import tracking  # noqa: E402

import gen  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402

# (commits, Java files at the start) of each workload's history.  Each is
# small enough that a run repeats its operation many times: a convert pass
# takes about a second, an evaluate pass half a second, and the track sample
# of cold queries is swept several times.
SCALES = {"convert": (80, 16), "track": (60, 16), "evaluate": (120, 24)}
TRACK_QUERIES = 100
EVALUATE_PATHS = 50
# A cold query as `methodgit track -M 50 -C 50` runs it.
TRACK_CONFIG = tracking.TrackerConfig(threshold=50, detect_copies=True)
MIN_PASSES = 3
TIMES = ("wall_s", "cpu_s", "calibrated_wall_s", "calibrated_cpu_s")


# The reference: fixed pure-Python work that does not touch methodgit,
# timed right before and right after every operation.  The machine's speed
# drifts by up to 1.8x over seconds to minutes; the reference drifts with it,
# so an operation's time over the reference's time stays put.
_REF_RNG = random.Random(1)
_REF_LINES = tuple(
    " ".join(_REF_RNG.choice(("int", "acc", "=", "+", "x1", "log", "(", ")", ";", "return"))
             for _ in range(12))
    for _ in range(300)
)
_REF_SHIFTED = _REF_LINES[50:] + _REF_LINES[:50]
# The reference's time when the machine described in bench/README.md is in
# its fast state.  Calibrated times are wall and CPU seconds scaled to that
# speed: time * REFERENCE_S / reference time.
REFERENCE_S = 0.0024


def _reference() -> None:
    counts: dict[str, int] = {}
    for i, line in enumerate(_REF_LINES):
        for tok in line.split():
            counts[tok] = counts.get(tok, 0) + i
    difflib.SequenceMatcher(None, _REF_LINES, _REF_SHIFTED).get_opcodes()
    sorted(_REF_LINES, key=lambda line: (len(line), line))
    x = 0
    for i in range(20000):
        x += i * i % 7


def reference_s() -> float:
    """Least wall time of two runs of the reference."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _reference()
        best = min(best, time.perf_counter() - start)
    return best


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def cpu_time() -> float:
    """CPU seconds of this process, to the nanosecond, and of its children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def apparent_mib(path: str) -> float:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.lstat(os.path.join(root, name)).st_size
    return total / 2**20


def head_method_paths(repo: str) -> set[str]:
    out = gen.git(["ls-tree", "-r", "--name-only", "HEAD"], repo).decode()
    return {p for p in out.splitlines() if p.endswith(".mjava")}


def check_output(repo: str, history: dict) -> list[str]:
    """Differences between a converted repository and what the generator
    says it must hold."""
    errors = []
    with open(os.path.join(repo, "commit-map.tsv"), "rb") as f:
        commits = len(f.read().splitlines())
    if commits != history["commits"]:
        errors.append(f"{commits} commits converted, {history['commits']} expected")
    names = head_method_paths(repo)
    expected = set(history["oracle"])
    if names != expected:
        errors.append(
            f"HEAD method files differ: {len(names - expected)} unexpected, "
            f"{len(expected - names)} missing"
        )
    return errors


def commit_map_digest(repo: str) -> str:
    with open(os.path.join(repo, "commit-map.tsv"), "rb") as f:
        return digest(f.read())


# -- set-up ---------------------------------------------------------------------


def setup(workload: str, seed: int, workdir: str) -> dict:
    """Generate the source history; for track and evaluate also convert it
    and choose the query sample.  Timed as a whole."""
    start = time.perf_counter()
    commits, files = SCALES[workload]
    src = os.path.join(workdir, "src.git")
    history = gen.generate(src, seed, commits, files, deep_pack=workload == "convert")
    result = {"head": history.head, "properties": history.properties, "errors": []}
    record = {"commits": history.commits, "oracle": history.oracle, "sample": []}
    if workload != "convert":
        out = os.path.join(workdir, "out.git")
        rewrite_history(src, out)
        size = TRACK_QUERIES if workload == "track" else EVALUATE_PATHS
        # Drawn by position in the generator's model, which the seed does not
        # change (see gen.SHAPE_SEED): every seed queries the same methods,
        # under the names that seed gave them.
        picks = random.Random(gen.SHAPE_SEED).sample(range(len(history.oracle)), size)
        paths = list(history.oracle)
        record["sample"] = [paths[i] for i in picks]
        result["commit_map"] = commit_map_digest(out)
    result["setup_s"] = time.perf_counter() - start
    if workload != "convert":
        result["errors"] = check_output(os.path.join(workdir, "out.git"), record)
    with open(os.path.join(workdir, "history.json"), "w", encoding="utf-8") as f:
        json.dump(record, f)
    return result


# -- measurement ----------------------------------------------------------------


class Runner:
    """Repeats one workload operation until the time is up.

    Untraced, each operation is timed for wall and CPU time, and the
    reference is timed right before and right after it; scale is
    REFERENCE_S over the mean of the two reference times.  Traced, each
    operation runs twice, untraced and then traced, so that the two give
    the tracing overhead; only the untraced timings are kept as samples.
    """

    def __init__(self, seconds: float, tracer: Tracer | None, root: str):
        self.seconds = seconds
        self.tracer = tracer
        self.root = root
        self.started = time.perf_counter()
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.scales: list[float] = []
        self.traced_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def time_up(self) -> bool:
        return time.perf_counter() - self.started >= self.seconds

    def op(self, fn, args: tuple, prepare=None):
        """Result of fn(*args), or None when it raised.  prepare runs
        before each timed call, outside the timed region."""
        self.attempted += 1
        try:
            if prepare is not None:
                prepare()
            before = reference_s()
            wall0, cpu0 = time.perf_counter(), cpu_time()
            result = fn(*args)
            wall, cpu = time.perf_counter() - wall0, cpu_time() - cpu0
            scale = 2 * REFERENCE_S / (before + reference_s())
            if self.tracer is not None:
                if prepare is not None:
                    prepare()
                self.traced_walls.append(self._traced(fn, args))
        except Exception as exc:  # a failing operation is counted, not fatal
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.scales.append(scale)
        return result

    def _traced(self, fn, args: tuple) -> float:
        tracer = self.tracer
        tracer.begin_run()
        tracer.install()
        try:
            start = time.perf_counter()
            tracer.span(self.root, fn, *args)
            return time.perf_counter() - start
        finally:
            tracer.uninstall()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def means(self, ops: list[int] | None = None) -> dict[str, float]:
        """Mean wall, CPU, calibrated wall and calibrated CPU seconds of
        the timed operations, or of those at the indices ops."""
        ops = range(len(self.walls)) if ops is None else ops
        walls = [self.walls[i] for i in ops]
        cpus = [self.cpus[i] for i in ops]
        scales = [self.scales[i] for i in ops]
        if not walls:
            return dict.fromkeys(TIMES, 0.0)
        return {
            "wall_s": statistics.fmean(walls),
            "cpu_s": statistics.fmean(cpus),
            "calibrated_wall_s": statistics.fmean(w * k for w, k in zip(walls, scales)),
            "calibrated_cpu_s": statistics.fmean(c * k for c, k in zip(cpus, scales)),
        }

    def overhead(self) -> float:
        """Traced time over untraced time of the same operations, minus 1."""
        return sum(self.traced_walls) / sum(self.walls) - 1.0 if self.walls else 0.0


def run_convert(workdir: str, history: dict, runner: Runner) -> dict:
    src = os.path.join(workdir, "src.git")
    dst = os.path.join(workdir, "dst.git")

    def remove_output() -> None:
        shutil.rmtree(dst, ignore_errors=True)
        os.sync()

    maps: list[str] = []
    while runner.attempted < MIN_PASSES or not runner.time_up():
        if runner.op(rewrite_history, (src, dst), remove_output) is not None:
            maps.append(commit_map_digest(dst))
            if maps[-1] != maps[0]:
                runner.fail("conversion passes produced different commit maps")
    errors = []
    if maps:
        errors = check_output(dst, history)
        try:
            gen.git(["fsck", "--strict", "--no-progress"], dst)
        except RuntimeError as exc:
            errors.append(str(exc))
    if errors:
        # Equal commit maps mean equal outputs, so every pass is wrong.
        runner.failed = runner.attempted
        runner.errors.extend(errors)
    times = runner.means()
    wall = times["wall_s"]
    return {
        **times,
        "dst_mib": apparent_mib(dst) if maps else 0.0,
        "report": {"commits_per_s": history["commits"] / wall if wall else 0.0},
        "digests": {"commit_map": maps[0] if maps else None},
    }


def cold_query(repo: str, path: str):
    store = ObjectStore(repo)
    try:
        # Looked up on the module at each call, so a traced run sees the
        # wrapped function.
        return tracking.follow(store, path, TRACK_CONFIG, caches=tracking.FollowCaches())
    finally:
        store.close()


def run_track(workdir: str, history: dict, runner: Runner) -> dict:
    out = os.path.join(workdir, "out.git")
    sample = history["sample"]
    ops: dict[str, list[int]] = {path: [] for path in sample}
    steps_digest: dict[str, str] = {}
    done = 0
    # Every query of the sample runs at least once, then the sample repeats
    # until the time is up.
    while done < len(sample) or not runner.time_up():
        path = sample[done % len(sample)]
        done += 1
        steps = runner.op(cold_query, (out, path))
        if steps is None:
            continue
        ops[path].append(len(runner.walls) - 1)
        d = digest(json.dumps(tracking.steps_to_json(steps)).encode())
        if steps_digest.setdefault(path, d) != d:
            runner.fail(f"query {path} returned different steps")
    # One pass over the sample: the sum of each query's mean time.
    per_query = [runner.means(v) for v in ops.values() if v]
    latencies = [q["wall_s"] for q in per_query]
    wall = sum(latencies)
    complete = len(steps_digest) == len(sample)
    combined = "".join(f"{p}\t{steps_digest[p]}\n" for p in sample) if complete else ""
    report = {"queries": len(latencies),
              "queries_per_s": len(latencies) / wall if wall else 0.0}
    if len(latencies) >= 2:
        report["query_ms_p50"] = statistics.median(latencies) * 1000
        report["query_ms_p90"] = statistics.quantiles(latencies, n=10)[8] * 1000
    return {
        **{name: sum(q[name] for q in per_query) for name in TIMES},
        "dst_mib": apparent_mib(out),
        "report": report,
        "digests": {"steps": digest(combined.encode()) if complete else None},
    }


def evaluate_pass(repo: str, oracle: list[OracleEntry]):
    store = ObjectStore(repo)
    try:
        return evaluate(store, oracle)
    finally:
        store.close()


def run_evaluate(workdir: str, history: dict, runner: Runner) -> dict:
    out = os.path.join(workdir, "out.git")
    oracle = [OracleEntry(p, history["oracle"][p]) for p in history["sample"]]
    csvs: list[str] = []
    best_f1 = 0.0
    follows = 0
    while runner.attempted < MIN_PASSES or not runner.time_up():
        result = runner.op(evaluate_pass, (out, oracle))
        if result is None:
            continue
        metrics, skipped = result
        if skipped:
            runner.fail(f"evaluate skipped {len(skipped)} oracle paths")
        follows = (len(oracle) - len(skipped)) * len(metrics)
        best_f1 = max(float(m.f_measure) for m in metrics)
        csvs.append(digest(metrics_to_csv(metrics).encode()))
        if csvs[-1] != csvs[0]:
            runner.fail("evaluate passes produced different results")
    times = runner.means()
    wall = times["wall_s"]
    return {
        **times,
        "dst_mib": apparent_mib(out),
        "report": {"follows_per_s": follows / wall if wall else 0.0, "best_f1": best_f1},
        "digests": {"csv": csvs[0] if csvs else None},
    }


WORKLOADS = {
    "convert": (run_convert, "rewrite_history"),
    "track": (run_track, "query"),
    "evaluate": (run_evaluate, "evaluate"),
}


def measure(workload: str, workdir: str, seconds: float, spans_path: str | None) -> dict:
    with open(os.path.join(workdir, "history.json"), encoding="utf-8") as f:
        history = json.load(f)
    tracer = Tracer() if spans_path else None
    run, root = WORKLOADS[workload]
    runner = Runner(seconds, tracer, root)
    result = run(workdir, history, runner)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(attempted=runner.attempted, failed=runner.failed, errors=runner.errors,
                  samples=len(runner.walls), walls=runner.walls,
                  cpus=runner.cpus, scales=runner.scales)
    if tracer is not None:
        values = tracer.metrics(runner.overhead())
        result["per_layer"] = {name: {"value": values[name], "unit": unit}
                               for name, unit in PER_LAYER}
        tracer.write(spans_path)
    return result


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        workload, seed, workdir = argv[1], int(argv[2]), argv[3]
        result = setup(workload, seed, workdir)
    else:
        workload, workdir, seconds = argv[1], argv[2], float(argv[3])
        result = measure(workload, workdir, seconds, argv[4] if len(argv) > 4 else None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
