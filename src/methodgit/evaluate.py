"""Tracking-accuracy evaluation: threshold sweeps against an oracle of
expected rename counts, and mode-to-mode comparison of two repositories."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import OracleError, TrackError
from .gitstore import ObjectStore
from .tracking import (
    FollowCaches,
    StepKind,
    TrackerConfig,
    TrackStep,
    count_renames,
    follow,
)

DEFAULT_THRESHOLDS = tuple(range(20, 85, 5))


class UnmappedPath(TrackError):
    pass


@dataclass(frozen=True)
class OracleEntry:
    method_path: str
    expected_rename_count: int


def parse_oracle(text: str) -> list[OracleEntry]:
    """Oracle JSON: an array of {methodPath, expectedRenameCount}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OracleError(f"oracle is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise OracleError("oracle must be a JSON array")
    entries: list[OracleEntry] = []
    for i, item in enumerate(data):
        if not isinstance(item, dict):
            raise OracleError(f"oracle entry {i} is not an object")
        path = item.get("methodPath")
        count = item.get("expectedRenameCount")
        if not isinstance(path, str) or not path:
            raise OracleError(f"oracle entry {i} has no methodPath")
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise OracleError(
                f"oracle entry {i} has no non-negative expectedRenameCount"
            )
        entries.append(OracleEntry(method_path=path, expected_rename_count=count))
    return entries


def load_oracle(path: str) -> list[OracleEntry]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise OracleError(f"cannot read oracle: {exc}") from exc
    return parse_oracle(text)


@dataclass(frozen=True)
class EvalMetrics:
    threshold: int
    true_positives: int
    false_positives: int
    false_negatives: int
    precision: Fraction
    recall: Fraction
    f_measure: Fraction


def _metrics(threshold: int, tp: int, fp: int, fn: int) -> EvalMetrics:
    precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
    if precision + recall > 0:
        f_measure = 2 * precision * recall / (precision + recall)
    else:
        f_measure = Fraction(0)
    return EvalMetrics(threshold, tp, fp, fn, precision, recall, f_measure)


def evaluate(
    store: ObjectStore,
    oracle: list[OracleEntry],
    thresholds: tuple[int, ...] = DEFAULT_THRESHOLDS,
    base_config: TrackerConfig | None = None,
    ref: str | None = None,
) -> tuple[list[EvalMetrics], list[str]]:
    """Micro-averaged precision/recall/F per threshold.

    Each oracle path is resolved and walked once, from ref when it is
    given, as follow takes it.  Entries whose path cannot be resolved are
    skipped from every threshold and returned in the second element.
    """
    base = base_config or TrackerConfig(threshold=50, detect_copies=True)
    # The walk at threshold t is the lowest threshold's walk cut at its
    # first rename or copy scoring below t, so one walk per path serves all.
    configs = [
        TrackerConfig(threshold=t, detect_copies=base.detect_copies, metric=base.metric)
        for t in thresholds
    ]
    lowest = min(configs, key=lambda c: c.threshold, default=base)
    caches = FollowCaches()
    walks: list[tuple[int, list[TrackStep]]] = []
    skipped: list[str] = []
    for entry in oracle:
        try:
            steps = follow(store, entry.method_path, lowest, ref=ref, caches=caches)
        except TrackError:
            skipped.append(entry.method_path)
            continue
        walks.append((entry.expected_rename_count, steps))
    results: list[EvalMetrics] = []
    for threshold in thresholds:
        tp = fp = fn = 0
        for expected, steps in walks:
            detected = _renames_at(steps, threshold)
            tp += min(detected, expected)
            fp += max(detected - expected, 0)
            fn += max(expected - detected, 0)
        results.append(_metrics(threshold, tp, fp, fn))
    return results, skipped


def _renames_at(steps: list[TrackStep], threshold: int) -> int:
    """Renames and copies a walk at threshold makes, given a walk at a lower
    threshold: those before the first one scoring below threshold."""
    count = 0
    for step in steps:
        if step.kind in (StepKind.RENAME, StepKind.COPY):
            if step.score.numerator * 100 < threshold * step.score.denominator:
                break
            count += 1
    return count


def metrics_to_csv(metrics: list[EvalMetrics]) -> str:
    lines = ["threshold,precision,recall,fmeasure"]
    for m in metrics:
        lines.append(
            f"{m.threshold},{float(m.precision):.6f},"
            f"{float(m.recall):.6f},{float(m.f_measure):.6f}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PairResult:
    path_a: str
    path_b: str
    renames_a: int
    renames_b: int
    changes_a: int
    changes_b: int


@dataclass(frozen=True)
class CompareReport:
    pairs: list[PairResult]
    fraction_a_more: Fraction
    fraction_b_more: Fraction
    fraction_equal: Fraction
    mean_renames_a: Fraction
    mean_renames_b: Fraction
    mean_changes_a: Fraction
    mean_changes_b: Fraction
    never_changed: int

    def to_dict(self) -> dict:
        return {
            "pairs": [
                {
                    "pathA": p.path_a,
                    "pathB": p.path_b,
                    "renamesA": p.renames_a,
                    "renamesB": p.renames_b,
                    "changesA": p.changes_a,
                    "changesB": p.changes_b,
                }
                for p in self.pairs
            ],
            "pairCount": len(self.pairs),
            "fractionAMore": float(self.fraction_a_more),
            "fractionBMore": float(self.fraction_b_more),
            "fractionEqual": float(self.fraction_equal),
            "meanRenamesA": float(self.mean_renames_a),
            "meanRenamesB": float(self.mean_renames_b),
            "meanChangesA": float(self.mean_changes_a),
            "meanChangesB": float(self.mean_changes_b),
            "neverChanged": self.never_changed,
        }


def load_pairs(path: str) -> list[tuple[str, str]]:
    """Pairs file: one 'pathA<TAB>pathB' per line; blank lines ignored."""
    pairs: list[tuple[str, str]] = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, raw in enumerate(f, start=1):
                line = raw.rstrip("\n")
                if not line.strip():
                    continue
                parts = line.split("\t")
                if len(parts) != 2 or not parts[0] or not parts[1]:
                    raise OracleError(
                        f"pairs file line {lineno}: expected two tab-separated paths"
                    )
                pairs.append((parts[0], parts[1]))
    except (OSError, UnicodeDecodeError) as exc:
        raise OracleError(f"cannot read pairs file: {exc}") from exc
    return pairs


def _changes(steps) -> int:
    return sum(1 for s in steps if s.kind is not StepKind.ADD)


def compare_modes(
    store_a: ObjectStore,
    store_b: ObjectStore,
    pairs: list[tuple[str, str]],
    config_a: TrackerConfig,
    config_b: TrackerConfig,
) -> CompareReport:
    """Per-pair rename/change counts for two conversions of one history."""
    caches_a = FollowCaches()
    caches_b = FollowCaches()
    results: list[PairResult] = []
    for path_a, path_b in pairs:
        try:
            steps_a = follow(store_a, path_a, config_a, caches=caches_a)
        except TrackError as exc:
            raise UnmappedPath(f"cannot track {path_a} in repo A: {exc}") from exc
        try:
            steps_b = follow(store_b, path_b, config_b, caches=caches_b)
        except TrackError as exc:
            raise UnmappedPath(f"cannot track {path_b} in repo B: {exc}") from exc
        results.append(
            PairResult(
                path_a=path_a,
                path_b=path_b,
                renames_a=count_renames(steps_a),
                renames_b=count_renames(steps_b),
                changes_a=_changes(steps_a),
                changes_b=_changes(steps_b),
            )
        )
    n = len(results)
    if n == 0:
        zero = Fraction(0)
        return CompareReport([], zero, zero, zero, zero, zero, zero, zero, 0)
    a_more = sum(1 for r in results if r.renames_a > r.renames_b)
    b_more = sum(1 for r in results if r.renames_b > r.renames_a)
    equal = n - a_more - b_more
    return CompareReport(
        pairs=results,
        fraction_a_more=Fraction(a_more, n),
        fraction_b_more=Fraction(b_more, n),
        fraction_equal=Fraction(equal, n),
        mean_renames_a=Fraction(sum(r.renames_a for r in results), n),
        mean_renames_b=Fraction(sum(r.renames_b for r in results), n),
        mean_changes_a=Fraction(sum(r.changes_a for r in results), n),
        mean_changes_b=Fraction(sum(r.changes_b for r in results), n),
        never_changed=sum(
            1 for r in results if r.changes_a == 0 and r.changes_b == 0
        ),
    )
