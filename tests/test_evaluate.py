"""Evaluation-harness unit tests: oracle parsing, counting rules,
threshold sweeps on a designed fixture, and mode comparison."""

from __future__ import annotations

import importlib
import json
from fractions import Fraction

import pytest

from methodgit import (
    Metric,
    ObjectStore,
    TrackerConfig,
    compare_modes,
    count_renames,
    evaluate,
    follow,
)
from methodgit.errors import OracleError
from methodgit.evaluate import (
    DEFAULT_THRESHOLDS,
    OracleEntry,
    UnmappedPath,
    load_pairs,
    metrics_to_csv,
    parse_oracle,
)

from repogen import build_metrics_repo


@pytest.fixture(scope="module")
def metrics_repo(tmp_path_factory):
    dst = str(tmp_path_factory.mktemp("eval") / "metrics.git")
    expected = build_metrics_repo(dst)
    return dst, expected


def oracle_for(expected: dict[str, int]) -> list[OracleEntry]:
    return [
        OracleEntry(method_path=path, expected_rename_count=count)
        for path, count in sorted(expected.items())
    ]


def test_default_thresholds_are_thirteen():
    assert DEFAULT_THRESHOLDS == tuple(range(20, 85, 5))
    assert len(DEFAULT_THRESHOLDS) == 13


def test_parse_oracle_valid():
    got = parse_oracle(
        '[{"methodPath": "A#void_f().mjava", "expectedRenameCount": 2}]'
    )
    assert got == [OracleEntry("A#void_f().mjava", 2)]


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"methodPath": "x"}',
        "[42]",
        '[{"expectedRenameCount": 1}]',
        '[{"methodPath": "", "expectedRenameCount": 1}]',
        '[{"methodPath": "x.mjava"}]',
        '[{"methodPath": "x.mjava", "expectedRenameCount": -1}]',
        '[{"methodPath": "x.mjava", "expectedRenameCount": true}]',
        '[{"methodPath": "x.mjava", "expectedRenameCount": 1.5}]',
    ],
)
def test_parse_oracle_rejects_malformed(text):
    with pytest.raises(OracleError):
        parse_oracle(text)


def test_counting_rules_over_and_under_tracking(tmp_path):
    # detected=1 expected=2 -> TP1 FN1; detected=1 expected=0 -> FP1.
    dst = str(tmp_path / "r.git")
    build_metrics_repo(dst)
    store = ObjectStore(dst)
    oracle = [OracleEntry("m1.mjava", 2), OracleEntry("m5.mjava", 0)]
    (metrics,), skipped = evaluate(store, oracle, thresholds=(50,))
    store.close()
    assert skipped == []
    assert metrics.true_positives == 1
    assert metrics.false_negatives == 1
    assert metrics.false_positives == 1
    assert metrics.precision == Fraction(1, 2)
    assert metrics.recall == Fraction(1, 2)
    assert metrics.f_measure == Fraction(1, 2)


def test_designed_sweep_matches_hand_computation(metrics_repo):
    repo, expected = metrics_repo
    store = ObjectStore(repo)
    metrics, skipped = evaluate(store, oracle_for(expected))
    store.close()
    assert skipped == []
    by_threshold = {m.threshold: m for m in metrics}
    assert len(metrics) == 13

    for t in (20, 25):
        m = by_threshold[t]
        assert (m.true_positives, m.false_positives, m.false_negatives) == (5, 0, 0)
        assert m.precision == m.recall == m.f_measure == 1

    for t in (30, 35, 40, 45, 50):
        m = by_threshold[t]
        assert (m.true_positives, m.false_positives, m.false_negatives) == (4, 0, 1)
        assert m.precision == 1
        assert m.recall == Fraction(4, 5)
        assert m.f_measure == Fraction(8, 9)

    for t in (55, 60, 65, 70, 75):
        m = by_threshold[t]
        assert (m.true_positives, m.false_positives, m.false_negatives) == (3, 0, 2)
        assert m.recall == Fraction(3, 5)
        assert m.f_measure == Fraction(3, 4)

    m80 = by_threshold[80]
    assert (m80.true_positives, m80.false_positives, m80.false_negatives) == (2, 0, 3)
    assert m80.recall == Fraction(2, 5)
    assert m80.f_measure == Fraction(4, 7)


def test_conservation_invariant(metrics_repo):
    repo, expected = metrics_repo
    store = ObjectStore(repo)
    metrics, _ = evaluate(store, oracle_for(expected))
    store.close()
    total_expected = sum(expected.values())
    for m in metrics:
        assert m.true_positives + m.false_negatives == total_expected
        # No over-tracking in this fixture, so TP+FP equals detected count.
        assert m.false_positives == 0


def test_recall_non_increasing_in_threshold(metrics_repo):
    repo, expected = metrics_repo
    store = ObjectStore(repo)
    metrics, _ = evaluate(store, oracle_for(expected))
    store.close()
    recalls = [m.recall for m in metrics]
    assert all(a >= b for a, b in zip(recalls, recalls[1:]))


def test_f_measure_bounds(metrics_repo):
    repo, expected = metrics_repo
    store = ObjectStore(repo)
    oracle = oracle_for(expected) + [OracleEntry("stable.mjava", 1)]
    metrics, _ = evaluate(store, oracle)
    store.close()
    for m in metrics:
        if m.precision + m.recall > 0:
            assert min(m.precision, m.recall) <= m.f_measure
            assert m.f_measure <= max(m.precision, m.recall)
        else:
            assert m.f_measure == 0


def test_unresolvable_paths_are_skipped_everywhere(metrics_repo):
    repo, expected = metrics_repo
    store = ObjectStore(repo)
    with_ghost = oracle_for(expected) + [OracleEntry("ghost.mjava", 3)]
    metrics_ghost, skipped = evaluate(store, with_ghost)
    metrics_plain, _ = evaluate(store, oracle_for(expected))
    store.close()
    assert skipped == ["ghost.mjava"]
    assert metrics_ghost == metrics_plain


def test_one_walk_per_resolved_path(metrics_repo, monkeypatch):
    repo, expected = metrics_repo
    module = importlib.import_module("methodgit.evaluate")
    walked: list[str] = []
    refs_calls = []
    refs = ObjectStore.refs

    def counting_follow(store, path, config, **kwargs):
        steps = follow(store, path, config, **kwargs)
        walked.append(path)
        return steps

    def counting_refs(store):
        refs_calls.append(1)
        return refs(store)

    monkeypatch.setattr(module, "follow", counting_follow)
    monkeypatch.setattr(ObjectStore, "refs", counting_refs)
    store = ObjectStore(repo)
    oracle = oracle_for(expected) + [OracleEntry("ghost.mjava", 3)]
    metrics, skipped = evaluate(store, oracle)
    assert skipped == ["ghost.mjava"]
    assert sorted(walked) == sorted(expected)
    # The branch tips are read once per evaluate call, not once per path.
    assert len(refs_calls) == 1
    assert evaluate(store, oracle, thresholds=()) == ([], ["ghost.mjava"])

    # Each threshold's counts equal those of a walk at that threshold.
    monkeypatch.undo()
    for m in metrics:
        config = TrackerConfig(threshold=m.threshold, detect_copies=True)
        tp = fp = fn = 0
        for path, want in expected.items():
            got = count_renames(follow(store, path, config))
            tp += min(got, want)
            fp += max(got - want, 0)
            fn += max(want - got, 0)
        assert (m.true_positives, m.false_positives, m.false_negatives) == (tp, fp, fn)
    store.close()


def test_metrics_to_csv_golden(metrics_repo):
    repo, expected = metrics_repo
    store = ObjectStore(repo)
    metrics, _ = evaluate(store, oracle_for(expected), thresholds=(50,))
    store.close()
    csv = metrics_to_csv(metrics)
    assert csv == (
        "threshold,precision,recall,fmeasure\n"
        "50,1.000000,0.800000,0.888889\n"
    )


def test_evaluate_respects_metric_choice(metrics_repo):
    repo, expected = metrics_repo
    store = ObjectStore(repo)
    base = TrackerConfig(threshold=50, detect_copies=True, metric=Metric.LINES)
    metrics, _ = evaluate(
        store, oracle_for(expected), thresholds=(50,), base_config=base
    )
    store.close()
    # Lines are equal-width by construction, so LINES agrees with bytes.
    assert metrics[0].recall == Fraction(4, 5)


def test_load_pairs_and_errors(tmp_path):
    good = tmp_path / "pairs.tsv"
    good.write_text("a.mjava\tb.mjava\n\nx.mjava\ty.mjava\n")
    assert load_pairs(str(good)) == [
        ("a.mjava", "b.mjava"),
        ("x.mjava", "y.mjava"),
    ]
    bad = tmp_path / "bad.tsv"
    bad.write_text("only-one-column\n")
    with pytest.raises(OracleError):
        load_pairs(str(bad))
    with pytest.raises(OracleError):
        load_pairs(str(tmp_path / "absent.tsv"))


def test_compare_identical_sides(metrics_repo):
    repo, expected = metrics_repo
    store_a = ObjectStore(repo)
    store_b = ObjectStore(repo)
    pairs = [(p, p) for p in sorted(expected)] + [("stable.mjava", "stable.mjava")]
    config = TrackerConfig(threshold=50, detect_copies=True)
    report = compare_modes(store_a, store_b, pairs, config, config)
    store_a.close()
    store_b.close()
    assert report.fraction_equal == 1
    assert report.fraction_a_more == 0
    assert report.fraction_b_more == 0
    assert report.mean_renames_a == report.mean_renames_b == Fraction(4, 6)
    # stable.mjava never changes; m4 scores 25 percent, under this threshold.
    assert report.never_changed == 2


def test_compare_asymmetric_thresholds(metrics_repo):
    repo, expected = metrics_repo
    store_a = ObjectStore(repo)
    store_b = ObjectStore(repo)
    pairs = [(p, p) for p in sorted(expected)]
    report = compare_modes(
        store_a,
        store_b,
        pairs,
        TrackerConfig(threshold=80, detect_copies=True),
        TrackerConfig(threshold=20, detect_copies=True),
    )
    store_a.close()
    store_b.close()
    # At 80 percent only the two identical renames survive; at 20 all five.
    assert report.fraction_b_more == Fraction(3, 5)
    assert report.fraction_equal == Fraction(2, 5)
    assert report.fraction_a_more == 0
    assert report.mean_renames_a == Fraction(2, 5)
    assert report.mean_renames_b == 1
    by_path = {p.path_a: p for p in report.pairs}
    assert by_path["m4.mjava"].renames_a == 0
    assert by_path["m4.mjava"].renames_b == 1


def test_compare_report_serializes_camel_case(metrics_repo):
    repo, expected = metrics_repo
    store_a = ObjectStore(repo)
    store_b = ObjectStore(repo)
    report = compare_modes(
        store_a,
        store_b,
        [("m1.mjava", "m1.mjava")],
        TrackerConfig(threshold=50, detect_copies=True),
        TrackerConfig(threshold=50, detect_copies=True),
    )
    store_a.close()
    store_b.close()
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["pairCount"] == 1
    assert payload["pairs"][0]["pathA"] == "m1.mjava"
    assert payload["pairs"][0]["renamesA"] == 1
    assert payload["fractionEqual"] == 1.0
    assert payload["neverChanged"] == 0
    assert payload["meanChangesA"] >= 1.0


def test_compare_unmapped_path_raises(metrics_repo):
    repo, _ = metrics_repo
    store_a = ObjectStore(repo)
    store_b = ObjectStore(repo)
    config = TrackerConfig(threshold=50, detect_copies=True)
    with pytest.raises(UnmappedPath):
        compare_modes(
            store_a, store_b, [("nope.mjava", "m1.mjava")], config, config
        )
    store_a.close()
    store_b.close()


def test_compare_empty_pairs_is_well_defined(metrics_repo):
    repo, _ = metrics_repo
    store_a = ObjectStore(repo)
    store_b = ObjectStore(repo)
    config = TrackerConfig(threshold=50, detect_copies=True)
    report = compare_modes(store_a, store_b, [], config, config)
    store_a.close()
    store_b.close()
    assert report.pairs == []
    assert report.fraction_equal == 0
    assert report.never_changed == 0
