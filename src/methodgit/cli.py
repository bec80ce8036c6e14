"""Command-line front end: convert, track, evaluate, compare.

Exit statuses: 0 success, 1 runtime failure, 2 usage error.  stdout carries
data only; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .emit import LineFormat, RenderConfig
from .errors import MethodGitError
from .evaluate import (
    DEFAULT_THRESHOLDS,
    compare_modes,
    evaluate,
    load_oracle,
    load_pairs,
    metrics_to_csv,
)
from .gitstore import ObjectStore
from .naming import NamePolicy
from .rewrite import ConversionConfig, rewrite_history
from .tracking import Metric, TrackerConfig, follow, steps_to_json, steps_to_tsv


def _threshold(value: str) -> int:
    try:
        t = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid threshold: {value!r}")
    if not 1 <= t <= 100:
        raise argparse.ArgumentTypeError(f"threshold must be in 1..100, got {t}")
    return t


def _threshold_list(value: str) -> tuple[int, ...]:
    items = [part.strip() for part in value.split(",") if part.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty threshold list")
    return tuple(_threshold(item) for item in items)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="methodgit",
        description="Rewrite Java repositories into method-per-file "
        "repositories and track method histories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_convert = sub.add_parser("convert", help="rewrite a repository")
    p_convert.add_argument("--src", required=True, help="source repository path")
    p_convert.add_argument("--dst", required=True, help="destination path (absent or empty)")
    p_convert.add_argument("--plain", action="store_true",
                           help="keep original line format instead of one token per line")
    p_convert.add_argument("--no-h1", action="store_true",
                           help="disable terminator role tags")
    p_convert.add_argument("--no-h2", action="store_true",
                           help="disable elision of the four outer delimiters")
    p_convert.add_argument("--fields", action="store_true",
                           help="also emit one file per field")
    p_convert.add_argument("--keep-java", action="store_true",
                           help="keep original .java files alongside method files")
    p_convert.add_argument("--ref", action="append", metavar="NAME",
                           help="convert only this ref (repeatable)")
    p_convert.add_argument("--max-name-bytes", type=int, default=255, metavar="N",
                           help="file name byte budget (default 255)")
    p_convert.add_argument("--stats-json", metavar="PATH",
                           help="also write conversion stats to this file")

    p_track = sub.add_parser("track", help="trace one file through history")
    p_track.add_argument("--repo", required=True, help="repository path")
    p_track.add_argument("--path", required=True, help="file path to trace")
    p_track.add_argument("-M", dest="threshold", type=_threshold, required=True,
                         metavar="T", help="rename threshold percentage (1..100)")
    p_track.add_argument("-C", dest="copy_threshold", type=_threshold, default=None,
                         metavar="T", help="enable copy detection at this threshold "
                         "(must equal -M)")
    p_track.add_argument("--metric", choices=["git-bytes", "lines"],
                         default="git-bytes", help="similarity metric")
    p_track.add_argument("--format", choices=["tsv", "json"], default="tsv",
                         help="output format")

    p_eval = sub.add_parser("evaluate", help="score tracking against an oracle")
    p_eval.add_argument("--repo", required=True, help="repository path")
    p_eval.add_argument("--oracle", required=True, help="oracle JSON file")
    p_eval.add_argument("--thresholds", type=_threshold_list,
                        default=DEFAULT_THRESHOLDS, metavar="LIST",
                        help="comma-separated percentages (default 20,25,...,80)")

    p_cmp = sub.add_parser("compare", help="compare tracking in two conversions")
    p_cmp.add_argument("--repo-a", required=True, help="first repository")
    p_cmp.add_argument("--repo-b", required=True, help="second repository")
    p_cmp.add_argument("--pairs", required=True,
                       help="TSV file of pathA<TAB>pathB lines")
    p_cmp.add_argument("-M-a", dest="threshold_a", type=_threshold, default=55,
                       metavar="T", help="threshold for the first repository")
    p_cmp.add_argument("-M-b", dest="threshold_b", type=_threshold, default=25,
                       metavar="T", help="threshold for the second repository")

    return parser


def _cmd_convert(args: argparse.Namespace) -> int:
    render = RenderConfig(
        line_format=LineFormat.PLAIN if args.plain else LineFormat.TOKEN_PER_LINE,
        heuristic1=not args.no_h1,
        heuristic2=not args.no_h2,
    )
    config = ConversionConfig(
        render=render,
        emit_fields=args.fields,
        keep_original_java=args.keep_java,
        name_policy=NamePolicy(max_file_name_bytes=args.max_name_bytes),
    )

    def progress(done: int, total: int) -> None:
        print(f"{done}/{total} commits", file=sys.stderr)

    stats = rewrite_history(
        args.src, args.dst, config, ref_names=args.ref, progress=progress
    )
    payload = json.dumps(stats.to_dict(), indent=2)
    print(payload)
    if args.stats_json:
        with open(args.stats_json, "w", encoding="utf-8") as f:
            f.write(payload + "\n")
    return 0


def _cmd_track(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.copy_threshold is not None and args.copy_threshold != args.threshold:
        parser.error(
            f"-C {args.copy_threshold} must equal -M {args.threshold}: "
            "tracking uses a single threshold"
        )
    config = TrackerConfig(
        threshold=args.threshold,
        detect_copies=args.copy_threshold is not None,
        metric=Metric(args.metric),
    )
    with ObjectStore(args.repo) as store:
        steps = follow(store, args.path, config)
    if args.format == "json":
        print(json.dumps(steps_to_json(steps), indent=2))
    else:
        sys.stdout.write(steps_to_tsv(steps))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    oracle = load_oracle(args.oracle)
    if not oracle:
        print("error: oracle contains no entries", file=sys.stderr)
        return 1
    with ObjectStore(args.repo) as store:
        metrics, skipped = evaluate(store, oracle, thresholds=args.thresholds)
    sys.stdout.write(metrics_to_csv(metrics))
    for path in skipped:
        print(f"warning: skipped unresolvable path: {path}", file=sys.stderr)
    return 1 if skipped else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    pairs = load_pairs(args.pairs)
    with ObjectStore(args.repo_a) as store_a, ObjectStore(args.repo_b) as store_b:
        report = compare_modes(
            store_a,
            store_b,
            pairs,
            TrackerConfig(threshold=args.threshold_a, detect_copies=True),
            TrackerConfig(threshold=args.threshold_b, detect_copies=True),
        )
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "convert":
            return _cmd_convert(args)
        if args.command == "track":
            return _cmd_track(args, parser)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        return _cmd_compare(args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except (MethodGitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
