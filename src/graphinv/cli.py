"""Command-line entry point exposing the fingerprint, expressivity,
feature, and meta-table pipelines.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure
escalated by --strict.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import __version__
from .expressivity import export_heatmap, export_report_json, load_pairs, score_pairs
from .features import DEFAULT_HOPS, MODES, FeatureConfig, write_features_csv
from .graph import load_jsonl
from .meta import (
    DEFAULT_SAMPLE_SIZE,
    DEFAULT_TEST_FRACTION,
    assemble_meta_table,
    export_meta_csv,
    nearest_centroid_accuracy,
)
from .registry import (
    REGIMES,
    RegimeConfig,
    SCHEMA_VERSION,
    SUBSETS,
    build_catalog,
    fingerprint_dataset,
    write_fingerprint_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A negative number in any float spelling ("-1e-6", "-inf"), alone
        # or first in a comma list, is an option's value; argparse's own
        # pattern takes only "-1" and "-.5".
        self._negative_number_matcher = re.compile(r"^-(\.?\d|(inf(inity)?|nan)(,|$))", re.IGNORECASE)

    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def comma_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x)


def _add_config_flags(p: argparse.ArgumentParser, subset: bool = True):
    p.add_argument("--regime", choices=REGIMES, default="full")
    if subset:
        p.add_argument("--subset", choices=SUBSETS, default="I")
    p.add_argument("--q", type=float, default=None, help="magnitude scale in (0,1)")
    p.add_argument("--alpha", type=float, default=None, help="lazy-walk laziness in [0,1)")
    p.add_argument("--torsion-dim", type=int, default=None, help="clique-complex dimension cap")
    p.add_argument("--spectrum-k", type=int, default=None, help="spectral block half-width")
    p.add_argument(
        "--randic-exponents", type=comma_floats, default=None,
        help="comma-separated exponents for the general Randić index",
    )
    p.add_argument("--hom-log1p", action="store_true", help="log1p the homomorphism counts")


#: RegimeConfig fields that a flag of the same name overrides when given.
_OVERRIDES = ("q", "alpha", "torsion_dim", "spectrum_k", "randic_exponents", "hom_log1p")


_STRICT_HELP = "exit 3 when any invariant block fails"


def build_parser() -> _Parser:
    parser = _Parser(prog="graphinv", description=__doc__)
    parser.add_argument("--version", action="version", version=f"graphinv {__version__} schema {SCHEMA_VERSION}")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="accepted and ignored: every command runs serially",
    )
    parser.add_argument("--seed", type=int, default=0, help="sampling seed; only meta reads it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-invariants", help="print the catalog for a regime/subset")
    p.set_defaults(run=_cmd_list_invariants)
    _add_config_flags(p)

    p = sub.add_parser("fingerprint", help="fingerprint a dataset to CSV")
    p.set_defaults(run=_cmd_fingerprint)
    _add_config_flags(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true", help=_STRICT_HELP)

    p = sub.add_parser("expressivity", help="score non-isomorphic pair differentiation")
    p.set_defaults(run=_cmd_expressivity)
    _add_config_flags(p)
    p.add_argument("--pairs", required=True, help="pairs JSONL (or BREC .npy)")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument(
        "--absolute", action="store_true",
        help="pure absolute tolerance instead of relative-with-floor",
    )
    p.add_argument("--report", default=None, help="write the report JSON here")
    p.add_argument("--heatmap", default=None, help="write the difference heatmap CSV here")

    p = sub.add_parser("features", help="export feature rows (optionally with invariants)")
    p.set_defaults(run=_cmd_features)
    _add_config_flags(p, subset=False)
    p.add_argument("--dataset", required=True)
    p.add_argument("--mode", choices=MODES, default="sum")
    p.add_argument("--hops", type=int, default=DEFAULT_HOPS)
    p.add_argument("--combine", choices=("none", *SUBSETS), default="none", dest="subset")
    p.add_argument("--out", required=True)

    p = sub.add_parser("meta", help="assemble a meta-classification table")
    p.set_defaults(run=_cmd_meta)
    _add_config_flags(p)
    p.add_argument("--datasets", nargs="+", required=True)
    p.add_argument("--sample", type=int, default=DEFAULT_SAMPLE_SIZE)
    p.add_argument("--test-frac", type=float, default=DEFAULT_TEST_FRACTION)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--smoke-accuracy", action="store_true",
        help="print nearest-centroid separability of the exported table",
    )
    p.add_argument("--strict", action="store_true", help=_STRICT_HELP)
    return parser


def _cmd_list_invariants(args, config: RegimeConfig, catalog) -> int:
    for d in catalog:
        print(f"{d.name} {d.width}")
    return EXIT_OK


def _cmd_fingerprint(args, config: RegimeConfig, catalog) -> int:
    ds = load_jsonl(args.dataset)
    table = fingerprint_dataset(ds, catalog)
    write_fingerprint_csv(table, args.out, config)
    failures = sum(table.failure_counts().values())
    print(f"wrote {len(ds)} rows x {table.values.shape[1]} values to {args.out} "
          f"({failures} failed blocks)")
    if args.strict and failures:
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_expressivity(args, config: RegimeConfig, catalog) -> int:
    pairs = load_pairs(args.pairs)
    mode = "absolute" if args.absolute else "relative"
    report = score_pairs(pairs, catalog, tol=args.tol, mode=mode)
    for cat, stats in report.category_stats().items():
        print(f"{cat}: {stats['count']}/{stats['size']} ({stats['accuracy']:.1%})")
    total = report.total_stats()
    print(f"Total: {total['count']}/{total['size']} ({total['accuracy']:.1%})")
    if args.report:
        export_report_json(report, args.report)
    if args.heatmap:
        export_heatmap(report, args.heatmap)
    return EXIT_OK


def _cmd_features(args, config: RegimeConfig, catalog) -> int:
    fconfig = FeatureConfig(mode=args.mode, hops=args.hops)
    ds = load_jsonl(args.dataset)
    write_features_csv(ds, fconfig, catalog, args.out)
    print(f"wrote {len(ds)} feature rows to {args.out}")
    return EXIT_OK


def _cmd_meta(args, config: RegimeConfig, catalog) -> int:
    datasets = [load_jsonl(p) for p in args.datasets]
    table = assemble_meta_table(
        datasets, catalog,
        sample_size=args.sample, test_fraction=args.test_frac,
        seed=args.seed,
    )
    for w in table.warnings:
        print(f"warning: {w}", file=sys.stderr)
    # The classifier may reject the table; it runs first so that a rejected
    # run writes no file and prints nothing to stdout.
    result = nearest_centroid_accuracy(table) if args.smoke_accuracy else None
    export_meta_csv(table, args.out, config)
    print(f"wrote {len(table.labels)} rows ({len(table.label_names)} labels) to {args.out}")
    if result is not None:
        print(f"nearest-centroid accuracy: {result.overall_accuracy:.3f}")
        for k, name in enumerate(table.label_names):
            print(f"  {name}: {result.per_label_accuracy[k]:.3f}")
        print("confusion matrix (rows = true label):")
        for row in result.confusion:
            print("  " + " ".join(f"{int(x):5d}" for x in row))
    if args.strict and table.fingerprints.failure_counts():
        return EXIT_NUMERICAL
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # features --combine none computes no invariants, but its config
        # flags are still checked: a bad one is a data error there too.
        overrides = {k: getattr(args, k) for k in _OVERRIDES if getattr(args, k) is not None}
        subset = "I" if args.subset == "none" else args.subset
        config = RegimeConfig(regime=args.regime, subset=subset, **overrides)
        catalog = None if args.subset == "none" else build_catalog(config)
        return args.run(args, config, catalog)
    except (ValueError, OSError) as exc:  # GraphDataError and ConfigError are ValueErrors
        print(f"graphinv: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
