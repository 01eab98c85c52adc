"""Command-line front end: simulate, linkpred, recommend, gen-traces.

Exit codes: 0 success, 2 input file parse error, 3 configuration error
(including unknown algorithm names), 4 unknown user.

The replay engine (:mod:`pliersim.simulator`) and the generators
(:mod:`pliersim.synth`) are imported only by the commands that run them,
so ``linkpred`` and ``recommend`` neither load nor compile them.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import evaluation, recommend, traces
from .graph import ParseError, load_graph_tsv
from .recommend import ALGORITHMS, K_ALGORITHMS
from .traces import ConfigError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_NO_USER = 4

log = logging.getLogger("pliersim")


def make_scorer(name: str, k: int, affinity_weight: float) -> recommend.Scorer:
    """The scorer ``name`` with its ``k`` or lambda, from :func:`recommend.scorer`.

    Raises ConfigError for an unknown name or for a value the scorer would
    reject, so the commands can check their options before reading a graph.
    """
    try:
        return recommend.scorer(name, k, affinity_weight)
    except ValueError as exc:
        # a known name's error is about k or lambda, the values of --k and --lambda
        raise ConfigError(f"{'--' if name in ALGORITHMS else ''}{exc}") from None


def _check_top_n(top_n: int | None) -> None:
    """Raise ConfigError for a negative ``--top-n``, before a graph is read."""
    if top_n is not None and top_n < 0:
        raise ConfigError(f"--top-n must be >= 0, got {top_n}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    from . import simulator

    started = traces.now_utc()
    if args.config:
        config = traces.parse_config_file(args.config)
    else:
        config = traces.SimConfig()
    contacts = traces.parse_contacts(args.contacts)
    contents = traces.parse_contents(args.contents)

    metrics = simulator.run(config, contacts, contents)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    metrics_path = outdir / "metrics.csv"
    metrics_path.write_text(traces.metrics_csv_text(metrics), encoding="utf-8")
    correlation_path = outdir / "correlation.csv"
    correlation_path.write_text(
        traces.correlation_csv_text(traces.correlation_for_run(metrics)),
        encoding="utf-8",
    )
    traces.write_manifest(
        outdir / "manifest.json",
        "simulate",
        asdict(config),
        [p for p in (args.contacts, args.contents, args.config) if p],
        None,
        started,
        {"metrics.csv": metrics_path, "correlation.csv": correlation_path},
    )
    log.info("wrote %s (%d rows)", metrics_path, len(metrics))
    return EXIT_OK


def cmd_linkpred(args: argparse.Namespace) -> int:
    started = traces.now_utc()
    _check_top_n(args.top_n)
    scorers = [
        (name, k, make_scorer(name, 1 if k is None else k, args.lambda_weight))
        for name in args.algorithms
        for k in (args.k if name in K_ALGORITHMS else [None])
    ]
    graph = load_graph_tsv(args.graph)
    pruned, removal = evaluation.prune_for_link_prediction(graph, args.seed)

    reports = [
        (name, k, evaluation.evaluate_on_pruned(pruned, removal, scorer, args.top_n))
        for name, k, scorer in scorers
    ]
    text = traces.linkpred_csv_text(reports, removal.removed_fraction)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        traces.write_manifest(
            Path(args.out).with_suffix(Path(args.out).suffix + ".manifest.json"),
            "linkpred",
            {
                "algorithms": list(args.algorithms),
                "k": list(args.k),
                "lambda": args.lambda_weight,
                "top_n": args.top_n,
            },
            [args.graph],
            args.seed,
            started,
            {str(args.out): args.out},
        )
    return EXIT_OK


def cmd_recommend(args: argparse.Namespace) -> int:
    _check_top_n(args.top_n)
    scorer = make_scorer(args.algorithm, args.k, args.lambda_weight)
    graph = load_graph_tsv(args.graph)
    if args.user not in graph.users:
        print(f"user {args.user!r} not present in graph", file=sys.stderr)
        return EXIT_NO_USER
    rec = recommend.rank(scorer(graph, args.user), graph, args.top_n)
    sys.stdout.write(traces.ranking_csv_text(rec))
    return EXIT_OK


def cmd_gen_traces(args: argparse.Namespace) -> int:
    from . import simulator, synth

    started = traces.now_utc()
    # every value is checked before the first file is written
    try:
        contacts = simulator.generate_synthetic_contacts(
            args.agents, args.communities, args.rewiring_p, args.duration_s, args.seed
        )
        if args.contents_out:
            contents = synth.generate_synthetic_contents(
                args.agents,
                args.items,
                args.tags,
                args.duration_s,
                args.seed,
                user_exponent=args.user_exponent,
                tag_exponent=args.tag_exponent,
                extra_tag_p=args.extra_tag_p,
                max_tags_per_item=args.max_tags,
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    traces.write_contacts(args.contacts_out, contacts)
    outputs = {str(args.contacts_out): args.contacts_out}
    config = {
        "agents": args.agents,
        "communities": args.communities,
        "rewiring_p": args.rewiring_p,
        "duration_s": args.duration_s,
    }
    if args.contents_out:
        traces.write_contents(args.contents_out, contents)
        outputs[str(args.contents_out)] = args.contents_out
        config.update(
            items=args.items,
            tags=args.tags,
            user_exponent=args.user_exponent,
            tag_exponent=args.tag_exponent,
            extra_tag_p=args.extra_tag_p,
            max_tags=args.max_tags,
        )
    traces.write_manifest(
        str(args.contacts_out) + ".manifest.json",
        "gen-traces",
        config,
        [],
        args.seed,
        started,
        outputs,
    )
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pliersim",
        description="Tag-based recommenders over folksonomy graphs and a "
        "contact-trace gossip simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="replay contact+content traces, write metrics")
    p.add_argument("contacts", help="contact trace CSV (time_s,agent_a,agent_b)")
    p.add_argument("contents", help="content trace CSV (time_s,agent,item_key,tags)")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--outdir", default="simout", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("linkpred", help="link-prediction benchmark on a graph file")
    p.add_argument("graph", help="graph snapshot TSV")
    p.add_argument(
        "--algorithms",
        nargs="+",
        default=list(ALGORITHMS),
        help=f"any of: {', '.join(ALGORITHMS)}",
    )
    p.add_argument("--k", nargs="+", type=int, default=[10], help="neighbour / expansion sizes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda", dest="lambda_weight", type=float, default=0.5)
    p.add_argument("--top-n", type=int, default=None)
    p.add_argument("--out", default="-", help="report CSV path, '-' for stdout")
    p.set_defaults(func=cmd_linkpred)

    p = sub.add_parser("recommend", help="rank items for one user of a graph file")
    p.add_argument("graph", help="graph snapshot TSV")
    p.add_argument("user", help="target user key")
    p.add_argument("--algorithm", default="pliers")
    p.add_argument("--lambda", dest="lambda_weight", type=float, default=0.5)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--top-n", type=int, default=None)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser(
        "gen-traces",
        help="generate synthetic contact/content traces",
        epilog="Join -inf or a negative exponent form to its flag: --user-exponent=-1e3",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--communities", type=int, required=True)
    p.add_argument("--rewiring-p", type=float, default=0.1)
    p.add_argument("--duration-s", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--contacts-out", required=True)
    p.add_argument("--contents-out", default=None)
    p.add_argument("--items", type=int, default=500)
    p.add_argument("--tags", type=int, default=200)
    p.add_argument("--user-exponent", type=float, default=1.0)
    p.add_argument("--tag-exponent", type=float, default=1.0)
    p.add_argument("--extra-tag-p", type=float, default=0.5)
    p.add_argument("--max-tags", type=int, default=13)
    p.set_defaults(func=cmd_gen_traces)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("PLIERSIM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
