"""Command-line front end: simulate, linkpred, recommend, gen-traces.

Exit codes: 0 success, 2 input file parse error, 3 configuration error
(including unknown algorithm names), 4 unknown user.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from . import evaluation, recommend, simulator, synth, traces
from .graph import GraphFormatError, load_graph_tsv
from .traces import ConfigError, TraceParseError

ALGORITHMS = ("pliers", "cf", "tagexp", "probs", "heats", "hybrid")
K_ALGORITHMS = ("cf", "tagexp")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_NO_USER = 4

log = logging.getLogger("pliersim")


def _now_utc() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def make_scorer(name: str, k: int, affinity_weight: float) -> recommend.Scorer:
    """The scorer ``name`` with its ``k`` or lambda.

    The Scorer scores one target of a graph when called, and many user
    rows of one index, block by block, with ``rows``: PLIERS in blocks of
    ``_BLOCK_SCORES`` scores, the five two-hop kernels, whose temporaries
    are smaller, in blocks of ``_TWO_HOP_BLOCK_SCORES``. Raises ConfigError for an
    unknown name or for a value the scorer would reject, so the commands
    can check their options before reading a graph.
    """
    if name not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {name!r}; choose from {', '.join(ALGORITHMS)}")
    if name in K_ALGORITHMS and k < 1:
        raise ConfigError(f"--k must be >= 1, got {k}")
    if name in ("pliers", "hybrid") and not 0.0 <= affinity_weight <= 1.0:
        raise ConfigError(f"--lambda must lie in [0, 1], got {affinity_weight}")
    if name == "pliers":
        return recommend.Scorer(partial(recommend._tripartite, affinity_weight=affinity_weight))
    two_hop = {
        "cf": partial(recommend._cf, k=k),
        "tagexp": partial(recommend._tag_expansion, k=k),
        "probs": recommend._probs,
        "heats": recommend._heats,
        "hybrid": partial(recommend._hybrid, probs_weight=affinity_weight),
    }
    return recommend.Scorer(two_hop[name], recommend._TWO_HOP_BLOCK_SCORES)


def _check_top_n(top_n: int | None) -> None:
    """Raise ConfigError for a negative ``--top-n``, before a graph is read."""
    if top_n is not None and top_n < 0:
        raise ConfigError(f"--top-n must be >= 0, got {top_n}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    started = _now_utc()
    if args.config:
        config = traces.parse_config_file(args.config)
    else:
        config = simulator.SimConfig()
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
    inputs = {
        str(args.contacts): traces.file_digest(args.contacts),
        str(args.contents): traces.file_digest(args.contents),
    }
    if args.config:
        inputs[str(args.config)] = traces.file_digest(args.config)
    traces.write_manifest(
        outdir / "manifest.json",
        "simulate",
        asdict(config),
        inputs,
        None,
        started,
        _now_utc(),
        outputs={
            "metrics.csv": traces.file_digest(metrics_path),
            "correlation.csv": traces.file_digest(correlation_path),
        },
    )
    log.info("wrote %s (%d rows)", metrics_path, len(metrics))
    return EXIT_OK


def cmd_linkpred(args: argparse.Namespace) -> int:
    started = _now_utc()
    _check_top_n(args.top_n)
    scorers = [
        (name, k, make_scorer(name, 1 if k is None else k, args.lambda_weight))
        for name in args.algorithms
        for k in (args.k if name in K_ALGORITHMS else [None])
    ]
    graph = load_graph_tsv(args.graph)
    pruned, removal = evaluation.prune_for_link_prediction(graph, args.seed)

    rows = [traces.LINKPRED_HEADER]
    for name, k, scorer in scorers:
        report = evaluation.evaluate_on_pruned(pruned, removal, scorer, args.top_n)
        rows.append(
            ",".join(
                (
                    name,
                    "" if k is None else str(k),
                    traces.fmt(report.precision),
                    traces.fmt(report.recall),
                    traces.fmt(removal.removed_fraction),
                )
            )
        )
    text = "\n".join(rows) + "\n"
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
            {str(args.graph): traces.file_digest(args.graph)},
            args.seed,
            started,
            _now_utc(),
            outputs={str(args.out): traces.file_digest(args.out)},
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
    sys.stdout.write("rank,item,score\n")
    for position, (item, score) in enumerate(rec.ranked, start=1):
        sys.stdout.write(f"{position},{item},{traces.fmt(score)}\n")
    return EXIT_OK


def cmd_gen_traces(args: argparse.Namespace) -> int:
    started = _now_utc()
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
    outputs = {str(args.contacts_out): traces.file_digest(args.contacts_out)}
    config = {
        "agents": args.agents,
        "communities": args.communities,
        "rewiring_p": args.rewiring_p,
        "duration_s": args.duration_s,
    }
    if args.contents_out:
        traces.write_contents(args.contents_out, contents)
        outputs[str(args.contents_out)] = traces.file_digest(args.contents_out)
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
        {},
        args.seed,
        started,
        _now_utc(),
        outputs=outputs,
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

    p = sub.add_parser("gen-traces", help="generate synthetic contact/content traces")
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
    except (TraceParseError, GraphFormatError) as exc:
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
