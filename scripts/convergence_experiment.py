#!/usr/bin/env python3
"""Gossip convergence experiment: how fast do local views approach the
global graph for different crowd sizes?

Generates community-structured contact traces and, over the first half
of the run, a content stream: one content per ``--content-gap-s`` on
average, at uniform times, from uniformly drawn creators, each with 1 to 3
of 40 uniformly drawn tags. It replays them and writes one metrics CSV per
agent count.

    python3 scripts/convergence_experiment.py --outdir results/convergence
"""

import argparse
from pathlib import Path

from pliersim.simulator import SimConfig, generate_synthetic_contacts, run
from pliersim.synth import generate_synthetic_contents
from pliersim.traces import metrics_csv_text

# uniform creators and tags, 1 to 3 tags an item
CONTENT_SHAPE = dict(user_exponent=0.0, tag_exponent=0.0, extra_tag_p=0.5, max_tags_per_item=3)
N_TAGS = 40


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--agents", type=int, nargs="+", default=[250, 500, 900])
    parser.add_argument("--communities", type=int, default=60)
    parser.add_argument("--rewiring-p", type=float, default=0.1)
    parser.add_argument("--hours", type=float, default=4.0)
    parser.add_argument("--content-gap-s", type=float, default=30.0)
    parser.add_argument("--cadence", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--outdir", default="results/convergence")
    args = parser.parse_args()
    if args.content_gap_s <= 0:
        parser.error("--content-gap-s must be > 0")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    duration = int(args.hours * 3600)
    until = duration // 2
    for n in args.agents:
        try:
            contacts = generate_synthetic_contacts(
                n, min(args.communities, n), args.rewiring_p, duration, args.seed
            )
            contents = []
            if until > 0:  # the generator needs a duration of at least 1 s
                contents = generate_synthetic_contents(
                    n, int(until // args.content_gap_s), N_TAGS, until, args.seed, **CONTENT_SHAPE
                )
        except ValueError as exc:
            parser.error(f"with {n} agents: {exc}")
        if not contacts and not contents:
            parser.error(f"with {n} agents: nothing to replay in {args.hours} h")
        metrics = run(SimConfig(metric_cadence=args.cadence), contacts, contents)
        path = outdir / f"metrics_{n}_agents.csv"
        path.write_text(metrics_csv_text(metrics), encoding="utf-8")
        final = metrics[-1].avg_graph_jaccard
        half = metrics[len(metrics) // 2].avg_graph_jaccard
        print(
            f"{n:4d} agents: {len(contents)} contents, {len(contacts)} contacts, "
            f"similarity {half:.3f} at mid-run, {final:.3f} at end -> {path}"
        )


if __name__ == "__main__":
    main()
