#!/usr/bin/env python3
"""Gossip convergence experiment: how fast do local views approach the
global graph for different crowd sizes?

Generates community-structured contact traces and a Poisson content
stream, replays them, and writes one metrics CSV per agent count.

    python3 scripts/convergence_experiment.py --outdir results/convergence
"""

import argparse
import random
from pathlib import Path

from pliersim.simulator import (
    ContentEvent,
    SimConfig,
    agent_name,
    generate_synthetic_contacts,
    run,
)
from pliersim.traces import metrics_csv_text


def poisson_contents(rng, n_agents, until, mean_gap_s, n_tags):
    events = []
    t, idx = 0.0, 0
    while True:
        t += rng.expovariate(1.0 / mean_gap_s)
        if t >= until:
            return events
        tags = tuple({f"t{rng.randrange(n_tags):03d}" for _ in range(rng.randint(1, 3))})
        events.append(ContentEvent(int(t), agent_name(rng.randrange(n_agents)), f"i{idx:05d}", tags))
        idx += 1


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

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    duration = int(args.hours * 3600)
    for n in args.agents:
        try:
            contacts = generate_synthetic_contacts(
                n, min(args.communities, n), args.rewiring_p, duration, args.seed
            )
        except ValueError as exc:
            parser.error(f"with {n} agents: {exc}")
        contents = poisson_contents(
            random.Random(args.seed), n, duration / 2, args.content_gap_s, 40
        )
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
