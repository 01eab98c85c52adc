#!/usr/bin/env python3
"""Link-prediction benchmark on synthetic folksonomies.

Builds a long-tailed, topically clustered graph per seed, removes one link
per eligible user, and compares recovery precision/recall across scorers.

    python3 scripts/linkpred_experiment.py --seeds 10
"""

import argparse
import time

from pliersim.cli import ALGORITHMS, K_ALGORITHMS, make_scorer
from pliersim.evaluation import evaluate_on_pruned, prune_for_link_prediction
from pliersim.synth import generate_folksonomy
from pliersim.traces import ConfigError


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=500)
    parser.add_argument("--items", type=int, default=800)
    parser.add_argument("--tags", type=int, default=300)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--k", type=int, nargs="+", default=[5, 10, 20])
    parser.add_argument("--lambda", dest="lambda_weight", type=float, default=0.5)
    args = parser.parse_args()
    for option in ("users", "items", "tags", "seeds"):
        if getattr(args, option) < 1:
            parser.error(f"--{option} must be >= 1")

    scorers = {}
    try:
        for name in ALGORITHMS:
            if name in K_ALGORITHMS:
                for k in args.k:
                    scorers[f"{name}(k={k})"] = make_scorer(name, k, args.lambda_weight)
            else:
                scorers[name] = make_scorer(name, 1, args.lambda_weight)
    except ConfigError as exc:
        parser.error(str(exc))

    totals = {name: [0.0, 0.0] for name in scorers}
    started = time.time()
    for seed in range(args.seeds):
        graph = generate_folksonomy(args.users, args.items, args.tags, seed)
        pruned, removal = prune_for_link_prediction(graph, seed)
        for name, scorer in scorers.items():
            report = evaluate_on_pruned(pruned, removal, scorer)
            totals[name][0] += report.precision / args.seeds
            totals[name][1] += report.recall / args.seeds
        print(f"seed {seed}: {len(removal.removals)} removals "
              f"({removal.removed_fraction:.2%} of links)")

    print(f"\nmeans over {args.seeds} seeds ({time.time() - started:.0f}s):")
    print(f"{'algorithm':>14s}  {'precision':>9s}  {'recall':>7s}")
    for name, (p, r) in sorted(totals.items(), key=lambda kv: -kv[1][0]):
        print(f"{name:>14s}  {p:9.4f}  {r:7.4f}")


if __name__ == "__main__":
    main()
