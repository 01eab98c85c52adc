#!/usr/bin/env python3
"""Record the references ``run.py`` checks against: input digests and outputs.

    python3 bench/record.py [--workload NAME ...]

For every variant it generates the inputs, runs the workload twice in fresh
children (with different hash seeds, as every process gets) and stores the
input digests, the outputs and whether the criterion-4 ordering holds on
the variant, after checking that both runs agree and that the PLIERS
oracle spot check passes. Run it only on a commit whose outputs are known to be right; the
references are what later commits are held to.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def record(name: str) -> dict:
    variants = {}
    for variant in range(run.VARIANTS):
        inputs, gen_s, digests = run.make_inputs(name, variant)
        results = [
            run.run_child(name, inputs, run.CHILD_TIMEOUT_S, spot_users=run.SPOT_USERS, spot_seed=s)
            for s in (variant, variant + run.VARIANTS)
        ]
        if None in results:
            raise run.BenchError(f"{name} variant {variant}: a child failed")
        first, second = results
        if first["outputs"] != second["outputs"]:
            raise run.BenchError(f"{name} variant {variant}: two runs disagree")
        ordering = first["checks"].get("ordering")
        if ordering is not None and second["checks"]["ordering"] != ordering:
            raise run.BenchError(f"{name} variant {variant}: the ordering check disagrees")
        problems = run.check_failures(first["checks"], False) + run.check_failures(
            second["checks"], False
        )
        if problems:
            raise run.BenchError(f"{name} variant {variant}: " + "; ".join(problems))
        variants[str(variant)] = {"inputs": digests, "outputs": first["outputs"]}
        if (inputs / "policy").is_dir():
            checks = [run.run_child(name, inputs / "policy", run.CHILD_TIMEOUT_S) for _ in range(2)]
            if None in checks or checks[0]["outputs"] != checks[1]["outputs"]:
                raise run.BenchError(f"{name} variant {variant}: the policy replay failed or disagrees")
            if not checks[0]["outputs"].get("policies"):
                raise run.BenchError(f"{name} variant {variant}: the policy replay has no policies")
            variants[str(variant)]["policy"] = checks[0]["outputs"]
        if ordering is not None:
            variants[str(variant)]["ordering"] = ordering
        print(
            f"{name} variant {variant}: {sum(map(len, first['outputs'].values()))} operations, "
            f"inputs {gen_s:.2f} s, run {first['run_s']:.2f} / {second['run_s']:.2f} s, "
            f"checks {first['checks']}",
            flush=True,
        )
    return variants


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", nargs="+", choices=run.WORKLOADS, default=run.WORKLOADS)
    args = parser.parse_args()
    try:
        run.import_program()
        for name in args.workload:
            payload = {"recorded_at": run.git_sha(), "variants": record(name)}
            path = run.REFERENCES / f"{name}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(payload, indent=0) + "\n", encoding="utf-8")
    except run.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
