"""One benchmark child: run a workload once on files in an input directory.

Started by ``run.py`` as a fresh process, one at a time, with ``src`` on
``PYTHONPATH``. It calls the same public functions as ``pliersim simulate``
and ``pliersim linkpred`` and prints one JSON object: the timings, the peak
resident memory, the time of a fixed reference job run after the timed
region, and digests of every output, which ``run.py`` compares with the
recorded references.

    python3 child.py WORKLOAD INPUT_DIR T0 [--trace FILE]
                     [--spot-users N --spot-seed S]

``T0`` is the parent's ``time.perf_counter()`` just before the start
(CLOCK_MONOTONIC, shared by all processes), so ``setup_s`` includes the
interpreter start and ``import pliersim``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import time
from pathlib import Path


def _merge_job() -> float:
    """String-keyed dicts of sets, built and merged into one another."""
    started = time.perf_counter()
    users = [f"u{i:04d}" for i in range(2000)]
    items = [f"i{i:05d}" for i in range(20000)]
    x = 1
    graphs = []
    for _ in range(40):
        g: dict[str, set[str]] = {}
        for _ in range(2500):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            g.setdefault(items[x % 20000], set()).add(users[(x >> 8) % 2000])
        graphs.append(g)
    for into, other in zip(graphs, graphs[1:]):
        for key, adopters in other.items():
            into.setdefault(key, set()).update(adopters)
    scores: dict[str, float] = {}
    for g in graphs:
        for adopters in g.values():
            weight = 1.0 / len(adopters)
            for u in adopters:
                scores[u] = scores.get(u, 0.0) + weight
    return time.perf_counter() - started


def _diffusion_job() -> float:
    """Float scores spread user -> item -> user -> item over a fixed bipartite graph."""
    items_of: dict[str, list[str]] = {}
    users_of: dict[str, list[str]] = {}
    x = 1
    for u in range(2000):
        for _ in range(15):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            user, item = f"u{u:04d}", f"i{x % 4000:04d}"
            items_of.setdefault(user, []).append(item)
            users_of.setdefault(item, []).append(user)
    started = time.perf_counter()
    for target in list(items_of)[:200]:
        neighbours: dict[str, float] = {}
        for item in items_of[target]:
            adopters = users_of[item]
            for v in adopters:
                neighbours[v] = neighbours.get(v, 0.0) + 1.0 / len(adopters)
        scores: dict[str, float] = {}
        for v, weight in neighbours.items():
            share = weight / len(items_of[v])
            for item in items_of[v]:
                scores[item] = scores.get(item, 0.0) + share
        sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return time.perf_counter() - started


def reference_s(workload: str) -> float:
    """Seconds taken by a fixed job that uses no pliersim code.

    On a shared host the CPU and memory speed can drift by tens of percent
    between minutes, which no median over one run removes, and the drift
    does not slow all code alike. So each workload gets a job shaped like
    its own inner loop: set merges for the replay, float scores spread over
    a bipartite graph for linkpred. ``run.py`` reports ``run_s / ref_s`` per
    child. The cyclic garbage collector is off while the job runs, so that
    the objects the workload left behind do not change its time.
    """
    gc.disable()
    try:
        return _diffusion_job() if workload == "linkpred" else _merge_job()
    finally:
        gc.enable()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:10]


def peak_rss_mib() -> float:
    """Peak resident memory of this process image.

    ``ru_maxrss`` would also count the parent's memory: the kernel carries
    the pre-exec high-water mark across ``exec``, and the parent may be
    larger than the child. ``VmHWM`` starts afresh with the new image.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def finished() -> dict:
    """End of the timed region: the time, and the peak memory so far."""
    return {"t_done": time.perf_counter(), "peak_rss_mib": peak_rss_mib()}


def replay(d: Path, params: dict, tracer) -> tuple[dict, dict]:
    """gossip: parse the traces, replay, render the reports."""
    from pliersim import simulator, traces

    config = traces.parse_config_file(d / "sim.cfg")
    contacts = traces.parse_contacts(d / "contacts.csv")
    contents = traces.parse_contents(d / "contents.csv")
    t_ready = time.perf_counter()

    windows = params["windows"]
    sim = simulator.Simulation(config)
    rows = sim.run_windows(contacts, contents, windows)
    outputs = {"correlation": []}
    for window in windows:
        text = traces.metrics_csv_text(rows[window])
        body = text.splitlines()[len(traces.METRICS_COMMENTS) + 1 :]
        outputs[f"rows:{window}"] = [digest(line) for line in body]
        report = traces.correlation_for_run(rows[window])
        outputs["correlation"].append(digest(traces.correlation_csv_text(report)))
    if sim.policies:
        outputs["policies"] = [
            f"{agent}:{state.observed}:{state.downloaded}"
            for agent, state in sorted(sim.policies.items())
        ]
    extra = {"t_ready": t_ready, **finished()}
    if tracer is not None:
        # knowledge held at the end, counted outside the timed region
        lkgs = list(sim.lkgs.values())
        extra["graph.lkg_edges_end"] = sum(
            len(g.user_item_edges) + len(g.item_tag_edges) for g in lkgs
        )
        extra["graph.distinct_lkgs_end"] = len(
            {
                (frozenset(g.user_item_edges.items()), frozenset(g.item_tag_edges.items()))
                for g in lkgs
            }
        )
    return outputs, extra


def linkpred(d: Path, params: dict, spot_users: int, spot_seed: int) -> tuple[dict, dict]:
    """linkpred: load the snapshot, prune, evaluate every CLI scorer."""
    from pliersim import cli, evaluation, graph

    g = graph.load_graph_tsv(d / "graph.tsv")
    t_ready = time.perf_counter()

    # evaluate_on_pruned keeps only positions; the ranked lists it produced
    # are observed at the rank function it looks up
    ranked_by_call: list = []
    real_rank = evaluation.rank

    def observed_rank(*args, **kwargs):
        rec = real_rank(*args, **kwargs)
        ranked_by_call.append(rec)
        return rec

    evaluation.rank = observed_rank
    pruned, removal = evaluation.prune_for_link_prediction(g, params["prune_seed"])
    users = sorted(removal.removals)
    outputs: dict[str, list[str]] = {"reports": []}
    reports, lists = {}, {}
    for name in cli.ALGORITHMS:
        k = params["k"] if name in cli.K_ALGORITHMS else None
        scorer = cli.make_scorer(name, k or 1, params["lambda"])
        label = name if k is None else f"{name}{k}"
        first = len(ranked_by_call)
        report = evaluation.evaluate_on_pruned(pruned, removal, scorer)
        ranked = {rec.target: rec for rec in ranked_by_call[first:]}
        outputs[f"lists:{label}"] = [
            digest(
                json.dumps(
                    [
                        u,
                        removal.removals[u],
                        ranked[u].item_keys() if u in ranked else None,
                        report.per_user.get(u),
                    ]
                )
            )
            for u in users
        ]
        outputs["reports"].append(f"{label}:{report.precision!r}:{report.recall!r}")
        reports[label], lists[label] = report, ranked
    extra = {"t_ready": t_ready, **finished()}
    evaluation.rank = real_rank

    # outside the timed region: the criterion-4 ordering on this seed and an
    # oracle check of PLIERS scores that shares no code with the scorers
    pliers = reports["pliers"]
    baselines = [reports[f"cf{params['k']}"], reports[f"tagexp{params['k']}"]]
    checks = {
        "ordering": all(
            pliers.precision > b.precision and pliers.recall > b.recall for b in baselines
        )
    }
    if spot_users:
        import random

        import spotcheck

        sample = random.Random(spot_seed).sample(users, min(spot_users, len(users)))
        checks["oracle_users"] = sample
        checks["oracle_max_dev"] = deviation = max(
            spotcheck.check_user(
                pruned,
                u,
                lists["pliers"][u].ranked if u in lists["pliers"] else [],
                removal.removals[u],
                params["lambda"],
                spot_seed,
            )
            for u in sample
        )
        checks["oracle_ok"] = deviation <= spotcheck.TOLERANCE
    return outputs, {**extra, "checks": checks}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("inputs", type=Path)
    parser.add_argument("t0", type=float)
    parser.add_argument("--trace", default="")
    parser.add_argument("--spot-users", type=int, default=0)
    parser.add_argument("--spot-seed", type=int, default=0)
    args = parser.parse_args()

    import pliersim  # noqa: F401  (part of set-up, as for every user)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    params = json.loads((args.inputs / "args.json").read_text(encoding="utf-8"))
    if args.workload == "linkpred":
        outputs, extra = linkpred(args.inputs, params, args.spot_users, args.spot_seed)
    else:
        outputs, extra = replay(args.inputs, params, tracer)

    t_ready, t_done = extra.pop("t_ready"), extra.pop("t_done")
    result = {
        "setup_s": t_ready - args.t0,
        "run_s": t_done - t_ready,
        "peak_rss_mib": extra.pop("peak_rss_mib"),
        "ref_s": reference_s(args.workload),
        "outputs": outputs,
        "checks": extra.pop("checks", {}),
    }
    if tracer is not None:
        tracer.dump(args.trace, {"run_s": result["run_s"], **extra})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
