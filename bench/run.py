#!/usr/bin/env python3
"""pliersim benchmark: two workloads, end-to-end metrics, a traced per-layer run.

    python3 bench/run.py --workload {gossip,linkpred,all} --seed N
                         --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout this file sits in.
Each workload has ``VARIANTS`` pinned input sets, made with pliersim's
public generators from the variant number, written under ``bench/.work``
once per run and checked against the digests recorded in
``bench/references``: if a generator changes, the benchmark stops instead
of measuring other inputs.

For about ``--seconds`` seconds the benchmark starts one child process at
a time (``child.py``), each running the whole workload once on one
variant's files; the children take the variants in turn, starting at
``seed % VARIANTS``. Every child's outputs are compared with the
references recorded for its variant; one metrics row, correlation report,
policy state, ranked list or scorer summary that differs counts as one
failed operation. For gossip, the first variant's small replay with a
download policy (``policy/``) is also run and checked once, untimed.

With ``--trace 0`` it reports, as medians over the children:

- ``setup_s``: child start to inputs parsed (interpreter start,
  ``import pliersim``, reading the input files);
- ``run_rel``: the child's ``run_s`` (inputs parsed to outputs produced
  and digested) divided by its ``ref_s``, the time of a fixed job that uses
  no pliersim code, run in the same child right after the timed region
  (``child.reference_s``). Drift in the host's speed slows both, so their
  ratio repeats across runs where ``run_s`` does not. ``run_s`` and
  ``ref_s`` are printed too;
- ``peak_rss_mib``: peak resident memory of the child.

``failed_ratio`` (failed / attempted operations) is printed too, and the
result line carries ``attempted`` and ``failed``. With ``--trace 1`` the
children alternate between untraced and traced (``tracing.py``) and the
per-layer metrics are the medians over the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Provenance and
every child's figures are written to ``bench/.work/<workload>/result.json``.
CPU frequency and cgroup limits are not controlled by the benchmark.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCES = BENCH / "references"

WORKLOADS = ("gossip", "linkpred")
VARIANTS = 8
MIN_UNTRACED = 3
SPOT_USERS = 2
# no child starts after this many seconds, so a run ends well within 180 s
LAST_START_S = 120.0
CHILD_TIMEOUT_S = 160.0

END_TO_END_UNITS = {"setup_s": "s", "run_rel": "1", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    pass


def import_program():
    """Import pliersim from this checkout's ``src`` and nowhere else."""
    if not (SRC / "pliersim" / "__init__.py").is_file():
        raise BenchError(f"no pliersim sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import pliersim

    if SRC not in Path(pliersim.__file__).resolve().parents:
        raise BenchError(f"pliersim was imported from {pliersim.__file__}, not {SRC}")
    return pliersim


# ----------------------------------------------------------------------
# inputs, children and references
# ----------------------------------------------------------------------

def make_inputs(name: str, variant: int) -> tuple[Path, float, dict[str, str]]:
    """Write the variant's input files; return their directory, the time taken, digests."""
    import workloads
    from pliersim.traces import file_digest

    inputs = WORK / name / "inputs" / str(variant)
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    started = time.perf_counter()
    workloads.GENERATORS[name](inputs, variant)
    gen_s = time.perf_counter() - started
    files = sorted(p for p in inputs.rglob("*") if p.is_file())
    return inputs, gen_s, {p.relative_to(inputs).as_posix(): file_digest(p) for p in files}


def load_reference(name: str, variant: int) -> dict:
    path = REFERENCES / f"{name}.json"
    try:
        variants = json.loads(path.read_text(encoding="utf-8"))["variants"]
        return variants[str(variant)]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no reference for {name} variant {variant} in {path}: {exc!r}") from None


def run_child(
    name: str, inputs: Path, timeout: float, trace: Path | None = None,
    spot_users: int = 0, spot_seed: int = 0,
) -> dict | None:
    """Run one child to completion; None (with its stderr shown) if it failed."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    extra = ["--spot-users", str(spot_users), "--spot-seed", str(spot_seed)]
    if trace is not None:
        extra += ["--trace", str(trace)]
    t0 = time.perf_counter()
    cmd = [sys.executable, str(BENCH / "child.py"), name, str(inputs), repr(t0), *extra]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        print(f"child {name} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"child {name} exited {proc.returncode}:\n{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        print(f"child {name} printed no result:\n{proc.stdout[-2000:]}", file=sys.stderr)
        return None


def compare(reference: dict[str, list], produced: dict[str, list]) -> tuple[int, int]:
    """(attempted, failed) operations: position-wise, a missing entry fails."""
    attempted = failed = 0
    for group in reference.keys() | produced.keys():
        want, got = reference.get(group, []), produced.get(group, [])
        n = max(len(want), len(got))
        attempted += n
        failed += sum(
            1 for i in range(n) if i >= len(want) or i >= len(got) or want[i] != got[i]
        )
    return attempted, failed


def check_policy(name: str, inputs: Path, reference: dict, timeout: float) -> tuple[int, int]:
    """(attempted, failed) of the untimed replay in ``inputs/policy``."""
    result = run_child(name, inputs / "policy", timeout)
    if result is None:
        n = sum(len(v) for v in reference.values())
        return n, n
    return compare(reference, result["outputs"])


def check_failures(checks: dict, ordering_recorded: bool = True) -> list[str]:
    """Checks a child ran outside its timed region that did not hold.

    Criterion 4 orders the scorers by their mean over ten seeds; on one seed
    a tie can break it (recall is close to 1 for several scorers), so the
    ordering is required only for variants where it held when recorded.
    """
    problems = []
    if checks.get("ordering") is False and ordering_recorded:
        problems.append("criterion-4 ordering (pliers above cf and tagexp) does not hold")
    if checks.get("oracle_ok") is False:
        problems.append(
            f"PLIERS scores of {checks['oracle_users']} deviate from the oracle by "
            f"{checks['oracle_max_dev']:.3g}"
        )
    return problems


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the repository this checkout is, if it is one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else ""


def provenance(name: str, seed: int) -> dict:
    import numpy
    import workloads

    return {
        "git_sha": git_sha() or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "uncontrolled": "CPU frequency scaling and cgroup CPU/memory limits were not controlled",
        "workload": name,
        "why": workloads.WHY[name],
        "seed": seed,
        "first_variant": seed % VARIANTS,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run children in a closed loop for about ``seconds``; check and summarise them.

    Child i replays variant ``(seed + i) % VARIANTS`` (with ``--trace 1``,
    an untraced and a traced child share each variant), so a run measures
    the pinned family of inputs rather than the size of a single one.
    """
    from tracing import PER_LAYER_UNITS, layer_metrics, median_metrics

    pattern = (False, True) if trace else (False,)
    attempted = failed = 0
    problems: list[str] = []
    untraced: list[dict] = []
    layers: list[dict] = []
    overheads: list[float] = []
    gen_times: list[float] = []
    inputs_of: dict[int, Path] = {}
    started = time.perf_counter()
    previous_elapsed = 0.0
    for index in itertools.count():
        traced = pattern[index % len(pattern)]
        variant = (seed + index // len(pattern)) % VARIANTS
        if not traced:
            reference = load_reference(name, variant)
            if variant not in inputs_of:
                inputs_of[variant], gen_s, digests = make_inputs(name, variant)
                if digests != reference["inputs"]:
                    raise BenchError(
                        f"{name} variant {variant}: generated inputs {digests} differ from the "
                        f"recorded {reference['inputs']}; the input generators changed"
                    )
                gen_times.append(gen_s)
            inputs = inputs_of[variant]
        trace_path = WORK / name / f"trace-{index}.json" if traced else None
        spot = SPOT_USERS if name == "linkpred" and index == 0 else 0
        timeout = CHILD_TIMEOUT_S - (time.perf_counter() - started)
        result = run_child(name, inputs, timeout, trace_path, spot, seed)
        if result is None:
            ops = sum(len(v) for v in reference["outputs"].values())
            attempted += ops
            failed += ops
            problems.append(f"child {index} (variant {variant}) failed")
            break
        a, f = compare(reference["outputs"], result["outputs"])
        if "policy" in reference and index == 0:
            a_policy, f_policy = check_policy(name, inputs, reference["policy"], timeout)
            a, f = a + a_policy, f + f_policy
        attempted += a
        failed += f
        problems += check_failures(result["checks"], reference.get("ordering", True))
        if traced:
            trace_data = json.loads(trace_path.read_text(encoding="utf-8"))
            if trace_data["absent"]:
                print("# absent, reported as 0: " + ", ".join(trace_data["absent"]))
            layers.append(layer_metrics(trace_data))
            overheads.append(result["run_s"] / untraced[-1]["run_s"] - 1.0)
        else:
            run_rel = result["run_s"] / result["ref_s"]
            untraced.append({"variant": variant, "run_rel": run_rel, **result})
        # start another child only if it is expected to end within the run
        elapsed = time.perf_counter() - started
        last_child_s = elapsed - previous_elapsed
        previous_elapsed = elapsed
        enough = len(untraced) >= (1 if trace else MIN_UNTRACED) and (layers or not trace)
        if (elapsed + last_child_s > seconds and enough) or elapsed >= LAST_START_S:
            break
    if not untraced or (trace and not layers):
        raise BenchError(f"{name}: no child completed; " + "; ".join(problems))

    per_child = ("run_s", "ref_s", *END_TO_END_UNITS)
    end_to_end = {m: statistics.median(r[m] for r in untraced) for m in per_child}
    summary = {
        "provenance": provenance(name, seed),
        "children": [{m: r[m] for m in ("variant", *per_child)} for r in untraced],
        "end_to_end": end_to_end,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "problems": problems,
        "correct": failed == 0 and not problems,
    }
    if trace:
        per_layer = median_metrics(layers)
        per_layer["synth.inputs_gen_s"] = statistics.median(gen_times)
        per_layer["trace.overhead_ratio"] = statistics.median(overheads)
        summary["per_layer"] = per_layer
        summary["metrics"] = {m: {"value": per_layer[m], "unit": u} for m, u in PER_LAYER_UNITS.items()}
    else:
        summary["metrics"] = {
            m: {"value": end_to_end[m], "unit": u} for m, u in END_TO_END_UNITS.items()
        }
    (WORK / name / "result.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return summary


def print_summary(name: str, s: dict) -> None:
    p = s["provenance"]
    print(f"# {name}: {p['why']}")
    print("# provenance: " + json.dumps(p))
    e = s["end_to_end"]
    runs = [c["run_s"] for c in s["children"]]
    print(
        f"{name:9s} run_s        {e['run_s']:10.4f} s    median of "
        f"{len(runs)} children (min {min(runs):.4f}, max {max(runs):.4f})"
    )
    print(f"{name:9s} ref_s        {e['ref_s']:10.4f} s    median time of the reference job")
    print(f"{name:9s} run_rel      {e['run_rel']:10.4f} 1    median of run_s / ref_s per child")
    print(f"{name:9s} setup_s      {e['setup_s']:10.4f} s")
    print(f"{name:9s} peak_rss_mib {e['peak_rss_mib']:10.2f} MiB")
    print(
        f"{name:9s} failed_ratio {s['failed_ratio']:10.4f} 1    "
        f"({s['failed']} of {s['attempted']} operations)"
    )
    for problem in s["problems"]:
        print(f"{name:9s} PROBLEM: {problem}")
    for metric, value in s.get("per_layer", {}).items():
        print(f"{name:9s}   {metric:42s} {value:14.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        summaries = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, s in summaries.items():
        print_summary(name, s)
    if len(summaries) == 1:
        metrics = summaries[args.workload]["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, s in summaries.items() for m, v in s["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(s["correct"] for s in summaries.values()),
                "attempted": sum(s["attempted"] for s in summaries.values()),
                "failed": sum(s["failed"] for s in summaries.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
