#!/usr/bin/env python3
"""The scaled gossip replay: time it, take its peak memory and digest its rows.

By default 1,000 agents in 240 communities (rewiring 0.1) meet for 4 h,
and one content per 7.5 s on average, 1,920 in all, arrives over the whole
run in the criterion-5 shape (uniform creators, 1 to 3 of 40 uniform
tags). A child process writes the traces to files, so that their
generation adds nothing to this process's memory; they are parsed back
and replayed with metrics every 20 steps under the windows None and
900 s. It prints:

- ``wall_s``: parse, replay and metrics CSV text, in seconds;
- ``metric_steps_s``: the part of it spent in ``compute_step_metrics``;
- ``vmhwm_parsed_mib``: the peak resident memory of the process once both
  traces are parsed, before the replay starts;
- ``vmhwm_mib``: the peak resident memory of the process at the end;
- ``digest``: the first 16 hex digits of the SHA-256 of both windows'
  metrics CSV text, None's then 900's. The default run prints
  ``02674c0d965da818``.

    python3 scripts/scaled_replay.py
    python3 scripts/scaled_replay.py --agents 60 --communities 12 --hours 0.5
"""

import argparse
import hashlib
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pliersim import simulator, traces
from pliersim.synth import generate_synthetic_contents

# uniform creators and tags, 1 to 3 tags an item
CONTENT_SHAPE = dict(user_exponent=0.0, tag_exponent=0.0, extra_tag_p=0.5, max_tags_per_item=3)
N_TAGS = 40
WINDOWS = [None, 900]


def vmhwm_mib() -> float:
    """Peak resident memory of this process image, in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_traces(args, duration: int, d: Path) -> None:
    contacts = simulator.generate_synthetic_contacts(
        args.agents, min(args.communities, args.agents), 0.1, duration, args.seed
    )
    contents = generate_synthetic_contents(
        args.agents, int(duration // args.content_gap_s), N_TAGS, duration, args.seed,
        **CONTENT_SHAPE,
    )
    traces.write_contacts(d / "contacts.csv", contacts)
    traces.write_contents(d / "contents.csv", contents)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--agents", type=int, default=1000)
    parser.add_argument("--communities", type=int, default=240)
    parser.add_argument("--hours", type=float, default=4.0)
    parser.add_argument("--content-gap-s", type=float, default=7.5)
    parser.add_argument("--cadence", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    # the child's mode: write the traces into this directory and exit
    parser.add_argument("--write-traces", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    for option in ("agents", "communities", "cadence"):
        if getattr(args, option) < 1:
            parser.error(f"--{option} must be >= 1")
    duration = int(args.hours * 3600)
    if duration < 1:
        parser.error("--hours must cover at least 1 s")
    if args.content_gap_s <= 0:
        parser.error("--content-gap-s must be > 0")

    if args.write_traces:
        try:
            write_traces(args, duration, args.write_traces)
        except ValueError as exc:
            parser.error(str(exc))
        return
    spent = [0.0]
    real_step_metrics = simulator.compute_step_metrics

    def timed_step_metrics(*a, **kw):
        started = time.perf_counter()
        try:
            return real_step_metrics(*a, **kw)
        finally:
            spent[0] += time.perf_counter() - started

    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        child = [sys.executable, __file__, *sys.argv[1:], "--write-traces", tmp]
        if subprocess.run(child).returncode:
            sys.exit(2)
        simulator.compute_step_metrics = timed_step_metrics
        started = time.perf_counter()
        parsed = traces.parse_contacts(d / "contacts.csv")
        events = traces.parse_contents(d / "contents.csv")
        parsed_mib = vmhwm_mib()
        rows = simulator.Simulation(traces.SimConfig(metric_cadence=args.cadence)).run_windows(
            parsed, events, WINDOWS
        )
        text = "".join(traces.metrics_csv_text(rows[window]) for window in WINDOWS)
        wall = time.perf_counter() - started
        simulator.compute_step_metrics = real_step_metrics
    print(f"wall_s {wall:.2f}")
    print(f"metric_steps_s {spent[0]:.2f}")
    print(f"vmhwm_parsed_mib {parsed_mib:.1f}")
    print(f"vmhwm_mib {vmhwm_mib():.1f}")
    print(f"digest {hashlib.sha256(text.encode('utf-8')).hexdigest()[:16]}")


if __name__ == "__main__":
    main()
