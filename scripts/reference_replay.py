#!/usr/bin/env python3
"""The replay against the reference replay at scale: equal rows, or exit 1.

Generates the scaled replay's shape (``scripts/scaled_replay.py``) at a
smaller size: by default 150 agents in 36 communities (rewiring 0.1) meet
for 1 h, 9,000 contacts, and one content per 7.5 s, 480 in all, arrives in
the criterion-5 shape. Each variant replays it with ``Simulation.run_windows``
and with ``tests/oracles.merge_replay``, one graph per agent merged on every
contact, under the windows None and 900 s with metrics every 5 steps, and
compares the metric rows with ``==``:

- ``top_n``: lists cut at 3 items;
- ``policy``: a ``mean_threshold`` download policy, whose states are
  compared with ``==`` too;
- ``two_creators``: every tenth content announces an item again, by
  another creator, so that PLIERS walks the sources its targets share
  into a table;
- ``shuffled``: the contacts in a random order, so that the replay copies
  them into step order instead of reading them in place.

The fast replay runs its blocks at the default budgets, but for
``two_creators``, whose table fits one chunk of the default budget at this
size and is cut at a budget of 2^12 entries (``BUDGETS``). It counts, per
call, the stacked indexes of a metric step, the kernel blocks of a
``Scorer.rows`` call, the ranking blocks of a metric step and the chunks of
a PLIERS table, and prints the most of each per variant. The check fails
unless each number exceeds one in some variant, so that each of these
paths runs more than once where the reference checks it.

    PYTHONPATH=src python3 scripts/reference_replay.py
    PYTHONPATH=src python3 scripts/reference_replay.py --variants top_n shuffled
"""

import argparse
import contextlib
import dataclasses
import random
import sys
import time
from pathlib import Path
from unittest import mock

from pliersim import recommend, simulator
from pliersim.graph import GraphIndex
from pliersim.synth import generate_synthetic_contents

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import merge_replay  # noqa: E402

# the shape of scripts/scaled_replay.py
CONTENT_SHAPE = dict(user_exponent=0.0, tag_exponent=0.0, extra_tag_p=0.5, max_tags_per_item=3)
N_TAGS = 40
WINDOWS = [None, 900]
VARIANTS = ("top_n", "policy", "two_creators", "shuffled")
# the entry budget of a variant's blocks (recommend._BLOCK_ENTRIES), where
# not the default
BUDGETS = {"two_creators": 1 << 12}
COUNTS = ("stacks", "kernel_blocks", "ranking_blocks", "table_chunks")


def traces(args, variant: str):
    duration = int(args.hours * 3600)
    contacts = simulator.generate_synthetic_contacts(
        args.agents, args.communities, 0.1, duration, args.seed
    )
    contents = generate_synthetic_contents(
        args.agents, int(duration // args.content_gap_s), N_TAGS, duration, args.seed,
        **CONTENT_SHAPE,
    )
    rng = random.Random(args.seed)
    if variant == "two_creators":
        # each tenth content re-announces the content before it, by another
        # creator, with its own tags
        agents = sorted({x for ev in contacts for x in (ev.a, ev.b)})
        for n in range(10, len(contents), 10):
            ev, before = contents[n], contents[n - 1]
            creator = rng.choice([a for a in agents if a != before.creator])
            contents[n] = dataclasses.replace(ev, creator=creator, item=before.item)
    if variant == "shuffled":
        rng.shuffle(contacts)
    return contacts, contents


@contextlib.contextmanager
def counting(most: dict[str, int], budget: int):
    """Count :data:`COUNTS`, keeping in ``most`` the most of each that one call takes.

    Meanwhile blocks are sized by an entry budget of ``budget``.
    """
    current = dict.fromkeys(COUNTS, 0)

    def add(name: str, n: int = 1) -> None:
        current[name] += n
        most[name] = max(most[name], current[name])

    def reset(*names: str) -> None:
        current.update(dict.fromkeys(names, 0))

    def counted(owner, attr: str, before):
        real = getattr(owner, attr)

        def wrapped(*args, **kwargs):
            before(*args)
            return real(*args, **kwargs)

        return mock.patch.object(owner, attr, wrapped)

    def table(index, sources, degree, chunks, *rest):
        reset("table_chunks")
        add("table_chunks", len(chunks))

    with contextlib.ExitStack() as stack:
        for patch in (
            counted(GraphIndex, "stacked", lambda *_: add("stacks")),
            counted(recommend.Scorer, "rows", lambda *_: reset("kernel_blocks")),
            counted(recommend, "_tripartite", lambda *_: add("kernel_blocks")),
            counted(recommend, "_paths_of", table),
            counted(simulator, "_ranked_rows", lambda *_: add("ranking_blocks")),
            # a policy's discoveries are scored on a stack of their own
            counted(simulator.Simulation, "_decide", lambda *_: reset("stacks")),
            counted(
                simulator, "compute_step_metrics", lambda *_: reset("stacks", "ranking_blocks")
            ),
            mock.patch.object(recommend, "_BLOCK_ENTRIES", budget),
        ):
            stack.enter_context(patch)
        yield


def check(args, variant: str) -> tuple[bool, dict[str, int]]:
    contacts, contents = traces(args, variant)
    config = simulator.SimConfig(
        metric_cadence=args.cadence,
        top_n=3 if variant == "top_n" else None,
        download_policy="mean_threshold" if variant == "policy" else None,
    )
    most = dict.fromkeys(COUNTS, 0)
    started = time.perf_counter()
    with counting(most, BUDGETS.get(variant, recommend._BLOCK_ENTRIES)):
        sim = simulator.Simulation(config)
        rows = sim.run_windows(contacts, contents, WINDOWS)
    fast = time.perf_counter() - started
    started = time.perf_counter()
    _, _, ref_rows, ref_policies = merge_replay(config, contacts, contents, WINDOWS)
    reference = time.perf_counter() - started
    same = rows == ref_rows and sim.policies == ref_policies
    counts = " ".join(f"{name} {most[name]}" for name in COUNTS)
    print(
        f"{variant}: {'equal' if same else 'DIFFERENT'} rows={sum(map(len, rows.values()))} "
        f"{counts} fast_s {fast:.2f} reference_s {reference:.2f}",
        flush=True,
    )
    return same, most


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--agents", type=int, default=150)
    parser.add_argument("--communities", type=int, default=36)
    parser.add_argument("--hours", type=float, default=1.0)
    parser.add_argument("--content-gap-s", type=float, default=7.5)
    parser.add_argument("--cadence", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--variants", nargs="+", choices=VARIANTS, default=list(VARIANTS))
    args = parser.parse_args()
    for option in ("agents", "communities", "cadence"):
        if getattr(args, option) < 1:
            parser.error(f"--{option} must be >= 1")
    if args.communities > args.agents:
        parser.error("--communities must not exceed --agents")
    if int(args.hours * 3600) < 1:
        parser.error("--hours must cover at least 1 s")
    if args.content_gap_s <= 0:
        parser.error("--content-gap-s must be > 0")

    failed, most = [], dict.fromkeys(COUNTS, 0)
    for variant in args.variants:
        same, counts = check(args, variant)
        if not same:
            failed.append(variant)
        most = {name: max(most[name], counts[name]) for name in COUNTS}
    once = [name for name in COUNTS if most[name] <= 1]
    if failed:
        print(f"rows or policy states differ from the reference: {', '.join(failed)}")
    if once:
        print(f"at most one per call in every variant: {', '.join(once)}")
    sys.exit(1 if failed or once else 0)


if __name__ == "__main__":
    main()
