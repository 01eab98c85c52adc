"""The two benchmark workloads: why each exists and how its inputs are made.

Inputs come from pliersim's own public generators, seeded by the variant
number, and are written to files; the measured child only reads files.
Each workload is a batch job run in a closed loop by one client: the next
child starts when the previous one has ended.
"""

from __future__ import annotations

import json
from pathlib import Path

from pliersim import graph, simulator, synth, traces

WHY = {
    "gossip": "250 agents in 60 communities as in criterion 5, contents only in the first half: "
    "FolksonomyGraph.merge does most of the work and most second-half merges add nothing",
    "linkpred": "criterion-4 folksonomy at half size (250 users, 400 items, 150 tags), all six CLI "
    "scorers over every user with a removed link: no merge, all work in recommend",
}

# the criterion-5 content stream: 1 to 3 of 40 uniformly drawn tags, uniform
# creators, one content per 30 s on average. Drawing a fixed count at
# uniform times is a Poisson stream conditioned on its count, which keeps
# the amount of work equal across seeds.
CONTENT_GAP_S = 30
CONTENT_SHAPE = dict(user_exponent=0.0, tag_exponent=0.0, extra_tag_p=0.5, max_tags_per_item=3)
N_TAGS = 40
POLICY_CONFIG = "step_length_s = 20\nmetric_cadence = 1\ndownload_policy = percentile_threshold\n"


def replay_inputs(
    d: Path, seed: int, agents: int, communities: int, duration: int,
    content_until: int, config: str, windows: list,
) -> None:
    contacts = simulator.generate_synthetic_contacts(agents, communities, 0.1, duration, seed)
    contents = synth.generate_synthetic_contents(
        agents, content_until // CONTENT_GAP_S, N_TAGS, content_until, seed, **CONTENT_SHAPE
    )
    traces.write_contacts(d / "contacts.csv", contacts)
    traces.write_contents(d / "contents.csv", contents)
    (d / "sim.cfg").write_text(config, encoding="utf-8")
    (d / "args.json").write_text(json.dumps({"windows": windows}), encoding="utf-8")


def gossip_inputs(d: Path, seed: int) -> None:
    """30 minutes; contents arrive in the first half; default config, metrics every 10 steps.

    Shorter than the criterion-5 trace so that a run holds many children
    (a child replays in about 1 s) and their median is steady; merge self
    time is still about three quarters of the replay.

    ``policy/`` holds a small replay with a download policy. It is checked
    once per run and never timed, so that skipping discovery scoring while
    a policy is on shows up as a failure although gossip runs without one.
    """
    duration = 1800
    replay_inputs(d, seed, 250, 60, duration, duration // 2, "metric_cadence = 10\n", [None])
    (d / "policy").mkdir()
    replay_inputs(d / "policy", seed, 30, 8, 900, 900, POLICY_CONFIG, [None])


def linkpred_inputs(d: Path, seed: int) -> None:
    """The criterion-4 folksonomy shape at half of each size, saved as TSV.

    At full size a child took about 7 s on a 2-CPU virtual machine, too
    long for a 60 s run to hold enough children for a steady median; at
    half size it takes about 2 s. The criterion-4 ordering then holds on
    only some variants, and is required only where it held when recorded.
    """
    graph.save_graph_tsv(synth.generate_folksonomy(250, 400, 150, seed), d / "graph.tsv")
    (d / "args.json").write_text(
        json.dumps({"prune_seed": seed, "k": 10, "lambda": 0.5}), encoding="utf-8"
    )


GENERATORS = {
    "gossip": gossip_inputs,
    "linkpred": linkpred_inputs,
}
