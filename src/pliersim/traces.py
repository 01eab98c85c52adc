"""File formats: trace CSVs, the key=value config file, CSV reports, manifests.

The types these files hold live here too: the contact and content events,
:class:`ContactTrace`, :class:`SimConfig` and :class:`StepMetrics`, with
:func:`agent_name` for the agent keys of generated traces. So reading,
writing and generating trace files loads no replay engine;
:mod:`pliersim.simulator` imports them from this module.

Every input file is read by :func:`pliersim.graph.read_lines`: UTF-8 with
or without a byte-order mark, LF or CRLF line ends, blank lines and ``#``
comments skipped. A malformed line, or one that is not UTF-8, raises
:class:`~pliersim.graph.ParseError` citing ``path:line``. Every output is
UTF-8 with LF line ends, and every CSV row goes through :func:`csv_row`
(floats at 9 significant digits), so equal inputs produce byte-identical
outputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import dataclasses
import sys
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import __version__
from .evaluation import CorrelationReport, EvalReport, correlation_analysis
from .graph import ParseError, read_lines
from .recommend import RecommendationVector

CONTACT_HEADER = "time_s,agent_a,agent_b"
CONTENT_HEADER = "time_s,agent,item_key,tags"
METRICS_COMMENTS = (
    "# pliersim metrics v1",
    "# avg_graph_jaccard: mean over all agents; an empty local graph scores 0 "
    "against a non-empty global graph and 1 against an empty one",
    "# rec columns: agents whose local and global recommendation vectors are both "
    "empty are skipped; if every agent is skipped the average is 1",
)
CORRELATION_COMMENT = (
    "# y: delta of avg_graph_jaccard between consecutive metric rows; "
    "x1: n_contents; x2: n_contacts"
)
CORRELATION_HEADER = "r_squared,r_yx1,r_yx2,beta1,beta2,n,flags"
LINKPRED_HEADER = "algorithm,k,precision,recall,removed_fraction"
RANKING_HEADER = "rank,item,score"


class ConfigError(ValueError):
    """A bad configuration value; ``key`` names the config key at fault, if one is."""

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        super().__init__(message)


def fmt(value: float) -> str:
    """Canonical float formatting: 9 significant digits, shortest form."""
    return format(value, ".9g")


def csv_row(values: Iterable[object]) -> str:
    """One CSV row: floats by :func:`fmt`, everything else by ``str``."""
    return ",".join(fmt(v) if isinstance(v, float) else str(v) for v in values)


def _text(lines: Iterable[str]) -> str:
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# trace, config and metric types
# ----------------------------------------------------------------------

def agent_name(index: int) -> str:
    """The key of agent ``index`` in generated contacts and contents."""
    return f"a{index:04d}"


@dataclass(frozen=True, slots=True)
class ContactEvent:
    """One proximity contact; (a, b) and (b, a) mean the same exchange."""

    time: int
    a: str
    b: str

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"contact of agent {self.a!r} with itself")
        if self.time < 0:
            raise ValueError("contact time must be >= 0")


@dataclass(slots=True)
class ContactTrace:
    """Contacts as columns: each contact's time and the ids of its two agents.

    The three columns are ``array("q")``, eight bytes a contact each. An
    agent's id is its position on ``agents``, which lists the agent keys in
    first-seen order, ``a`` before ``b`` within a contact. The contacts
    keep their input order. :func:`parse_contacts` builds a trace from a
    file, checking each line as :class:`ContactEvent` checks an event, and
    :meth:`of` builds one from events.
    """

    times: array = field(default_factory=lambda: array("q"))
    a: array = field(default_factory=lambda: array("q"))
    b: array = field(default_factory=lambda: array("q"))
    agents: list[str] = field(default_factory=list)

    @classmethod
    def of(cls, events: Iterable[ContactEvent]) -> ContactTrace:
        """The trace of ``events``, in their order."""
        trace, ids = cls(), {}
        for ev in events:
            trace.times.append(ev.time)
            trace.a.append(ids.setdefault(ev.a, len(ids)))
            trace.b.append(ids.setdefault(ev.b, len(ids)))
        trace.agents = list(ids)
        return trace


@dataclass(frozen=True, slots=True)
class ContentEvent:
    """Creation of one tagged item by an agent."""

    time: int
    creator: str
    item: str
    tags: tuple[str, ...]

    def __post_init__(self):
        if not self.tags:
            raise ValueError(f"content {self.item!r} carries no tags")
        if self.time < 0:
            raise ValueError("content time must be >= 0")


# download_policy kind -> the SimConfig fields it reads
POLICY_FIELDS = {
    "mean_threshold": ("download_history_s",),
    "percentile_threshold": ("download_percentile", "download_history_s"),
    "bounded_buffer": ("download_buffer_capacity",),
}


@dataclass
class SimConfig:
    """The settings of one replay.

    ``download_policy`` names the automatic download rule that agents apply
    to newly discovered items, or None for none: ``mean_threshold``
    downloads scores strictly above the mean of the score history,
    ``percentile_threshold`` above its ``download_percentile``, and
    ``bounded_buffer`` keeps the ``download_buffer_capacity`` best-scored
    items seen so far. ``download_history_s`` limits the threshold history
    to a sliding span of simulation seconds. :data:`POLICY_FIELDS` names the
    fields that each kind reads. Every error message starts with the name
    of the field it rejects.
    """

    step_length: int = 60
    affinity_weight: float = 0.5
    expiry_window: int | None = None
    metric_cadence: int = 1
    top_n: int | None = None
    download_policy: str | None = None
    download_percentile: float = 50.0
    download_buffer_capacity: int = 16
    download_history_s: int | None = None

    def __post_init__(self):
        if self.step_length <= 0:
            raise ValueError("step_length must be positive")
        if self.metric_cadence < 1:
            raise ValueError("metric_cadence must be >= 1")
        if self.expiry_window is not None and self.expiry_window <= 0:
            raise ValueError("expiry_window must be positive when set")
        if not 0.0 <= self.affinity_weight <= 1.0:
            raise ValueError("affinity_weight must lie in [0, 1]")
        if self.top_n is not None and self.top_n < 0:
            raise ValueError("top_n must be >= 0")
        if self.download_policy is not None and self.download_policy not in POLICY_FIELDS:
            raise ValueError(
                f"download_policy must be one of {', '.join(POLICY_FIELDS)}, "
                f"got {self.download_policy!r}"
            )
        if self.download_policy == "bounded_buffer" and self.download_buffer_capacity < 1:
            raise ValueError("download_buffer_capacity must be >= 1")
        if not 0.0 <= self.download_percentile <= 100.0:
            raise ValueError("download_percentile must lie in [0, 100]")
        if self.download_history_s is not None and self.download_history_s < 0:
            raise ValueError("download_history_s must be >= 0")


@dataclass(frozen=True)
class StepMetrics:
    step: int
    sim_time_s: int
    avg_graph_jaccard: float
    avg_rec_jaccard: float
    avg_rec_spearman_corrected: float
    avg_rec_spearman_literal: float
    n_contacts: int
    n_contents: int


# ----------------------------------------------------------------------
# trace files
# ----------------------------------------------------------------------

def _data_lines(path: str | Path, header: str) -> Iterator[tuple[int, str]]:
    """The lines of :func:`read_lines`, less a header as the first of them."""
    lines = read_lines(path)
    first = next(lines, None)
    if first is None or first[1].strip() == header:
        return lines
    return itertools.chain([first], lines)


def _check_key(value: str, what: str, path: str | Path, lineno: int) -> str:
    """``value`` stripped and interned, so that every event naming a key shares it."""
    value = value.strip()
    if not value:
        raise ParseError(f"empty {what}", path, lineno)
    if "," in value or ";" in value or "\t" in value:
        raise ParseError(f"{what} {value!r} contains a separator", path, lineno)
    return sys.intern(value)


def _check_time(text: str, path: str | Path, lineno: int) -> int:
    """``text`` as an integer time below 2^63 s, the most an ``array("q")`` holds."""
    try:
        time = int(text)
        if time >= 1 << 63:
            raise ValueError
    except ValueError:
        raise ParseError(f"bad time {text!r}", path, lineno) from None
    return time


def parse_contacts(path: str | Path) -> ContactTrace:
    """The contacts of a ``time_s,agent_a,agent_b`` file as a trace, in file order.

    Agent keys get their ids as they first appear. Each line is checked as
    :class:`ContactEvent` checks an event, with the same messages: a contact
    of an agent with itself, or at a negative time, raises
    :class:`~pliersim.graph.ParseError` citing its line, as does a time of
    2^63 s or more.
    """
    trace = ContactTrace()
    times, xs, ys = trace.times, trace.a, trace.b
    # agent key -> id, and each agent field as written -> id, so that a
    # field seen before is not checked again
    ids: dict[str, int] = {}
    written: dict[str, int] = {}
    for lineno, line in _data_lines(path, CONTACT_HEADER):
        fields = line.split(",")
        if len(fields) != 3:
            raise ParseError("expected time_s,agent_a,agent_b", path, lineno)
        time = _check_time(fields[0], path, lineno)
        x = written.get(fields[1])
        if x is None:
            key = _check_key(fields[1], "agent", path, lineno)
            x = written[fields[1]] = ids.setdefault(key, len(ids))
        y = written.get(fields[2])
        if y is None:
            key = _check_key(fields[2], "agent", path, lineno)
            y = written[fields[2]] = ids.setdefault(key, len(ids))
        if x == y:
            raise ParseError(f"contact of agent {fields[1].strip()!r} with itself", path, lineno)
        if time < 0:
            raise ParseError("contact time must be >= 0", path, lineno)
        times.append(time)
        xs.append(x)
        ys.append(y)
    trace.agents = list(ids)
    return trace


def parse_contents(path: str | Path) -> list[ContentEvent]:
    """The content events of a ``time_s,agent,item_key,tags`` file, in file order.

    A time of 2^63 s or more raises :class:`~pliersim.graph.ParseError`
    citing its line, as :func:`parse_contacts` does.
    """
    events = []
    for lineno, line in _data_lines(path, CONTENT_HEADER):
        fields = line.split(",")
        if len(fields) != 4:
            raise ParseError("expected time_s,agent,item_key,tags", path, lineno)
        time = _check_time(fields[0], path, lineno)
        agent = _check_key(fields[1], "agent", path, lineno)
        item = _check_key(fields[2], "item key", path, lineno)
        tags = tuple(t.strip() for t in fields[3].split(";"))
        if not all(tags):
            raise ParseError("empty tag in tag list", path, lineno)
        try:
            events.append(ContentEvent(time, agent, item, tags))
        except ValueError as exc:
            raise ParseError(str(exc), path, lineno) from None
    return events


def write_contacts(path: str | Path, events: Iterable[ContactEvent]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CONTACT_HEADER + "\n")
        for ev in events:
            fh.write(csv_row((ev.time, ev.a, ev.b)) + "\n")


def write_contents(path: str | Path, events: Iterable[ContentEvent]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CONTENT_HEADER + "\n")
        for ev in events:
            fh.write(csv_row((ev.time, ev.creator, ev.item, ";".join(ev.tags))) + "\n")


# ----------------------------------------------------------------------
# config file
# ----------------------------------------------------------------------

# config key -> (SimConfig field, parser); an absent key or "none" keeps the
# default, and a key of a policy field needs a download_policy that reads it
_CONFIG_FIELDS: dict[str, tuple[str, Callable[[str], object]]] = {
    "step_length_s": ("step_length", int),
    "lambda": ("affinity_weight", float),
    "expiry_window_s": ("expiry_window", int),
    "metric_cadence": ("metric_cadence", int),
    "top_n": ("top_n", int),
    "download_policy": ("download_policy", str),
    "download_percentile": ("download_percentile", float),
    "download_buffer_capacity": ("download_buffer_capacity", int),
    "download_history_s": ("download_history_s", int),
}
_EXPECTED = {int: "an integer", float: "a number"}


def parse_config_file(path: str | Path) -> SimConfig:
    """Read ``key = value`` lines (# comments allowed) into a SimConfig.

    Every error cites ``path:line:`` of the key at fault, or ``path:`` when
    no single line is; a key given twice is at fault on its second line.
    """
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in read_lines(path):
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: {key} has no value", key)
        if key in lines:
            raise ConfigError(
                f"{path}:{lineno}: {key} is given twice (first on line {lines[key]})", key
            )
        raw[key] = value
        lines[key] = lineno
    try:
        return build_config(raw)
    except ConfigError as exc:
        where = f"{path}:{lines[exc.key]}" if exc.key in lines else str(path)
        raise ConfigError(f"{where}: {exc}", exc.key) from None


def build_config(raw: dict[str, str]) -> SimConfig:
    """A SimConfig with the field of each key that ``raw`` sets; errors blame the key.

    Fields are set one at a time in table order. The defaults pass every
    check, and a check on two fields reads the kind, which is set first, so
    the check that fails is on the key being set; its message starts with
    that key, not the field. The policy keys are checked against the kind
    as soon as it is set.
    """
    config = SimConfig()
    for key, (name, parse) in _CONFIG_FIELDS.items():
        text = raw.get(key, "none")
        if text != "none":
            try:
                value = parse(text)
            except ValueError:
                raise ConfigError(f"{key} must be {_EXPECTED[parse]}, got {text!r}", key) from None
            try:
                config = dataclasses.replace(config, **{name: value})
            except ValueError as exc:
                # SimConfig's message starts with the field; the user wrote the key
                raise ConfigError(key + str(exc).removeprefix(name), key) from None
        if name == "download_policy":
            for policy_key, (policy_name, _) in _CONFIG_FIELDS.items():
                kinds = [kind for kind, read in POLICY_FIELDS.items() if policy_name in read]
                if policy_key in raw and kinds and config.download_policy not in kinds:
                    raise ConfigError(
                        f"{policy_key} is read only by download_policy = {' or '.join(kinds)}",
                        policy_key,
                    )
    return config


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

def metrics_csv_text(metrics: Sequence[StepMetrics]) -> str:
    """The comments, a header of the StepMetrics fields, and one row per step."""
    names = [f.name for f in dataclasses.fields(StepMetrics)]
    rows = (csv_row(getattr(m, name) for name in names) for m in metrics)
    return _text([*METRICS_COMMENTS, ",".join(names), *rows])


def correlation_for_run(metrics: Sequence[StepMetrics]) -> CorrelationReport | None:
    """Similarity-delta regression over a metric series; None if too short."""
    if len(metrics) < 4:
        return None
    sims = [m.avg_graph_jaccard for m in metrics]
    y = [b - a for a, b in zip(sims, sims[1:])]
    x1 = [float(m.n_contents) for m in metrics[1:]]
    x2 = [float(m.n_contacts) for m in metrics[1:]]
    return correlation_analysis(y, x1, x2)


def correlation_csv_text(report: CorrelationReport | None) -> str:
    if report is None:
        row = ("",) * 5 + (0, "insufficient_data")
    else:
        row = (
            report.r_squared, report.r_yx1, report.r_yx2, report.beta1, report.beta2,
            report.n, ";".join(report.zero_variance),
        )
    return _text([CORRELATION_COMMENT, CORRELATION_HEADER, csv_row(row)])


def linkpred_csv_text(
    reports: Iterable[tuple[str, int | None, EvalReport]], removed_fraction: float
) -> str:
    """One row per (algorithm, k or None, report) of a link-prediction run."""
    rows = (
        csv_row((name, "" if k is None else k, r.precision, r.recall, removed_fraction))
        for name, k, r in reports
    )
    return _text([LINKPRED_HEADER, *rows])


def ranking_csv_text(rec: RecommendationVector) -> str:
    """The 1-based rank, item and score of each item of ``rec``."""
    rows = map(csv_row, zip(itertools.count(1), rec.items, rec.values.tolist()))
    return _text([RANKING_HEADER, *rows])


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------

def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def now_utc() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def write_manifest(
    path: str | Path,
    command: str,
    config: dict,
    inputs: Iterable[str | Path],
    seed: int | None,
    started_utc: str,
    outputs: Mapping[str, str | Path],
) -> None:
    """Write a run's manifest, finished now: the digest of each input path and output.

    ``outputs`` maps the name a manifest lists an output under to its path.
    """
    manifest = {
        "tool": "pliersim",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {str(p): file_digest(p) for p in inputs},
        "seed": seed,
        "started_utc": started_utc,
        "finished_utc": now_utc(),
        "outputs": {name: file_digest(p) for name, p in outputs.items()},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
