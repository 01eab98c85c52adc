"""File formats: trace CSVs, the key=value config file, CSV reports, manifests.

All text I/O is UTF-8 with LF line endings and floats at 9 significant
digits, so equal inputs produce byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from . import __version__
from .evaluation import CorrelationReport, correlation_analysis
from .simulator import (
    ContactEvent,
    ContentEvent,
    DownloadPolicySpec,
    SimConfig,
    StepMetrics,
)

T = TypeVar("T")

CONTACT_HEADER = "time_s,agent_a,agent_b"
CONTENT_HEADER = "time_s,agent,item_key,tags"
METRICS_HEADER = (
    "step,sim_time_s,avg_graph_jaccard,avg_rec_jaccard,"
    "avg_rec_spearman_corrected,avg_rec_spearman_literal,n_contacts,n_contents"
)
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
LINKPRED_HEADER = "algorithm,k,precision,recall,removed_fraction"


class TraceParseError(ValueError):
    def __init__(self, message: str, path: str | Path, line: int):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class ConfigError(ValueError):
    """A bad configuration value; ``key`` names the config key at fault, if one is."""

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        super().__init__(message)


def fmt(value: float) -> str:
    """Canonical float formatting: 9 significant digits, shortest form."""
    return format(value, ".9g")


# ----------------------------------------------------------------------
# trace files
# ----------------------------------------------------------------------

def _data_lines(path: str | Path, header: str):
    """Numbered lines, neither blank nor ``#`` comments, less a header as the first of them."""
    seen = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            seen += 1
            if seen == 1 and line.strip() == header:
                continue
            yield lineno, line


def _check_key(value: str, what: str, path: str | Path, lineno: int) -> str:
    value = value.strip()
    if not value:
        raise TraceParseError(f"empty {what}", path, lineno)
    if "," in value or ";" in value or "\t" in value:
        raise TraceParseError(f"{what} {value!r} contains a separator", path, lineno)
    return value


def parse_contacts(path: str | Path) -> list[ContactEvent]:
    events = []
    for lineno, line in _data_lines(path, CONTACT_HEADER):
        fields = line.split(",")
        if len(fields) != 3:
            raise TraceParseError("expected time_s,agent_a,agent_b", path, lineno)
        try:
            time = int(fields[0])
        except ValueError:
            raise TraceParseError(f"bad time {fields[0]!r}", path, lineno) from None
        a = _check_key(fields[1], "agent", path, lineno)
        b = _check_key(fields[2], "agent", path, lineno)
        try:
            events.append(ContactEvent(time, a, b))
        except ValueError as exc:
            raise TraceParseError(str(exc), path, lineno) from None
    return events


def parse_contents(path: str | Path) -> list[ContentEvent]:
    events = []
    for lineno, line in _data_lines(path, CONTENT_HEADER):
        fields = line.split(",")
        if len(fields) != 4:
            raise TraceParseError("expected time_s,agent,item_key,tags", path, lineno)
        try:
            time = int(fields[0])
        except ValueError:
            raise TraceParseError(f"bad time {fields[0]!r}", path, lineno) from None
        agent = _check_key(fields[1], "agent", path, lineno)
        item = _check_key(fields[2], "item key", path, lineno)
        tags = tuple(t.strip() for t in fields[3].split(";"))
        if not all(tags):
            raise TraceParseError("empty tag in tag list", path, lineno)
        try:
            events.append(ContentEvent(time, agent, item, tags))
        except ValueError as exc:
            raise TraceParseError(str(exc), path, lineno) from None
    return events


def write_contacts(path: str | Path, events: Iterable[ContactEvent]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CONTACT_HEADER + "\n")
        for ev in events:
            fh.write(f"{ev.time},{ev.a},{ev.b}\n")


def write_contents(path: str | Path, events: Iterable[ContentEvent]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CONTENT_HEADER + "\n")
        for ev in events:
            fh.write(f"{ev.time},{ev.creator},{ev.item},{';'.join(ev.tags)}\n")


# ----------------------------------------------------------------------
# config file
# ----------------------------------------------------------------------

# config key -> (dataclass, field, parser); an absent key or "none" keeps the
# dataclass default; a DownloadPolicySpec key needs a policy kind that reads it
_CONFIG_FIELDS: dict[str, tuple[type, str, Callable[[str], object]]] = {
    "step_length_s": (SimConfig, "step_length", int),
    "lambda": (SimConfig, "affinity_weight", float),
    "expiry_window_s": (SimConfig, "expiry_window", int),
    "metric_cadence": (SimConfig, "metric_cadence", int),
    "top_n": (SimConfig, "top_n", int),
    "download_policy": (SimConfig, "download_policy", DownloadPolicySpec),
    "download_percentile": (DownloadPolicySpec, "percentile", float),
    "download_buffer_capacity": (DownloadPolicySpec, "capacity", int),
    "download_history_s": (DownloadPolicySpec, "history_span_s", int),
}
_EXPECTED = {int: "an integer", float: "a number"}


def parse_config_file(path: str | Path) -> SimConfig:
    """Read ``key = value`` lines (# comments allowed) into a SimConfig.

    Every error cites ``path:line:`` of the key at fault, or ``path:`` when
    no single line is; a key given twice is at fault on its second line.
    """
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_FIELDS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
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


def _with_fields(obj: T, raw: dict[str, str]) -> T:
    """``obj`` with each field of its class that ``raw`` sets; errors blame the key."""
    for key, (cls, field_name, parse) in _CONFIG_FIELDS.items():
        text = raw.get(key, "")
        if type(obj) is not cls or text in ("", "none"):
            continue
        try:
            value = parse(text)
        except ValueError as exc:
            if parse in _EXPECTED:
                raise ConfigError(f"{key} must be {_EXPECTED[parse]}, got {text!r}", key) from None
            raise ConfigError(str(exc), key) from None
        try:
            obj = replace(obj, **{field_name: value})
        except ValueError as exc:
            raise ConfigError(str(exc), key) from None
    return obj


def build_config(raw: dict[str, str]) -> SimConfig:
    # each check of SimConfig and DownloadPolicySpec is on one field, and the
    # defaults pass them all, so setting one field at a time finds the key at fault
    config = _with_fields(SimConfig(), raw)
    kind = config.download_policy and config.download_policy.kind
    for key, (cls, field_name, _) in _CONFIG_FIELDS.items():
        if cls is DownloadPolicySpec and key in raw:
            kinds = DownloadPolicySpec.READERS[field_name]
            if kind not in kinds:
                raise ConfigError(
                    f"{key} is read only by download_policy = {' or '.join(kinds)}", key
                )
    if config.download_policy is not None:
        config = replace(config, download_policy=_with_fields(config.download_policy, raw))
    return config


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

def metrics_csv_text(metrics: Sequence[StepMetrics]) -> str:
    lines = list(METRICS_COMMENTS)
    lines.append(METRICS_HEADER)
    for m in metrics:
        lines.append(
            ",".join(
                (
                    str(m.step),
                    str(m.sim_time_s),
                    fmt(m.avg_graph_jaccard),
                    fmt(m.avg_rec_jaccard),
                    fmt(m.avg_rec_spearman_corrected),
                    fmt(m.avg_rec_spearman_literal),
                    str(m.n_contacts),
                    str(m.n_contents),
                )
            )
        )
    return "\n".join(lines) + "\n"


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
    lines = [CORRELATION_COMMENT, CorrelationReport.CSV_HEADER]
    if report is None:
        lines.append(",,,,,0,insufficient_data")
    else:
        lines.append(report.csv_row())
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------

def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def write_manifest(
    path: str | Path,
    command: str,
    config: dict,
    inputs: dict[str, str],
    seed: int | None,
    started_utc: str,
    finished_utc: str,
    outputs: dict[str, str] | None = None,
) -> None:
    manifest = {
        "tool": "pliersim",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": inputs,
        "seed": seed,
        "started_utc": started_utc,
        "finished_utc": finished_utc,
        "outputs": outputs or {},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
