"""Prometheus text-format (0.0.4) exposition of :class:`MetricsRegistry`.

The registry's internal names are dotted (``predict.latency_ms``) and may
carry one inline label from the family API (``predict.stage_ms{stage="rpc.send"}``);
the renderer sanitises names, re-parses inline labels, and always adds an
``app`` label identifying which application's registry a sample came from.

Mapping:

* ``Counter`` → ``counter`` with the conventional ``_total`` suffix (a rate
  is the scraper's ``rate()`` over it).
* ``Gauge``   → ``gauge`` (point-in-time value, no suffix).
* ``Histogram`` → ``histogram`` with cumulative ``_bucket{le=...}`` lines on
  its own bounds plus ``_sum``/``_count``, over its lifetime: running sums
  of its bucket counts, its sum, and ``_count`` read from its counter (for
  ``predict.latency_ms`` the one registered as ``predict.count``), so every
  series only grows and ``rate()`` over any of them means what it says.
  The render is a pass over the buckets, not over observations.

A minimal parser/validator (:func:`parse_exposition`, :func:`validate`)
lives here too, shared by the CI smoke script and the tests, so the
exposition is checked by something independent of the renderer's string
building.
"""

from __future__ import annotations

import math
import re
from itertools import accumulate
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.metrics import MetricsRegistry


PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_SANITISE = re.compile(r"[^a-zA-Z0-9_:]")
_INLINE_LABEL = re.compile(r'^(?P<base>[^{]+)\{(?P<label>[^=]+)="(?P<value>.*)"\}$')


def _metric_name(raw: str, suffix: str = "") -> str:
    return f"clipper_{_NAME_SANITISE.sub('_', raw)}{suffix}"


def _split_inline_label(raw: str) -> Tuple[str, Optional[Tuple[str, str]]]:
    """Split ``base{stage="x"}`` family-child names into (base, (label, value))."""
    match = _INLINE_LABEL.match(raw)
    if match is None:
        return raw, None
    return match.group("base"), (match.group("label").strip(), match.group("value"))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"' for key, value in labels.items()
    )
    return "{" + inner + "}"


#: The kinds rendered as one sample per metric: position in
#: ``MetricsRegistry.all_metrics()``, exposition TYPE, HELP text, name suffix
#: and how the value is read.
_SCALAR_KINDS = (
    (0, "counter", "Counter {} from MetricsRegistry.", "_total",
     lambda counter: float(counter.value)),
    (3, "gauge", "Gauge {} from MetricsRegistry.", "", lambda gauge: gauge.value),
)


def render_prometheus(registries: Mapping[str, MetricsRegistry]) -> str:
    """Render one or more registries as a Prometheus text exposition.

    ``registries`` maps an ``app`` label value (application name, or e.g.
    ``"server"``) to its registry; every sample carries that label so one
    scrape covers every application a server hosts.
    """
    #: Exposition family name -> (TYPE, HELP, sample lines), so that HELP
    #: and TYPE render once per family whichever registries feed it.
    families: Dict[str, Tuple[str, str, List[str]]] = {}

    def samples_of(app: str, raw: str, kind: str, help_text: str, suffix: str = ""):
        """The sample list, sample name and labels of one registry entry."""
        base, inline = _split_inline_label(raw)
        name = _metric_name(base, suffix)
        labels = {"app": app}
        if inline:
            labels[_NAME_SANITISE.sub("_", inline[0])] = inline[1]
        if name not in families:
            families[name] = (kind, help_text.format(base), [])
        return families[name][2], name, labels

    for app, registry in registries.items():
        tables = registry.all_metrics()
        for index, kind, help_text, suffix, read in _SCALAR_KINDS:
            for raw, metric in tables[index].items():
                samples, name, labels = samples_of(app, raw, kind, help_text, suffix)
                samples.append(
                    f"{name}{_render_labels(labels)} {_format_value(read(metric))}"
                )
        for raw, histogram in tables[2].items():
            samples, name, labels = samples_of(
                app, raw, "histogram", "Distribution of {} since it was registered."
            )
            buckets, total, count = histogram.lifetime()
            bounds = [*map(_format_value, histogram.bounds), "+Inf"]
            for le, running in zip(bounds, accumulate(buckets)):
                bucket_labels = {**labels, "le": le}
                samples.append(f"{name}_bucket{_render_labels(bucket_labels)} {running}")
            samples.append(f"{name}_sum{_render_labels(labels)} {_format_value(total)}")
            samples.append(f"{name}_count{_render_labels(labels)} {count}")

    lines: List[str] = []
    for name, (kind, help_text, samples) in sorted(families.items()):
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# Minimal parser / validator (used by tests and the CI smoke script).
# ---------------------------------------------------------------------------

_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(text: str) -> str:
    return (
        text.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def parse_exposition(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse a text exposition into ``{family: {type, help, samples}}``.

    Raises ``ValueError`` on malformed lines, samples preceding their TYPE
    declaration being typed inconsistently, or unparsable values — enough
    validation to catch renderer regressions without reimplementing a full
    Prometheus client.
    """
    families: Dict[str, Dict[str, Any]] = {}

    def family_of(sample_name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count", "_total"):
            base = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
            if base and base in families:
                return base
        if sample_name in families:
            return sample_name
        return sample_name

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP ") :].split(" ", 1)
            name = parts[0]
            families.setdefault(name, {"samples": []})["help"] = (
                parts[1] if len(parts) > 1 else ""
            )
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE ") :].split(" ", 1)
            if len(parts) != 2 or parts[1] not in (
                "counter",
                "gauge",
                "histogram",
                "summary",
                "untyped",
            ):
                raise ValueError(f"line {lineno}: malformed TYPE line: {line!r}")
            families.setdefault(parts[0], {"samples": []})["type"] = parts[1]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample line: {line!r}")
        raw_value = match.group("value")
        try:
            value = float(raw_value)
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: unparsable sample value {raw_value!r}"
            ) from exc
        labels: Dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            consumed = 0
            for pair in _LABEL_PAIR.finditer(raw_labels):
                labels[pair.group(1)] = _unescape_label_value(pair.group(2))
                consumed = pair.end()
            remainder = raw_labels[consumed:].strip().strip(",")
            if remainder:
                raise ValueError(
                    f"line {lineno}: malformed labels {raw_labels!r}"
                )
        name = match.group("name")
        families.setdefault(family_of(name), {"samples": []})["samples"].append(
            {"name": name, "labels": labels, "value": value}
        )
    return families


def validate(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse and structurally validate an exposition; returns the families.

    Beyond :func:`parse_exposition`, checks that every family with samples
    has TYPE and HELP lines and that histogram families have monotonically
    non-decreasing buckets ending in a ``+Inf`` bucket that equals ``_count``.
    """
    families = parse_exposition(text)
    if not families:
        raise ValueError("empty exposition")
    for name, info in families.items():
        samples = info.get("samples", [])
        if not samples:
            continue
        if "type" not in info:
            raise ValueError(f"family {name}: missing TYPE line")
        if "help" not in info:
            raise ValueError(f"family {name}: missing HELP line")
        if info["type"] == "histogram":
            _validate_histogram(name, samples)
    return families


def _validate_histogram(name: str, samples: List[Dict[str, Any]]) -> None:
    series: Dict[Tuple[Tuple[str, str], ...], Dict[str, Any]] = {}
    for sample in samples:
        labels = {k: v for k, v in sample["labels"].items() if k != "le"}
        key = tuple(sorted(labels.items()))
        entry = series.setdefault(key, {"buckets": [], "count": None})
        if sample["name"] == f"{name}_bucket":
            le = sample["labels"].get("le")
            if le is None:
                raise ValueError(f"family {name}: bucket sample missing le label")
            bound = math.inf if le == "+Inf" else float(le)
            entry["buckets"].append((bound, sample["value"]))
        elif sample["name"] == f"{name}_count":
            entry["count"] = sample["value"]
    for key, entry in series.items():
        buckets = sorted(entry["buckets"])
        if not buckets:
            raise ValueError(f"family {name}: histogram series {key} has no buckets")
        if buckets[-1][0] != math.inf:
            raise ValueError(f"family {name}: series {key} missing +Inf bucket")
        last = -math.inf
        for bound, count in buckets:
            if count < last:
                raise ValueError(
                    f"family {name}: series {key} buckets not cumulative"
                )
            last = count
        if entry["count"] is not None and buckets[-1][1] != entry["count"]:
            raise ValueError(
                f"family {name}: series {key} +Inf bucket != _count"
            )
