"""Report serialization: dataclass trees to JSON-safe objects and markdown.

Reports must be byte-reproducible for a fixed config and seed, so nothing
time- or environment-dependent is ever embedded; rationals are rendered as
exact "p/q" strings and dict key order follows dataclass field order.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

SCHEMA_VERSION = "1"


def to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _md_value(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}- {k}:")
                lines.extend(_md_value(v, indent + 1))
            else:
                lines.append(f"{pad}- {k}: {v}")
    elif isinstance(value, list):
        flat = all(not isinstance(v, (dict, list)) for v in value)
        if flat:
            lines.append(f"{pad}- [{', '.join(str(v) for v in value)}]")
        else:
            for i, v in enumerate(value):
                lines.append(f"{pad}- [{i}]:")
                lines.extend(_md_value(v, indent + 1))
    else:
        lines.append(f"{pad}- {value}")
    return lines


def render_markdown(doc: dict) -> str:
    """A ``cli.run_checks`` report as markdown: config, chart, then one section per check."""
    sections = [("config", doc["config"]), ("chart", doc["chart"])] + [
        (result["check"], {k: v for k, v in result.items() if k != "check"})
        for result in doc["results"]]
    lines = [f"# terracini report (schema {doc['schema_version']})", ""]
    for title, body in sections:
        lines += [f"## {title}", *_md_value(body), ""]
    return "\n".join(lines)
