"""Deterministic serialization: canonical JSON with 17-significant-digit
floats (lossless float64 round trips) and matching CSV formatting."""

from __future__ import annotations

import json

SCHEMA = "spectral-ellipse/1"


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def complex_obj(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _emit(obj, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad + "  ")
            _emit(item, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (key, value) in enumerate(items):
            out.append(pad + "  " + json.dumps(str(key), ensure_ascii=False) + ": ")
            _emit(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Render with stable key order (insertion order), 2-space indent, and
    '.17g' floats; byte-identical for equal inputs."""
    out: list[str] = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)


def csv_row(fields) -> str:
    cols = []
    for f in fields:
        if f is None:
            cols.append("")
        elif isinstance(f, float):
            cols.append(fmt_float(f))
        else:
            cols.append(str(f))
    return ",".join(cols)
