"""Deterministic serialization: canonical JSON with 17-significant-digit
floats (lossless float64 round trips) and matching CSV formatting."""

from __future__ import annotations

from json.encoder import encode_basestring

SCHEMA = "spectral-ellipse/1"


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def complex_obj(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


_KEY_CACHE_SIZE = 1024
_key_texts: dict[str, str] = {}  # '"key": ' of the first _KEY_CACHE_SIZE str keys written


def _key_text(key) -> str:
    """The JSON text of a dict key and its colon: the key as str() writes it."""
    text = encode_basestring(str(key)) + ": "
    if type(key) is str and len(_key_texts) < _KEY_CACHE_SIZE:
        _key_texts[key] = text
    return text


def _dict_text(obj: dict, pad: str) -> str:
    if not obj:
        return "{}"
    inner = pad + "  "
    items = []
    for key, value in obj.items():
        text = _key_texts.get(key) if type(key) is str else None
        if text is None:
            text = _key_text(key)
        items.append(inner + text + (format(value, ".17g") if type(value) is float else _text(value, inner)))
    return "{\n" + ",\n".join(items) + "\n" + pad + "}"


def _list_text(obj, pad: str) -> str:
    if not obj:
        return "[]"
    inner = pad + "  "
    return "[\n" + ",\n".join([inner + _text(item, inner) for item in obj]) + "\n" + pad + "]"


def _subclass_text(obj, pad: str) -> str:
    """Any value but an exact float, dict or list, tested with isinstance in
    the order that decides a subclass (bool before int), each written as
    its base."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, (list, tuple)):
        return _list_text(obj, pad)
    if isinstance(obj, dict):
        return _dict_text(obj, pad)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _text(obj, pad: str) -> str:
    """The JSON text of obj, its inner lines indented by pad plus two spaces."""
    kind = type(obj)
    if kind is float:
        return format(obj, ".17g")
    if kind is dict:
        return _dict_text(obj, pad)
    if kind is list:
        return _list_text(obj, pad)
    return _subclass_text(obj, pad)


def canonical_json(obj) -> str:
    """Render with stable key order (insertion order), 2-space indent, and
    '.17g' floats; byte-identical for equal inputs.  None, bool, int, float,
    str, list, tuple and dict are written, a subclass as its base (bool
    before int), and any other type raises TypeError."""
    return _text(obj, "") + "\n"


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
