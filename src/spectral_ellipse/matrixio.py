"""Matrix ingestion: Matrix Market (array/coordinate, real/complex, general)
and dense JSON ({"n": ..., "entries": [[re, im], ...]} row-major).

Numeric tokens follow Python `float()` syntax and must be finite.  Matrix
Market `array` data and JSON entries are converted in one numpy pass; the
per-token checks run only when that pass fails, to name the first offending
token or entry.  `coordinate` entries are read one at a time.
"""

from __future__ import annotations

import json
import math
import os
import re
from itertools import chain, islice

import numpy as np

from .matrix import as_matrix

# the first line as str.splitlines() cuts it
_FIRST_LINE = re.compile("[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")


class ParseError(ValueError):
    """Input file is malformed for its format."""


class NonSquare(ValueError):
    """Input parsed cleanly but does not describe a square matrix."""


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise ParseError(f"non-finite value {x!r} in matrix data")
    return x


def _all_finite(values, count: int) -> np.ndarray | None:
    """The `count` items of an iterable as float64, converted as `float()`
    converts them, or None if one does not convert or is not finite."""
    try:
        arr = np.fromiter(values, dtype=float, count=count)
    except (ValueError, OverflowError):
        return None
    return arr if np.isfinite(arr).all() else None


def _tokens(text: str, first: str) -> list[str]:
    """Whitespace tokens after the header line, skipping `%` comment lines."""
    if text.find("%", len(first)) < 0:
        tokens = text.split()
        del tokens[:5]  # the header line, already checked to hold 5 tokens
        return tokens
    tokens = []
    for line in text.splitlines()[1:]:
        line = line.strip()
        if line and not line.startswith("%"):
            tokens.extend(line.split())
    return tokens


def parse_mtx(text: str) -> np.ndarray:
    first = _FIRST_LINE.match(text).group()
    if not first.lower().startswith("%%matrixmarket"):
        raise ParseError("missing %%MatrixMarket header")
    header = first.split()
    if len(header) != 5:
        raise ParseError(f"malformed header: {first!r}")
    _, obj, fmt, field, symmetry = (tok.lower() for tok in header)
    if obj != "matrix":
        raise ParseError(f"unsupported object {obj!r}")
    if fmt not in ("array", "coordinate"):
        raise ParseError(f"unsupported format {fmt!r}")
    if field not in ("real", "complex"):
        raise ParseError(f"unsupported field {field!r}")
    if symmetry != "general":
        raise ParseError(f"unsupported symmetry {symmetry!r}")

    tokens = _tokens(text, first)

    def take_int(pos: int) -> int:
        try:
            return int(tokens[pos])
        except (IndexError, ValueError) as exc:
            raise ParseError("bad size line") from exc

    def take_float(pos: int) -> float:
        try:
            return _finite(float(tokens[pos]))
        except (IndexError, ValueError) as exc:
            raise ParseError(f"bad numeric token at position {pos}") from exc

    width = 2 if field == "complex" else 1

    if fmt == "array":
        rows, cols = take_int(0), take_int(1)
        if rows < 1 or cols < 1:
            raise ParseError(f"bad dimensions {rows} x {cols}")
        expected = 2 + rows * cols * width
        if len(tokens) != expected:
            raise ParseError(f"expected {expected - 2} data tokens, got {len(tokens) - 2}")
        if rows != cols:
            raise NonSquare(f"matrix is {rows} x {cols}")
        values = _all_finite(islice(tokens, 2, None), expected - 2)
        if values is None:
            values = np.array([take_float(pos) for pos in range(2, expected)])
        data = values.view(complex) if width == 2 else values.astype(complex)
        return as_matrix(data.reshape(cols, rows).T)  # array data runs down columns

    rows, cols, nnz = take_int(0), take_int(1), take_int(2)
    if rows < 1 or cols < 1 or nnz < 0:
        raise ParseError(f"bad size line {rows} {cols} {nnz}")
    stride = 2 + width
    expected = 3 + nnz * stride
    if len(tokens) != expected:
        raise ParseError(f"expected {expected - 3} entry tokens, got {len(tokens) - 3}")
    if rows != cols:
        raise NonSquare(f"matrix is {rows} x {cols}")
    try:
        a = np.zeros((rows, cols), dtype=complex)
    except (ValueError, MemoryError) as exc:  # declared size beyond what fits
        raise ParseError(f"cannot allocate a {rows} x {cols} matrix") from exc
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for pos in range(3, expected, stride):
            i, j = take_int(pos), take_int(pos + 1)
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise ParseError(f"coordinate ({i}, {j}) out of range")
            real = take_float(pos + 2)
            imag = take_float(pos + 3) if width == 2 else 0.0
            a[i - 1, j - 1] += complex(real, imag)  # duplicates accumulate
    if not np.isfinite(a).all():
        raise ParseError("duplicate coordinate entries sum to a non-finite value")
    return as_matrix(a)


def _json_value(idx: int, v) -> float:
    try:
        return _finite(float(v))
    except OverflowError as exc:  # an int beyond the float range
        raise ParseError(f"entry {idx} is out of float range") from exc


def _json_entry(idx: int, pair) -> complex:
    if (
        not isinstance(pair, list)
        or len(pair) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
    ):
        raise ParseError(f"entry {idx} is not an [re, im] pair: {pair!r}")
    return complex(_json_value(idx, pair[0]), _json_value(idx, pair[1]))


def parse_json_matrix(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise ParseError('JSON matrix needs keys "n" and "entries"')
    n = obj["n"]
    entries = obj["entries"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f'"n" must be a positive integer, got {n!r}')
    if not isinstance(entries, list) or len(entries) != n * n:
        raise ParseError(f'"entries" must hold {n * n} [re, im] pairs')
    # json.loads builds exact list/int/float/bool objects, so type sets are exact
    values = None
    if (
        set(map(type, entries)) == {list}
        and set(map(len, entries)) == {2}
        and set(map(type, chain.from_iterable(entries))) <= {int, float}
    ):
        values = _all_finite(chain.from_iterable(entries), 2 * len(entries))
    if values is None:  # name the first bad entry
        return as_matrix(
            np.array([_json_entry(idx, pair) for idx, pair in enumerate(entries)]).reshape(n, n)
        )
    del obj, entries  # free the parsed objects before as_matrix copies
    return as_matrix(values.view(complex).reshape(n, n))


def load_matrix(path: str, fmt: str | None = None) -> np.ndarray:
    """Read a matrix file; format inferred from the extension unless given."""
    if fmt is None:
        ext = os.path.splitext(path)[1].lower()
        if ext == ".mtx":
            fmt = "mtx"
        elif ext == ".json":
            fmt = "json"
        else:
            raise ParseError(
                f"cannot infer format from {path!r}; pass --format mtx|json"
            )
    if fmt not in ("mtx", "json"):
        raise ParseError(f"unknown format {fmt!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    return parse_mtx(text) if fmt == "mtx" else parse_json_matrix(text)
