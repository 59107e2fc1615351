"""Matrix ingestion: Matrix Market (array/coordinate, real/complex, general)
and dense JSON ({"n": ..., "entries": [[re, im], ...]} row-major).

Numeric tokens follow Python `float()` syntax and must be finite.  The two
bulk layouts are converted about `_CHUNK` characters at a time into one
preallocated float64 array, so no token list or JSON tree of the whole file
is built: the data lines of a Matrix Market `array` file, cut at line feeds,
and the entries of a JSON file laid out as {"n": N, "entries": [...]}, cut
between pairs.  Any other layout, and any file the chunked pass rejects, is
read token by token or entry by entry (a JSON file parsed whole), which
names the first offending token or entry.  `coordinate` entries are read
one at a time.
"""

from __future__ import annotations

import json
import math
import os
import re
from itertools import chain

import numpy as np

from .matrix import as_matrix

_CHUNK = 1 << 16  # characters converted at a time

# a character of a line, and a line end, as str.splitlines() cuts lines
_IN_LINE = r"[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]"
_LINE_END = r"(?:\r\n|\r(?!\n)|[\n\v\f\x1c\x1d\x1e\x85\u2028\u2029])"
_FIRST_LINE = re.compile(_IN_LINE + "*")
# after an array file's header line: blank and comment lines, then the size
# line alone, in the layout the chunked reader takes
_ARRAY_SIZE = re.compile(
    rf"{_LINE_END}(?:[ \t]*(?:%{_IN_LINE}*)?{_LINE_END})*"
    rf"[ \t]*([0-9]{{1,18}})[ \t]+([0-9]{{1,18}})[ \t]*{_LINE_END}"
)
_JSON_WS = re.compile(r"[ \t\n\r]*")
# the documented JSON layout up to the bracket that opens the entries
_JSON_HEAD = re.compile(
    r'[ \t\n\r]*\{[ \t\n\r]*"n"[ \t\n\r]*:[ \t\n\r]*([1-9][0-9]{0,17})'
    r'[ \t\n\r]*,[ \t\n\r]*"entries"[ \t\n\r]*:[ \t\n\r]*\['
)


class ParseError(ValueError):
    """Input file is malformed for its format."""


class NonSquare(ValueError):
    """Input parsed cleanly but does not describe a square matrix."""


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise ParseError(f"non-finite value {x!r} in matrix data")
    return x


def _fill(chunks, count: int) -> np.ndarray | None:
    """The `count` values that `chunks` yields as (iterable, length) pairs,
    in one float64 array and converted as `float()` converts them; None if a
    chunk is None, the total is not `count`, or a value does not convert or
    is not finite."""
    out = np.empty(count)
    filled = 0
    for chunk in chunks:
        if chunk is None or filled + chunk[1] > count:
            return None
        values, k = chunk
        try:
            out[filled : filled + k] = np.fromiter(values, dtype=float, count=k)
        except (ValueError, OverflowError):
            return None
        filled += k
    return out if filled == count and np.isfinite(out).all() else None


def _tokens(text: str) -> list[str]:
    """Whitespace tokens of the lines of `text`, skipping `%` comment lines."""
    if "%" not in text:
        return text.split()
    return [tok for line in text.splitlines() if not line.lstrip().startswith("%") for tok in line.split()]


def _mtx_chunks(text: str, pos: int):
    """The data tokens from `pos`, a line start, on: one list per chunk,
    cut after a line feed, which always ends a line and a token."""
    while pos < len(text):
        end = text.find("\n", pos + _CHUNK) + 1 or len(text)
        tokens = _tokens(text[pos:end])
        yield tokens, len(tokens)
        pos = end


def _column_major(values: np.ndarray, n: int, width: int) -> np.ndarray:
    data = values.view(complex) if width == 2 else values  # as_matrix converts real data
    return as_matrix(data.reshape(n, n).T)  # array data runs down columns


def _chunked_array(text: str, start: int, width: int) -> np.ndarray | None:
    """The matrix of an array file whose header line ends at `start`,
    converted chunk by chunk; None when the file is laid out otherwise or
    holds a fault, which the token path names."""
    size = _ARRAY_SIZE.match(text, start)
    if size is None:
        return None
    rows, cols = int(size[1]), int(size[2])
    count = rows * cols * width
    # each value takes a character and all but the last a separator
    if rows != cols or rows < 1 or 2 * count - 1 > len(text) - size.end():
        return None
    values = _fill(_mtx_chunks(text, size.end()), count)
    return None if values is None else _column_major(values, rows, width)


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
    width = 2 if field == "complex" else 1
    if fmt == "array":
        a = _chunked_array(text, len(first), width)
        if a is not None:
            return a

    tokens = _tokens(text[len(first) :])

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

    if fmt == "array":
        rows, cols = take_int(0), take_int(1)
        if rows < 1 or cols < 1:
            raise ParseError(f"bad dimensions {rows} x {cols}")
        expected = 2 + rows * cols * width
        if len(tokens) != expected:
            raise ParseError(f"expected {expected - 2} data tokens, got {len(tokens) - 2}")
        if rows != cols:
            raise NonSquare(f"matrix is {rows} x {cols}")
        return _column_major(np.array([take_float(pos) for pos in range(2, expected)]), rows, width)

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


def _json_chunks(text: str, pos: int, end: int):
    """The values of the entries text[pos:end], one chunk at a time, each
    cut at the first `,` after a `]`: (values, count) for a chunk that
    parses as a nonempty list of [re, im] number pairs, else None."""
    while True:
        cut = text.find("]", pos + _CHUNK, end)
        if cut >= 0:
            cut = text.find(",", cut, end)
        if cut < 0:
            cut = end
        try:
            pairs = json.loads("[" + text[pos:cut] + "]")
        except (ValueError, RecursionError):
            pairs = None
        # json.loads builds exact list/int/float/bool objects, so type sets are exact
        if (
            pairs is not None
            and set(map(type, pairs)) == {list}
            and set(map(len, pairs)) == {2}
            and set(map(type, chain.from_iterable(pairs))) <= {int, float}
        ):
            yield chain.from_iterable(pairs), 2 * len(pairs)
        else:
            yield None
        if cut == end:
            return
        pos = cut + 1


def _chunked_json(text: str) -> np.ndarray | None:
    """A JSON file's matrix, converted chunk by chunk; None when the file is
    laid out otherwise or holds a fault, which the whole-tree path names.

    Every chunk, wrapped in brackets, is a nonempty JSON list of pairs, so
    the entries joined by their commas are one JSON list of the same values."""
    head = _JSON_HEAD.match(text)
    close = text.rfind("}")
    if head is None or close < 0 or not _JSON_WS.fullmatch(text, close + 1):
        return None
    n, start = int(head[1]), head.end()
    end = text.rfind("]", start, close)
    # each pair takes five characters and all but the last a comma
    if end < 0 or not _JSON_WS.fullmatch(text, end + 1, close) or 6 * n * n - 1 > end - start:
        return None
    values = _fill(_json_chunks(text, start, end), 2 * n * n)
    return None if values is None else as_matrix(values.view(complex).reshape(n, n))


def parse_json_matrix(text: str) -> np.ndarray:
    a = _chunked_json(text)
    if a is not None:
        return a
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also an int of over 4300 digits
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise ParseError('JSON matrix needs keys "n" and "entries"')
    n = obj["n"]
    entries = obj["entries"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f'"n" must be a positive integer, got {n!r}')
    if not isinstance(entries, list) or len(entries) != n * n:
        raise ParseError(f'"entries" must hold {n * n} [re, im] pairs')
    # entry by entry, naming the first bad one
    return as_matrix(np.array([_json_entry(idx, pair) for idx, pair in enumerate(entries)]).reshape(n, n))


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
