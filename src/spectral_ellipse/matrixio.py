"""Matrix ingestion: Matrix Market (array/coordinate, real/complex, general)
and dense JSON ({"n": ..., "entries": [[re, im], ...]} row-major).  The
file names its format: Matrix Market text opens with its %%MatrixMarket
banner (any case), which no JSON text can, so `load_matrix` reads a file
that opens with it as Matrix Market and any other as JSON, whatever its name.

`load_matrix` reads the file once, as bytes.  An ASCII `array` file in the
plain layout (`_ascii_array`: header, comment lines, a size line of just
the two sizes, data) goes from those bytes to float64 one chunk at a time,
each chunk in one np.fromstring call, which rounds as float() does.  Every
other file, and any the byte reader refuses, is decoded once, its line ends
read as text mode reads them, and parsed as text by `parse_mtx` or
`parse_json_matrix`, which alone name a fault.

Matrix Market text after the header, less its `%` comment lines, is one
whitespace token stream for both layouts: the size line is its first two
(`array`) or three (`coordinate`) tokens, read by `int()`, and a later
token that does not convert is named by its position in the stream,
counted from the size line's first token.

Numeric tokens follow Python `float()` syntax and must be finite.  `_fill`
converts values about `_CHUNK` characters at a time into one preallocated
float64 array and names the first bad one, so no token list or JSON tree of
the whole file is built for Matrix Market `array` data (tokenized once, cut
at line feeds, the size line laid out any way) or for JSON laid out as
{"n": N, "entries": [...]} (cut between pairs).  A JSON chunk is one
`json.loads` of a flat list of numbers, its brackets read as blanks, taken
when its bracket skeleton shows it is exactly [re, im] number pairs
(`_json_values`); a chunk that is not is a fault.  `coordinate` entries are
read one at a time from one token list; JSON of another layout or with a
fault is parsed whole, which names the first offending entry.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from itertools import chain

import numpy as np

from .matrix import as_matrix

_CHUNK = 1 << 16  # characters (bytes, on the byte path) converted at a time

# the header line: up to the first line end, as str.splitlines() cuts lines
_FIRST_LINE = re.compile(r"[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")
_JSON_WS = re.compile(r"[ \t\n\r]*")
_JSON_WS_BYTES = b" \t\n\r"
# the documented JSON layout up to the bracket that opens the entries
_JSON_HEAD = re.compile(
    r'[ \t\n\r]*\{[ \t\n\r]*"n"[ \t\n\r]*:[ \t\n\r]*([1-9][0-9]{0,17})'
    r'[ \t\n\r]*,[ \t\n\r]*"entries"[ \t\n\r]*:[ \t\n\r]*\['
)


class ParseError(ValueError):
    """Input file is malformed for its format."""


class NonSquare(ValueError):
    """Input parsed cleanly but does not describe a square matrix."""


def _real(v) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise ParseError(f"non-finite value {x!r} in matrix data")
    return x


def _converts(v) -> bool:
    try:
        return math.isfinite(float(v))
    except (ValueError, OverflowError):
        return False


def _fill(chunks, count: int, room: int):
    """(values, total, fault) of the value lists `chunks` yields: the first
    `count` values in one float64 array, converted as `float()` converts
    them; how many values the chunks hold; and the offset of the first that
    does not convert or is not finite (a None chunk is a fault), else None.

    Each value takes a character and all but the last a separator, so when
    `count` values cannot fit in `room` characters nothing is allocated,
    values is None, and the chunks are only counted."""
    values = np.empty(count) if 2 * count - 1 <= room else None
    total, fault = 0, None
    for chunk in chunks:
        k = 0 if chunk is None else len(chunk)
        if fault is None and chunk is None:
            fault = total
        elif fault is None and values is not None and total + k <= count:
            try:
                values[total : total + k] = np.fromiter(chunk, dtype=float, count=k)
                ok = np.isfinite(values[total : total + k]).all()
            except (ValueError, OverflowError):
                ok = False
            if not ok:  # rescan this chunk alone for the offset
                fault = total + next(i for i, v in enumerate(chunk) if not _converts(v))
        total += k
    return values, total, fault


def _tokens(text: str) -> list[str]:
    """Whitespace tokens of the lines of `text`, skipping `%` comment lines."""
    if "%" not in text:
        return text.split()
    return [tok for line in text.splitlines() if not line.lstrip().startswith("%") for tok in line.split()]


def _mtx_chunks(text: str, pos: int):
    """The tokens from `pos`, a line start or end, on: one list per chunk,
    cut after a line feed, which always ends a line and a token."""
    while pos < len(text):
        end = text.find("\n", pos + _CHUNK) + 1 or len(text)
        yield _tokens(text[pos:end])
        pos = end


def _split(chunks, k: int):
    """The first `k` tokens of the token lists `chunks` (all, if fewer),
    and the lists of the tokens after them."""
    head = []
    for chunk in chunks:
        take = k - len(head)
        head += chunk[:take]
        if len(head) == k:
            return head, chain([chunk[take:]], chunks)
    return head, chunks


def _column_major(values: np.ndarray, n: int, width: int) -> np.ndarray:
    data = values.view(complex) if width == 2 else values  # as_matrix converts real data
    return as_matrix(data.reshape(n, n).T)  # array data runs down columns


def _header(first: str) -> tuple[str, int]:
    """The format and the value width (2 for complex, else 1) that the
    Matrix Market header line `first` names."""
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
    return fmt, 2 if field == "complex" else 1


def parse_mtx(text: str) -> np.ndarray:
    first = _FIRST_LINE.match(text).group()
    fmt, width = _header(first)
    size, data = _split(_mtx_chunks(text, len(first)), 2 if fmt == "array" else 3)
    try:  # an array size line has no entry count
        rows, cols, nnz = map(int, size + ["0"] if fmt == "array" else size)
    except ValueError as exc:  # also fewer size tokens than the layout has
        raise ParseError("bad size line") from exc
    if fmt == "array":
        if rows < 1 or cols < 1:
            raise ParseError(f"bad dimensions {rows} x {cols}")
        count = rows * cols * width
        values, total, fault = _fill(data, count, len(text) - len(first))
        if total != count:
            raise ParseError(f"expected {count} data tokens, got {total}")
        if rows != cols:
            raise NonSquare(f"matrix is {rows} x {cols}")
        if fault is not None:
            raise ParseError(f"bad numeric token at position {2 + fault}")
        return _column_major(values, rows, width)

    if rows < 1 or cols < 1 or nnz < 0:
        raise ParseError(f"bad size line {rows} {cols} {nnz}")
    tokens = list(chain.from_iterable(data))

    def take(pos: int, convert):
        try:
            return convert(tokens[pos])
        except ValueError as exc:  # a non-finite value is a ParseError, also a ValueError
            raise ParseError(f"bad numeric token at position {3 + pos}") from exc

    stride = 2 + width
    expected = nnz * stride
    if len(tokens) != expected:
        raise ParseError(f"expected {expected} entry tokens, got {len(tokens)}")
    if rows != cols:
        raise NonSquare(f"matrix is {rows} x {cols}")
    try:
        a = np.zeros((rows, cols), dtype=complex)
    except (ValueError, MemoryError) as exc:  # declared size beyond what fits
        raise ParseError(f"cannot allocate a {rows} x {cols} matrix") from exc
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for pos in range(0, expected, stride):
            i, j = take(pos, int), take(pos + 1, int)
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise ParseError(f"coordinate ({i}, {j}) out of range")
            real = take(pos + 2, _real)
            imag = take(pos + 3, _real) if width == 2 else 0.0
            a[i - 1, j - 1] += complex(real, imag)  # duplicates accumulate
    if not np.isfinite(a).all():
        raise ParseError("duplicate coordinate entries sum to a non-finite value")
    return as_matrix(a)


def _convert(data: bytes, pos: int, values: np.ndarray) -> int | None:
    """How many numbers data[pos:] holds, converted into `values` chunk by
    chunk, each cut after a line feed; None when a chunk does not convert
    to the end (a `%` never does), holds a value that is not finite, or
    overfills `values`."""
    total = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # numpy 1.x warns and stops at unmatched data
        while pos < len(data):
            end = data.find(b"\n", pos + _CHUNK) + 1 or len(data)
            chunk = data[pos:end]
            pos = end
            if chunk.isspace():  # np.fromstring reads a blank string as [-1.0]
                continue
            try:
                part = np.fromstring(chunk, dtype=float, sep=" ")
            except (ValueError, DeprecationWarning):
                return None
            if total + len(part) > len(values) or not np.isfinite(part).all():
                return None
            values[total : total + len(part)] = part
            total += len(part)
    return total


def _ascii_array(data: bytes) -> tuple[np.ndarray, int, int] | None:
    """(values, n, width) of ASCII Matrix Market `array` bytes in the plain
    layout, converted straight from the bytes; None for any other file,
    which the str parser reads and whose fault it names.

    The plain layout is the header line, then comment or blank lines, then
    a size line of just the two sizes, each line ending in LF or CRLF, then
    data with no `%`.  Data chunks are cut after a line feed, and each goes to
    float64 in one np.fromstring call, which converts by CPython's
    PyOS_string_to_double as float() does and splits at ASCII whitespace as
    str.split() does.  A token float() rejects (`1_0`), a separator
    str.split() has and C has not (`\x1c`), or a value that is not finite
    sends the file to the str parser."""
    if data[:14].lower() != b"%%matrixmarket" or not data.isascii():
        return None
    lines, pos = [], 0  # the header and size lines
    while len(lines) < 2:
        end = data.find(b"\n", pos)
        if end < 0:
            return None
        line = data[pos:end].decode().removesuffix("\r")
        pos = end + 1
        if not _FIRST_LINE.fullmatch(line):  # a line end that text mode or splitlines() would cut at
            return None
        if not lines or (line.split() and not line.lstrip().startswith("%")):
            lines.append(line)
    try:
        fmt, width = _header(lines[0])
        rows, cols = map(int, lines[1].split())
    except ValueError:  # also a ParseError, and a size line without exactly two tokens
        return None
    count = rows * cols * width
    if fmt != "array" or rows < 1 or rows != cols or 2 * count - 1 > len(data) - pos:
        return None
    values = np.empty(count)
    return (values, rows, width) if _convert(data, pos, values) == count else None


def _json_value(idx: int, v) -> float:
    try:
        return _real(v)
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


def _json_values(chunk: str):
    """The values of `chunk` when it is exactly k >= 1 JSON [re, im] number
    pairs joined by commas, else None.

    One json.loads reads the brackets as blanks, so it builds one flat list
    and no list per pair.  The shape is then checked on the chunk without
    JSON whitespace: its skeleton, what is left once number characters are
    deleted, is `[,],` k - 1 times and then `[,]`; it starts with `[`, ends
    with `]`, and holds k - 1 `],[`.  So the chunk holds nothing but number
    characters, blanks, commas and brackets, and each value is a JSON
    number: an int or a float (not a bool, a string, NaN or Infinity).  And
    of the 2k - 1 commas between the values, one falls inside each pair and
    one, with `]` and `[` next to it, between each two pairs."""
    if not chunk.isascii():
        return None
    try:
        values = json.loads("[" + chunk.replace("[", " ").replace("]", " ") + "]")
    except (ValueError, RecursionError):
        return None
    k = len(values) // 2
    compact = chunk.encode()
    if any(ws in compact for ws in _JSON_WS_BYTES):  # a compact file has none
        compact = compact.translate(None, _JSON_WS_BYTES)
    skeleton = compact.translate(None, b"0123456789+-.eE")
    ok = skeleton == b"[,]," * (k - 1) + b"[,]" and compact.count(b"],[") == k - 1
    return values if ok and compact.startswith(b"[") and compact.endswith(b"]") else None


def _json_chunks(text: str, pos: int, end: int):
    """The values of the entries text[pos:end], one chunk at a time, each
    cut at the first `,` after a `]`: `_json_values` of each chunk."""
    while True:
        cut = text.find("]", pos + _CHUNK, end)
        if cut >= 0:
            cut = text.find(",", cut, end)
        if cut < 0:
            cut = end
        yield _json_values(text[pos:cut])
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
    if end < 0 or not _JSON_WS.fullmatch(text, end + 1, close):
        return None
    values, total, fault = _fill(_json_chunks(text, start, end), 2 * n * n, end - start)
    return as_matrix(values.view(complex).reshape(n, n)) if total == 2 * n * n and fault is None else None


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


def load_matrix(path: str) -> np.ndarray:
    """Read a UTF-8 matrix file: Matrix Market when it opens with the
    %%MatrixMarket banner, else JSON.  The file is read once, as bytes;
    ASCII `array` data is converted from them (`_ascii_array`), and any
    other file is decoded, with the line ends text mode reads as `\n`, and
    parsed as text."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        array = _ascii_array(data)
        text = None if array is not None else data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    del data  # the values or the text alone are held from here
    if array is not None:
        return _column_major(*array)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_mtx(text) if text[:14].lower() == "%%matrixmarket" else parse_json_matrix(text)
