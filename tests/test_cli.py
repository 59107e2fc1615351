import argparse
import contextlib
import enum
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_ellipse import cli, matrixio
from spectral_ellipse.ellipse import DimensionTooSmall
from spectral_ellipse.ensembles import KINDS, EnsembleSpec, generate
from spectral_ellipse.matrixio import NonSquare, ParseError, load_matrix, parse_json_matrix, parse_mtx
from spectral_ellipse.numerics import NonConvergence
from spectral_ellipse.report import canonical_json, fmt_float

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
GOLDEN_INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")
README = os.path.join(os.path.dirname(SRC), "README.md")


def write_json_matrix(path, entries, n):
    payload = {"n": n, "entries": entries}
    path.write_text(json.dumps(payload))
    return str(path)


def diag13_file(tmp_path):
    return write_json_matrix(tmp_path / "diag13.json", [[1, 0], [0, 0], [0, 0], [3, 0]], 2)


def run_cli(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "spectral_ellipse", *args],
        capture_output=True,
        text=True,
        env=env,
        **kwargs,
    )


class TestMatrixMarketParsing:
    def test_array_real_is_column_major(self):
        text = "%%MatrixMarket matrix array real general\n2 2\n1\n3\n2\n4\n"
        a = parse_mtx(text)
        assert np.array_equal(a, np.array([[1, 2], [3, 4]], dtype=complex))

    def test_array_complex(self):
        text = "%%MatrixMarket matrix array complex general\n% comment\n1 1\n2.5 -1.5\n"
        a = parse_mtx(text)
        assert a[0, 0] == 2.5 - 1.5j

    def test_coordinate_complex_duplicates_accumulate(self):
        text = (
            "%%MatrixMarket matrix coordinate complex general\n"
            "2 2 3\n1 2 1 0\n2 1 1 0\n1 2 0 2\n"
        )
        a = parse_mtx(text)
        assert a[0, 1] == 1 + 2j
        assert a[1, 0] == 1

    def test_rejects_symmetric(self):
        with pytest.raises(ParseError):
            parse_mtx("%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n")

    def test_rejects_pattern_field(self):
        with pytest.raises(ParseError):
            parse_mtx("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n")

    def test_rejects_integer_field(self):
        with pytest.raises(ParseError):
            parse_mtx("%%MatrixMarket matrix array integer general\n1 1\n7\n")

    def test_rectangular_is_non_square(self):
        with pytest.raises(NonSquare):
            parse_mtx("%%MatrixMarket matrix array real general\n2 3\n1\n2\n3\n4\n5\n6\n")

    def test_bad_token_count(self):
        with pytest.raises(ParseError):
            parse_mtx("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n")

    def test_out_of_range_coordinate(self):
        with pytest.raises(ParseError):
            parse_mtx("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5\n")

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError):
            parse_mtx("%%MatrixMarket matrix array real general\n1 1\nnan\n")


class TestJsonParsing:
    def test_round_trip(self):
        a = parse_json_matrix('{"n": 2, "entries": [[1,0],[0,0],[0,0],[3,0]]}')
        assert np.array_equal(a, np.diag([1, 3]).astype(complex))

    def test_wrong_count(self):
        with pytest.raises(ParseError):
            parse_json_matrix('{"n": 2, "entries": [[1,0]]}')

    def test_bad_n(self):
        with pytest.raises(ParseError):
            parse_json_matrix('{"n": true, "entries": []}')

    def test_bad_pair(self):
        with pytest.raises(ParseError):
            parse_json_matrix('{"n": 1, "entries": [[1]]}')

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            parse_json_matrix("{nope")

    def test_load_matrix_unknown_extension(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("x")
        with pytest.raises(ParseError):
            load_matrix(str(p))

    def test_txt_json_file_reads_as_json(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text('{"n": 1, "entries": [[5, 0]]}')
        a = load_matrix(str(p))
        assert a[0, 0] == 5


MTX_ARRAY = "%%MatrixMarket matrix array real general\n"
MTX_COORDINATE = "%%MatrixMarket matrix coordinate real general\n"


class TestReaderRefusals:
    """Each ParseError the readers raise for a malformed file, word for word,
    read through load_matrix from a file with no extension."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("%%MatrixMarket matrix array real\n1 1\n1\n", "malformed header: '%%MatrixMarket matrix array real'"),
            ("%%MatrixMarket tensor array real general\n1 1\n1\n", "unsupported object 'tensor'"),
            ("%%MatrixMarket matrix vector real general\n1 1\n1\n", "unsupported format 'vector'"),
            ("%%MatrixMarket matrix array integer general\n1 1\n1\n", "unsupported field 'integer'"),
            ("%%MatrixMarket matrix array real symmetric\n1 1\n1\n", "unsupported symmetry 'symmetric'"),
            (MTX_ARRAY + "a b\n1\n", "bad size line"),
            (MTX_ARRAY + "2\n", "bad size line"),
            (MTX_ARRAY + "0 0\n", "bad dimensions 0 x 0"),
            (MTX_COORDINATE + "2 2 -1\n", "bad size line 2 2 -1"),
            (MTX_COORDINATE + "2 2 2\n1 1 1\n", "expected 6 entry tokens, got 3"),
            ("[1]", 'JSON matrix needs keys "n" and "entries"'),
            # with no banner a file is JSON, whatever it holds
            ("1 1\n2", "invalid JSON: Extra data: line 1 column 3 (char 2)"),
            ("", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
            ("%MatrixMarket matrix array real general\n1 1\n1\n", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        ],
        ids=[
            "four-header-tokens", "object", "format", "field", "symmetry", "size-not-int", "size-one-token",
            "zero-dimensions", "negative-nnz", "too-few-entries", "json-list", "headerless-mtx", "empty",
            "one-percent-banner",
        ],
    )
    def test_message(self, tmp_path, text, message):
        path = tmp_path / "matrix"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_matrix(str(path))
        assert str(exc.value) == message

    def test_banner_of_any_case_reads_as_matrix_market(self, tmp_path):
        path = tmp_path / "matrix"
        path.write_text("%%matrixmarket MATRIX Array REAL General\n1 1\n5\n", encoding="utf-8")
        assert load_matrix(str(path))[0, 0] == 5

    def test_missing_banner(self):
        with pytest.raises(ParseError) as exc:
            parse_mtx("")
        assert str(exc.value) == "missing %%MatrixMarket header"


def mtx_text(a, newline="\n"):
    """The Matrix Market array file perfbench writes: repr floats, column-major."""
    n = a.shape[0]
    body = newline.join(f"{z.real!r} {z.imag!r}" for z in a.T.ravel().tolist())
    return newline.join(["%%MatrixMarket matrix array complex general", f"{n} {n}", body, ""])


def json_text(a):
    """The dense JSON file perfbench writes: repr floats, row-major pairs."""
    body = ",".join(f"[{z.real!r},{z.imag!r}]" for z in a.ravel().tolist())
    return f'{{"n": {a.shape[0]}, "entries": [{body}]}}\n'


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


EDGE_TOKENS = (
    "1_0", "١٢", "nan", "inf", "-inf", "1e400", "1e-400", "0x10", "1d5", "1__0", "_1",
    "+.5", "5.", ".", "1e", "Infinity", "NaN", "１.５", "½", "1,5", "0b1", "1j", "-0.0",
    "5e-324", "1.7976931348623157e308", "1.7976931348623159e308", "١.٥", "--1",
)


def float_reference(token):
    """What the scalar parser made of one data token: its value, or None."""
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def scalar_mtx(text):
    """Reference reading of a Matrix Market file with a valid header and
    token count: one int() or float() per token, one entry at a time."""
    lines = text.splitlines()
    fmt, field = (tok.lower() for tok in lines[0].split()[2:4])
    tokens = [t for line in lines[1:] if not line.strip().startswith("%") for t in line.split()]
    width = 2 if field == "complex" else 1

    def num(pos):
        try:
            value = float(tokens[pos])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ParseError(f"bad numeric token at position {pos}")
        return value

    def index(pos, message):
        try:
            return int(tokens[pos])
        except ValueError:
            raise ParseError(message) from None

    head = 2 if fmt == "array" else 3
    sizes = [index(k, "bad size line") for k in range(head)]
    rows, cols = sizes[:2]
    count = rows * cols * width if fmt == "array" else sizes[2] * (2 + width)
    if rows != cols:
        raise NonSquare(f"matrix is {rows} x {cols}")
    a = np.zeros((rows, cols), dtype=complex)
    if fmt == "array":
        for k, pos in enumerate(range(head, head + count, width)):
            a[k % rows, k // rows] = complex(num(pos), num(pos + 1) if width == 2 else 0.0)
        return a
    with np.errstate(over="ignore", invalid="ignore"):  # checked after the last entry
        for pos in range(head, head + count, 2 + width):
            i = index(pos, f"bad numeric token at position {pos}")
            j = index(pos + 1, f"bad numeric token at position {pos + 1}")
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise ParseError(f"coordinate ({i}, {j}) out of range")
            a[i - 1, j - 1] += complex(num(pos + 2), num(pos + 3) if width == 2 else 0.0)
    if not np.isfinite(a).all():
        raise ParseError("duplicate coordinate entries sum to a non-finite value")
    return a


def outcome(parse, text):
    try:
        a = parse(text)
    except (ParseError, NonSquare) as exc:
        return type(exc).__name__, str(exc)
    return a.tobytes()


def scalar_json(text):
    """Reference reading of a JSON matrix with valid "n" and entry count:
    one type check and one float() per value, one entry at a time."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    n = obj["n"]
    a = np.zeros((n, n), dtype=complex)
    for idx, pair in enumerate(obj["entries"]):
        if not (type(pair) is list and len(pair) == 2 and all(type(v) in (int, float) for v in pair)):
            raise ParseError(f"entry {idx} is not an [re, im] pair: {pair!r}")
        values = []
        for v in pair:
            try:
                x = float(v)
            except OverflowError:
                raise ParseError(f"entry {idx} is out of float range") from None
            if not math.isfinite(x):
                raise ParseError(f"non-finite value {x!r} in matrix data")
            values.append(x)
        a[idx // n, idx % n] = complex(*values)
    return a


# raw number texts that JSON reads its own way (-0 is the int 0), or rejects
JSON_NUMBER_TEXTS = ("-0", "1E+2", "-1e-2", "+1", ".5", "5.", "01", "1_0", "NaN", "Infinity", "-Infinity")


@st.composite
def json_files(draw):
    """A JSON matrix with a valid "n" and entry count, whitespace around
    every token, the two keys in either order and perhaps an extra key."""
    n = draw(st.integers(1, 3))
    ws = st.text(" \t\n\r", max_size=2)

    def tokens(*parts):
        return "".join(draw(ws) + part for part in parts) + draw(ws)

    def array(items):
        return tokens("[", ",".join(tokens(item) for item in items), "]")

    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-(2**70), 2**70).map(str),
        st.sampled_from(["-0", "1E+2", "-1e-2", "0", "-0.0", str(10**308)]),
    )
    value = st.one_of(
        st.floats().map(json.dumps),
        number,
        st.sampled_from([10**400, -(10**400), True, False, None, "1", 0, -0.0]).map(json.dumps),
        st.sampled_from(JSON_NUMBER_TEXTS),
    )
    pair = st.lists(number, min_size=2, max_size=2).map(array)
    if draw(st.booleans()):  # entries with faults, else every entry a pair of JSON numbers
        pair = st.one_of(
            pair,
            st.lists(value, min_size=2, max_size=2).map(array),
            st.lists(value, min_size=0, max_size=3).map(array),
            value,
            st.sampled_from(["[[1, 0], [0, 1]]", "[[1, 0]]", '"[1, 0]"', '{"re": 1, "im": 0}']),
        )
    entries = array(draw(st.lists(pair, min_size=n * n, max_size=n * n)))
    keys = [tokens('"n"', ":", str(n)), tokens('"entries"', ":") + entries]
    if draw(st.booleans()):
        keys.reverse()
    if draw(st.booleans()):
        keys.insert(draw(st.integers(0, 2)), tokens('"note"', ":") + draw(value))
    return tokens("{", ",".join(keys), "}")


@st.composite
def mtx_files(draw):
    fmt = draw(st.sampled_from(["array", "coordinate"]))
    field = draw(st.sampled_from(["real", "complex"]))
    width = 2 if field == "complex" else 1
    n = draw(st.integers(1, 3))
    cols = n + draw(st.sampled_from([0, 0, 0, 1]))
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(EDGE_TOKENS + ("1.0", "1e308", "-1e308")),
    )
    index = st.one_of(st.integers(0, n + 1).map(str), st.sampled_from(["١", "+1", "1.0", "x"]))
    if fmt == "array":
        tokens = [str(n), str(cols)] + draw(st.lists(number, min_size=n * cols * width, max_size=n * cols * width))
    else:
        nnz = draw(st.integers(0, 5))
        tokens = [str(n), str(cols), str(nnz)]
        for _ in range(nnz):
            tokens += [draw(index), draw(index)] + [draw(number) for _ in range(width)]
    parts = [f"%%MatrixMarket matrix {fmt} {field} general", draw(st.sampled_from(["\n", "\r\n"]))]
    for tok in tokens:
        parts.append(tok)
        parts.append(draw(st.sampled_from(["\n", " ", "\t", "\r\n", "\n% note\n", "\n  %\r\n"])))
    return "".join(parts)


class TestParserParity:
    @pytest.fixture
    def edge_matrix(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a[0, 0] = complex(-0.0, 0.0)
        a[1, 2] = complex(5e-324, -5e-324)
        a[2, 1] = complex(1e308, -1e308)
        a[3, 3] = complex(-2.2250738585072014e-308, -0.0)
        a[4, 5] = complex(1.7976931348623157e308, 4.9e-322)
        return a

    @settings(max_examples=300, deadline=None)
    @given(mtx_files())
    @example("%%MatrixMarket matrix coordinate real general\n2\n2\n2\n2\n2\n1e308\n2\n2\n1e308\n")
    def test_matches_scalar_reading(self, text):
        assert outcome(parse_mtx, text) == outcome(scalar_mtx, text)

    @settings(max_examples=300, deadline=None)
    @given(json_files())
    def test_json_matches_scalar_reading(self, text):
        assert outcome(parse_json_matrix, text) == outcome(scalar_json, text)

    def test_repr_round_trip_is_bit_exact(self, edge_matrix):
        assert same_bits(parse_mtx(mtx_text(edge_matrix)), edge_matrix)
        assert same_bits(parse_json_matrix(json_text(edge_matrix)), edge_matrix)

    def test_random_round_trip_both_formats(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 5, 33):
            scale = 2.0 ** rng.integers(-1000, 1000, size=(n, n))
            a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * scale
            for parsed in (parse_mtx(mtx_text(a)), parse_json_matrix(json_text(a))):
                assert same_bits(parsed, a)
                assert parsed.flags.c_contiguous and not parsed.flags.writeable

    @pytest.mark.parametrize("token", EDGE_TOKENS)
    def test_data_token_accepted_iff_float_accepts_it(self, token):
        ref = float_reference(token)
        for text in (
            f"%%MatrixMarket matrix array complex general\n1 1\n{token} 2\n",
            f"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 2 {token}\n",
        ):
            if ref is None:
                with pytest.raises(ParseError, match="bad numeric token at position"):
                    parse_mtx(text)
            else:
                a = parse_mtx(text)
                # a coordinate entry is added onto +0, as the scalar parser did
                value, expected = (a[0, 0].real, ref) if "array" in text else (a[0, 0].imag, 0.0 + ref)
                assert math.copysign(1.0, value) == math.copysign(1.0, expected)
                assert value == expected

    @pytest.mark.parametrize(
        "token", ["1", "+1", "01", "1_0", "١٢", "٣", "１", "1.0", "1e0", "0x1", "²", "-1", "0", "13"]
    )
    def test_index_token_accepted_iff_int_accepts_it(self, token):
        text = f"%%MatrixMarket matrix coordinate real general\n12 12 1\n{token} 1 5\n"
        try:
            row = int(token)
        except ValueError:
            with pytest.raises(ParseError, match="bad numeric token at position 3"):
                parse_mtx(text)
            return
        if not 1 <= row <= 12:
            with pytest.raises(ParseError, match=rf"coordinate \({row}, 1\) out of range"):
                parse_mtx(text)
            return
        a = parse_mtx(text)
        assert a[row - 1, 0] == 5 and np.count_nonzero(a) == 1

    def test_crlf_line_endings(self, edge_matrix):
        assert same_bits(parse_mtx(mtx_text(edge_matrix, "\r\n")), edge_matrix)
        assert same_bits(parse_mtx(mtx_text(edge_matrix, "\r")), edge_matrix)
        text = "%%MatrixMarket matrix coordinate real general\r\n2 2 1\r\n2 1 7\r\n"
        assert parse_mtx(text)[1, 0] == 7

    def test_comment_lines_in_the_middle_of_data(self):
        text = (
            "%%MatrixMarket matrix array real general\r\n% size next\r\n2 2\n1\n"
            "%  mid-data comment\n   % indented comment\n3\n\n2\r\n%\n4\n"
        )
        assert np.array_equal(parse_mtx(text), np.array([[1, 2], [3, 4]], dtype=complex))

    def test_percent_inside_a_data_line_is_a_bad_token(self):
        text = "%%MatrixMarket matrix array real general\n1 1\n5 %not-a-comment\n"
        with pytest.raises(ParseError, match="expected 1 data tokens, got 2"):
            parse_mtx(text)
        text = "%%MatrixMarket matrix array real general\n1 1\n5%\n"
        with pytest.raises(ParseError, match="bad numeric token at position 2"):
            parse_mtx(text)

    def test_mtx_errors_name_the_first_bad_token(self):
        body = ["1", "2", "x", "4", "nan", "6", "7", "8"]
        text = "%%MatrixMarket matrix array complex general\n2 2\n" + "\n".join(body) + "\n"
        with pytest.raises(ParseError, match=r"^bad numeric token at position 4$"):
            parse_mtx(text)
        body[2] = "3"
        text = "%%MatrixMarket matrix array complex general\n2 2\n" + "\n".join(body) + "\n"
        with pytest.raises(ParseError, match=r"^bad numeric token at position 6$"):
            parse_mtx(text)

    def test_coordinate_errors_follow_file_order(self):
        head = "%%MatrixMarket matrix coordinate real general\n3 3 3\n"
        with pytest.raises(ParseError, match=r"^bad numeric token at position 5$"):
            parse_mtx(head + "1 1 inf\n4 1 1\nx 1 1\n")
        with pytest.raises(ParseError, match=r"^coordinate \(4, 1\) out of range$"):
            parse_mtx(head + "1 1 1\n4 1 1\nx 1 1\n")
        with pytest.raises(ParseError, match=r"^bad numeric token at position 7$"):
            parse_mtx(head + "1 1 1\n1 1.0 1\n4 1 1\n")

    def test_coordinate_duplicates_overflowing_is_a_parse_error(self):
        text = "%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 1e308\n1 1 1e308\n"
        with pytest.raises(ParseError, match="non-finite"):
            parse_mtx(text)

    def test_coordinate_size_beyond_memory_is_a_parse_error(self, tmp_path, capsys):
        # 10^12 x 10^12 complex does not fit the address space; a size that
        # does fit but cannot be backed fails the same way, and is not tried
        p = tmp_path / "huge.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n1000000000000 1000000000000 0\n")
        with pytest.raises(ParseError, match=r"^cannot allocate a 1000000000000 x 1000000000000 matrix$"):
            parse_mtx(p.read_text())
        assert cli.main(["bound", str(p)]) == cli.EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "parse error: cannot allocate a 1000000000000 x 1000000000000 matrix\n"

    def test_json_errors_name_the_first_bad_entry(self):
        cases = [
            ('[[1, 0], [true, 0], [1, 0], [1, 0]]', r"^entry 1 is not an \[re, im\] pair: \[True, 0\]$"),
            ('[[1, 0], [1, 0], [1, "2"], [1]]', r"^entry 2 is not an \[re, im\] pair: \[1, '2'\]$"),
            ('[[1, 0], [1, 0], [1, 0], [1, 0, 0]]', r"^entry 3 is not an \[re, im\] pair"),
            ('[[1, 0], [1, NaN], [1, null], [1, 0]]', r"^non-finite value nan in matrix data$"),
            ('[[1, 0], [1, 0], [1e400, 0], [2]]', r"^non-finite value inf in matrix data$"),
            ('[[1, 0], [1, 0], [1, 0], [1, 1' + "0" * 400 + ']]', r"^entry 3 is out of float range$"),
        ]
        for entries, message in cases:
            with pytest.raises(ParseError, match=message):
                parse_json_matrix(f'{{"n": 2, "entries": {entries}}}')

    def test_json_ints_convert_as_float_does(self):
        big = [2**53 + 1, -(2**64) - 1, 10**300 + 7, 0]
        text = json.dumps({"n": 2, "entries": [[v, -v] for v in big]})
        expected = np.array([complex(float(v), float(-v)) for v in big]).reshape(2, 2)
        assert same_bits(parse_json_matrix(text), expected)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(mtx_files(), json_files()), st.sampled_from([1, 2, 7, 40]))
    def test_chunk_boundaries_do_not_change_the_outcome(self, text, chunk):
        parse, scalar = (parse_mtx, scalar_mtx) if text.startswith("%%") else (parse_json_matrix, scalar_json)
        with mock.patch.object(matrixio, "_CHUNK", chunk):
            assert outcome(parse, text) == outcome(scalar, text)

    @pytest.mark.parametrize("chunk", [1, 2, 7, 40])
    @pytest.mark.parametrize(
        "body",
        [
            # n = 2 bodies of eight values: near-pairs the chunked reader must
            # refuse (the first two pass every check but the separator and
            # end ones), then valid layouts with blanks
            "[1,]2,[3,4],[5,6],[7,8]",
            "1[,2],[3,4],[5,6],[7,8]",
            "[1,2,3],[4],[5,6],[7,8]",
            "[[1,2]],[3,4],[5,6],[7,8]",
            '["x,y],[z",2],[3,4],[5,6],[7,8]',
            "[1,2] [3,4],[5,6],[7,8]",
            "[1,2],,[3,4],[5,6],[7,8]",
            "[1,true],[3,4],[5,6],[7,8]",
            '["\ud800",2],[3,4],[5,6],[7,8]',
            " [ 1 , 2 ] , [ 3 , 4 ] , [5,6],[7,8] ",
            "\t[\t1,\t2\t],\n[3,\r\n4]\t,[5 ,6] ,[7, -8e0]\n",
            "[1, 2], [3, 4], [5, 6], [7, 8]",
        ],
    )
    def test_json_pair_shape_is_read_as_the_scalar_reading_reads_it(self, body, chunk):
        text = f'{{"n": 2, "entries": [{body}]}}'
        with mock.patch.object(matrixio, "_CHUNK", chunk):
            assert outcome(parse_json_matrix, text) == outcome(scalar_json, text)

    @pytest.mark.parametrize("chunk", [1, 7, matrixio._CHUNK])
    def test_valid_json_layouts_take_the_chunked_path(self, chunk):
        # a valid file sent to the whole-tree reader is read right but slowly
        rng = np.random.default_rng(8)
        a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        texts = [json_text(a), json.dumps({"n": 40, "entries": [[z.real, z.imag] for z in a.ravel().tolist()]})]
        for name in sorted(os.listdir(GOLDEN_INPUTS)):
            if name.endswith(".json"):
                with open(os.path.join(GOLDEN_INPUTS, name), encoding="utf-8") as fh:
                    texts.append(fh.read())
        with mock.patch.object(matrixio, "_CHUNK", chunk):
            for text in texts:
                fast = matrixio._chunked_json(text)
                assert fast is not None and same_bits(fast, scalar_json(text))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("fault", [None, "real", "bad token", "nan", "missing", "extra"])
    def test_mtx_larger_than_a_chunk(self, newline, fault):
        n = 120  # about nine chunks of data
        rng = np.random.default_rng(5)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        field = "complex"
        if fault == "real":
            a, field = a.real.astype(complex), "real"
        lines = [f"{z.real!r} {z.imag!r}" if field == "complex" else repr(z.real) for z in a.T.ravel().tolist()]
        if fault == "bad token":
            lines[-1] = "1.0 x"  # in the last chunk
        elif fault == "nan":
            lines[len(lines) // 2] = "nan 0"
        elif fault == "missing":
            lines[-1] = "1.0"
        elif fault == "extra":
            lines.append("0")
        for k in range(len(lines) - 1, 0, -997):
            lines.insert(k, "  % mid-data comment")
        text = newline.join([f"%%MatrixMarket matrix array {field} general", "% size next", f"{n} {n}", *lines, ""])
        if fault in ("missing", "extra"):
            got = 2 * n * n + (1 if fault == "extra" else -1)
            with pytest.raises(ParseError, match=rf"^expected {2 * n * n} data tokens, got {got}$"):
                parse_mtx(text)
            return
        assert outcome(parse_mtx, text) == outcome(scalar_mtx, text)
        if fault in (None, "real"):
            assert same_bits(parse_mtx(text), a)

    @pytest.mark.parametrize(
        "fault", [None, "spaced", "-0", "bool", "short pair", "nested", "inf", "big int", "missing", "trailing comma"]
    )
    def test_json_larger_than_a_chunk(self, fault):
        n = 100  # about six chunks of entries
        rng = np.random.default_rng(6)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pairs = [f"[{z.real!r},{z.imag!r}]" for z in a.ravel().tolist()]
        sep = ","
        if fault == "spaced":
            pairs, sep = [f"[ {z.real!r} ,\t{z.imag!r} ]" for z in a.ravel().tolist()], " ,\r\n "
        elif fault == "-0":
            pairs[-1] = "[-0, -0.0]"
            a[-1, -1] = complex(0.0, -0.0)
        elif fault == "bool":
            pairs[-1] = "[true, 0]"  # in the last chunk
        elif fault == "short pair":
            pairs[len(pairs) // 2] = "[1]"
        elif fault == "nested":
            pairs[-1] = "[[1, 0]]"
        elif fault == "inf":
            pairs[len(pairs) // 2] = "[1e400, 0]"
        elif fault == "big int":
            pairs[-1] = "[1" + "0" * 400 + ", 0]"
        elif fault == "missing":
            del pairs[-1]
        body = sep.join(pairs) + ("," if fault == "trailing comma" else "")
        text = f'{{"n": {n}, "entries": [{body}]}}\n'
        if fault == "missing":
            with pytest.raises(ParseError, match=rf'^"entries" must hold {n * n} \[re, im\] pairs$'):
                parse_json_matrix(text)
            return
        assert outcome(parse_json_matrix, text) == outcome(scalar_json, text)
        if fault in (None, "spaced", "-0"):
            assert same_bits(parse_json_matrix(text), a)

    @pytest.mark.parametrize("fmt", ["mtx", "mtx-real", "json"])
    def test_peak_memory_is_the_text_and_a_few_copies_of_the_matrix(self, tmp_path, fmt):
        n = 256
        rng = np.random.default_rng(7)
        if fmt == "mtx-real":
            a = rng.standard_normal((n, n)).astype(complex)
            body = "\n".join(repr(x) for x in a.real.T.ravel().tolist())
            text = "\n".join(["%%MatrixMarket matrix array real general", f"{n} {n}", body, ""])
        else:
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            text = mtx_text(a) if fmt == "mtx" else json_text(a)
        path = tmp_path / f"m.{fmt.split('-')[0]}"
        path.write_text(text)
        parse = parse_json_matrix if fmt == "json" else parse_mtx
        peaks = []
        for read in (lambda: load_matrix(str(path)), lambda: parse(text)):
            tracemalloc.start()
            try:
                parsed = read()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert same_bits(parsed, a)
        if fmt == "json":
            assert peaks[0] <= len(text) + 4 * 16 * n * n
        else:  # the file's bytes, the value array and the matrix, and no decoded text
            assert peaks[0] <= len(text) + (16 if fmt == "mtx" else 8) * n * n + 16 * n * n
        # the value array and the frozen matrix, plus the transpose of
        # complex array data; real data is converted and transposed at once
        assert peaks[1] <= (3 if fmt == "mtx" else 2) * 16 * n * n

    @pytest.mark.parametrize("case", ["bad last token", "size on two lines"])
    def test_array_peak_memory_is_the_same_for_faults_and_other_layouts(self, case):
        # at n = 120 one chunk's token lists would outweigh the matrix
        n = 256
        rng = np.random.default_rng(7)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        text = mtx_text(a)
        if case == "bad last token":
            text = text[: text.rstrip().rfind(" ")] + " x\n"
        else:
            text = text.replace(f"\n{n} {n}\n", f"\n{n}\n{n}\n", 1)
        tracemalloc.start()
        try:
            if case == "bad last token":
                with pytest.raises(ParseError, match=rf"^bad numeric token at position {2 * n * n + 1}$"):
                    parse_mtx(text)
            else:
                parsed = parse_mtx(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if case == "size on two lines":
            assert same_bits(parsed, a)
        assert peak <= 3 * 16 * n * n

    @pytest.mark.parametrize(
        "text",
        ['{"n": 1, "entries": [[' + "7" * 5000 + ", 0]]}", "[" * 100_000],
        ids=["int-of-5000-digits", "100000-nested-brackets"],
    )
    def test_json_the_decoder_cannot_take_is_a_parse_error(self, tmp_path, capsys, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        assert cli.main(["bound", str(path)]) == cli.EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("parse error: invalid JSON: ") and err.count("\n") == 1 and err.endswith("\n")


def text_mode_outcome(path):
    """What load_matrix made of a file when it read it in text mode and
    handed the text to the str parsers: `outcome` of that, or of the
    decode error."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        return "ParseError", f"cannot read {path!r}: {exc}"
    return outcome(parse_mtx if text[:14].lower() == "%%matrixmarket" else parse_json_matrix, text)


def write_and_compare(directory, data):
    """(load_matrix's outcome, the text-mode outcome) for `data`, str or
    bytes, written to a file in `directory`."""
    path = os.path.join(directory, "matrix")
    with open(path, "wb") as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)
    return outcome(load_matrix, path), text_mode_outcome(path)


@st.composite
def plain_array_files(draw):
    """An ASCII Matrix Market `array` file in the layout the byte reader
    takes, perhaps with one fault it must hand to the str parser."""
    field = draw(st.sampled_from(["real", "complex"]))
    n = draw(st.integers(1, 4))
    value = st.floats(allow_nan=False, allow_infinity=False, width=64)
    spelled = st.sampled_from([repr, "{:.17g}".format, "{:.25e}".format, "{:.12g}".format, "{:+.3E}".format])
    count = n * n * (2 if field == "complex" else 1)
    tokens = [fmt(x) for fmt, x in zip(draw(st.lists(spelled, min_size=count, max_size=count)),
                                        draw(st.lists(value, min_size=count, max_size=count)))]
    if draw(st.booleans()):
        fault = draw(st.sampled_from(["1_0", "0x10", "1-2", "1e400", "nan", "%", "1\x1c2", "\x00", "٣", "1 2"]))
        tokens.insert(draw(st.integers(0, len(tokens))), fault)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    head = [f"%%MatrixMarket matrix array {field} general"]
    head += draw(st.lists(st.sampled_from(["% comment", "  %", "", " \t"]), max_size=2))
    head.append(f"{n} {n}")
    body = "".join(tok + draw(st.sampled_from([" ", "\t", "\n", "\n\n", "\r\n", " \n  ", "\v", "\f"])) for tok in tokens)
    return newline.join(head) + newline + body + draw(st.sampled_from(["", "\n", "\n\n \n"]))


class TestByteReader:
    """load_matrix reads ASCII `array` data from the file's bytes; every
    file must give what the str parsers gave the text mode read of it: the
    same matrix bits, or the same exception and message."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("byte-reader"))

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(plain_array_files(), mtx_files(), json_files()), chunk=st.sampled_from([1, 2, 7, 40]))
    def test_reads_as_the_text_parsers_do(self, workdir, data, chunk):
        with mock.patch.object(matrixio, "_CHUNK", chunk):
            got, expected = write_and_compare(workdir, data)
        assert got == expected

    @pytest.mark.parametrize("chunk", [1, 7, matrixio._CHUNK])
    @pytest.mark.parametrize(
        "data",
        [
            # blank chunks, which np.fromstring reads as [-1.0], and trailing blank lines
            MTX_ARRAY + "2 2\n1 2\n\n\n\n\n3 4\n",
            MTX_ARRAY + "2 2\n1 2\n\n\n3\n",
            MTX_ARRAY + "2 2\n1 2 3 4\n\n\n  \n\t\n",
            MTX_ARRAY + "2 2\n1 2 3\n\n\n  \n",
            MTX_ARRAY + "% made by hand\n%\n   % indented\n\n2 2\n1 2 3 4\n",
            MTX_ARRAY + "% made by hand\r2 2\n1 1\n5\n",
            MTX_ARRAY + "% made by hand\x1e2 2\n1 1\n5\n",
            MTX_ARRAY + "2 2\n1 2\n% note\n3 4\n",
            MTX_ARRAY + "2 2\n1 2 3 4%\n",
            MTX_ARRAY + "2 2\n1 2 3 1_0\n",
            MTX_ARRAY + "2 2\n1 2 3 ١٢\n",
            MTX_ARRAY + "2 2\n1 2 3\x1c4\n",
            MTX_ARRAY + "2 2\n1 2\x1f3 4\n",
            MTX_ARRAY + "2 2\n1 2 3 1-2\n",
            MTX_ARRAY + "2 2\n1 2 3 0x1\n",
            MTX_ARRAY + "2 2\n1 2 3 4\x00\n",
            MTX_ARRAY + "2 2\n1\v2\f3\t4",
            MTX_ARRAY.replace("\n", "\r\n") + "2 2\r\n1 2\r\n3 4\r\n",
            MTX_ARRAY.replace("\n", "\r") + "2 2\r1 2\r3 4\r",
            MTX_ARRAY.replace("\n", "\r\r\n") + "2 2\r\n1 2 3 4\r\n",
            MTX_ARRAY + "2 2\n1 2 3 1.8e308\n",
            MTX_ARRAY + "2 2\n1 2 3 nan\n",
            MTX_ARRAY + "100000 100000\n1\n",
            MTX_ARRAY + "2 3\n1 2 3 4 5 6\n",
            MTX_ARRAY + "2 2\n1 2 3\n",
            MTX_ARRAY + "2 2\n1 2 3 4 5\n",
            MTX_ARRAY + "2\n2\n1 2 3 4\n",
            MTX_ARRAY + "2 2 1 2 3 4\n",
            MTX_ARRAY + "2 2",
            MTX_ARRAY + "2 x\n1 2 3 4\n",
            "%%MatrixMarket matrix array complex general\n1 1\n-0.0 5e-324\n",
            "%%MatrixMarket matrix array complex general\n2 2\n1 2 3 4 5 6 7\n",
            "%%MatrixMarket matrix array real general \n1 1\n7\n",
            "%%MatrixMarket matrix array real general\x1c\n1 1\n7\n",
            "%%MatrixMarket matrix array real\n1 1\n7\n",
            b"%%MatrixMarket matrix array real general\n1 1\n\xff\n",
            b"%%MatrixMarket matrix array real general\n% \xff\n1 1\n7\n",
            b"%%MatrixMarket matrix array real general\n1 1\n7 \xe2\x82",
            b'{"n": 1, "entries": [[1, 0]]}\r\n\xff',
        ],
    )
    def test_edge_cases(self, tmp_path, data, chunk):
        with mock.patch.object(matrixio, "_CHUNK", chunk):
            got, expected = write_and_compare(str(tmp_path), data)
        assert got == expected

    @pytest.mark.parametrize("name", sorted(os.listdir(GOLDEN_INPUTS)))
    def test_every_golden_input(self, name):
        path = os.path.join(GOLDEN_INPUTS, name)
        assert outcome(load_matrix, path) == text_mode_outcome(path)

    def test_a_huge_declared_size_allocates_nothing(self, tmp_path):
        path = tmp_path / "huge.mtx"
        path.write_text("%%MatrixMarket matrix array complex general\n4000 4000\n1 2\n")
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=r"^expected 32000000 data tokens, got 2$"):
                load_matrix(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_numpy_1_unmatched_data_warning_is_a_refusal(self, tmp_path, monkeypatch):
        # numpy 1.x warns on unmatched data and returns the values before
        # it, where numpy 2 raises; here the four values before the fifth,
        # bad token would fill the 2 x 2 matrix
        def numpy_1_fromstring(chunk, dtype, sep):
            good = []
            for tok in chunk.split():
                try:
                    good.append(float(tok))
                except ValueError:
                    warnings.warn("string or file could not be read to its end due to unmatched data; "
                                  "this will raise a ValueError in the future.", DeprecationWarning, stacklevel=2)
                    break
            return np.array(good)

        monkeypatch.setattr(matrixio.np, "fromstring", numpy_1_fromstring)
        path = tmp_path / "m.mtx"
        path.write_text(MTX_ARRAY + "2 2\n1 2 3 4 x\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # numpy 1.x's default shows it, no more
            with pytest.raises(ParseError, match=r"^expected 4 data tokens, got 5$"):
                load_matrix(str(path))

    def test_plain_array_files_skip_the_str_parser(self, tmp_path, monkeypatch):
        # the byte reader is the speed of every benchmark mtx op; a change
        # that quietly sends these files back to the str parser fails here
        path = tmp_path / "workload.mtx"
        script = (
            "import sys; import numpy as np; sys.path[:0] = sys.argv[1:3]; import workloads; "
            "rng = np.random.default_rng(4); "
            "workloads.write_mtx(sys.argv[3], rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))"
        )
        root = os.path.dirname(SRC)
        subprocess.run(
            [sys.executable, "-c", script, os.path.join(root, "perfbench"), SRC, str(path)],
            check=True, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        )
        commented = tmp_path / "commented.mtx"
        commented.write_bytes(b"%%MatrixMarket matrix array real general\r\n% by hand\r\n\r\n2 2\r\n1 2\r\n3 4\r\n")
        paths = [str(path), os.path.join(GOLDEN_INPUTS, "prescribed_n8.mtx"), str(commented)]
        expected = [text_mode_outcome(p) for p in paths]

        def refuse(text):
            raise AssertionError("read by the str parser")

        monkeypatch.setattr(matrixio, "parse_mtx", refuse)
        assert [outcome(load_matrix, p) for p in paths] == expected


class TestCanonicalJson:
    def test_floats_round_trip(self):
        for x in (1 / 3, 0.1, -2.5e-300, 7.0, math.pi):
            assert float(fmt_float(x)) == x

    def test_deterministic_bytes(self):
        obj = {"a": 1.5, "b": [1, 2.25, None, True], "c": {"d": "x\"y"}}
        assert canonical_json(obj) == canonical_json(obj)

    def test_parses_as_json(self):
        obj = {"a": 1 / 3, "b": [0.1, -0.0], "s": 'quote"backslash\\'}
        parsed = json.loads(canonical_json(obj))
        assert parsed["a"] == 1 / 3
        assert parsed["s"] == 'quote"backslash\\'

    def test_equal_keys_of_other_types_keep_their_own_text(self):
        for key in (1, True, 1.0, None, -0.0):
            assert canonical_json({key: 0}) == '{\n  "%s": 0\n}\n' % key

    def test_subclasses_print_as_their_base(self):
        level = enum.IntEnum("Level", {"LOW": 1})
        obj = {"f": np.float64(0.1), "i": level.LOW, "b": True, "n": None}
        assert canonical_json(obj) == '{\n  "f": 0.10000000000000001,\n  "i": 1,\n  "b": true,\n  "n": null\n}\n'

    @pytest.mark.parametrize("bad", [1j, {1, 2}, np.int64(3)], ids=["complex", "set", "np.int64"])
    @pytest.mark.parametrize("where", ["top", "list", "dict"])
    def test_unsupported_types_raise(self, bad, where):
        obj = {"top": bad, "list": [0.5, bad], "dict": {"k": {"inner": bad}}}[where]
        with pytest.raises(TypeError, match="cannot serialize"):
            canonical_json(obj)


class TestAnalyze:
    def test_diag13_report(self, tmp_path, capsys):
        path = diag13_file(tmp_path)
        rc = cli.main(["analyze", path])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "spectral-ellipse/1"
        assert report["n"] == 2
        assert report["gamma"] == {"re": 2, "im": 0}
        assert report["containment"]["verdict"] == "Contained"
        foci = sorted(f["re"] for f in report["ellipse"]["foci"])
        assert abs(foci[0] - 1) < 1e-9 and abs(foci[1] - 3) < 1e-9
        assert abs(report["bounds"]["trace_only_lower"] - 3) < 1e-12
        eigs = report["eigenvalues"]
        assert eigs == sorted(eigs, key=lambda e: (e["re"], e["im"]))

    def test_one_by_one_reports_note(self, tmp_path, capsys):
        path = write_json_matrix(tmp_path / "one.json", [[5, 0]], 1)
        rc = cli.main(["analyze", path])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ellipse"] is None
        assert report["containment"] is None
        assert report["note"] == "dimension < 2"
        assert report["bounds"]["trace_only_lower"] is None
        assert report["bounds"]["observed_spectral_radius"] == 5

    def test_extremal_family_matrix(self, tmp_path, capsys):
        # the repeated eigenvalue -1 is recovered only to the multiple-root
        # noise level (~1e-10 here): the hull is a sliver triangle whose
        # short-edge margin is ~0, or [-1, 2] (margin 1 - sqrt(3)/2) where
        # the noise leaves the three exactly collinear; containment holds
        # either way
        a = generate(EnsembleSpec("RemarkExtremal", 3, 99))
        entries = [[v.real, v.imag] for v in np.asarray(a).ravel()]
        path = write_json_matrix(tmp_path / "remark.json", entries, 3)
        rc = cli.main(["analyze", path])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["containment"]["verdict"] == "Contained"
        margin = report["containment"]["min_margin"]
        assert -1e-8 <= margin <= (1 - math.sqrt(3) / 2) + 1e-3
        assert abs(report["ellipse"]["semimajor"] - math.sqrt(3) / 2) < 1e-4
        # the exact reference spectrum reproduces the idealized margin
        from spectral_ellipse.ellipse import ellipse_from_normalized, normalize_mu
        from spectral_ellipse.hull import contains_ellipse, convex_hull

        ideal = contains_ellipse(
            convex_hull((-1, -1, 2)), ellipse_from_normalized(normalize_mu((-1, -1, 2))), 1e-11
        )
        assert abs(ideal.min_margin - (1 - math.sqrt(3) / 2)) < 1e-12

    @pytest.mark.parametrize("imag", (0.0, 1.0), ids=("real_skew", "skew_hermitian"))
    def test_skew_matrices_are_contained(self, tmp_path, capsys, imag):
        # the spectrum lies on the imaginary axis, where rounding in the real
        # parts decides the hull's sort order; no end may be dropped for it
        rng = np.random.default_rng(7)
        for n in (2, 3, 4, 5, 8):
            for k in range(4):
                g = rng.standard_normal((n, n)) + imag * 1j * rng.standard_normal((n, n))
                entries = [[v.real, v.imag] for v in (g - g.conj().T).ravel()]
                path = write_json_matrix(tmp_path / f"skew{n}_{k}.json", entries, n)
                assert cli.main(["analyze", path]) == 0
                report = json.loads(capsys.readouterr().out)
                assert report["containment"]["verdict"] == "Contained", (n, k)

    def test_byte_identical_runs(self, tmp_path):
        path = diag13_file(tmp_path)
        first = run_cli(["analyze", path])
        second = run_cli(["analyze", path])
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert len(first.stdout) > 100

    def test_json_and_svg_outputs(self, tmp_path, capsys):
        path = diag13_file(tmp_path)
        out_json = tmp_path / "report.json"
        out_svg = tmp_path / "plot.svg"
        rc = cli.main(["analyze", path, "--json", str(out_json), "--svg", str(out_svg)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert out_json.read_text() == stdout
        svg = out_svg.read_text()
        assert svg.startswith('<?xml version="1.0"')
        assert svg.count("<circle") >= 2  # spectrum dots
        assert svg.count("<path") == 1  # the ellipse
        assert svg.count("<line") >= 4  # foci crosses (and segment hull)
        assert 'width="800"' in svg and 'height="800"' in svg

    def test_svg_deterministic(self, tmp_path):
        a = generate(EnsembleSpec("Ginibre", 5, 3))
        entries = [[v.real, v.imag] for v in np.asarray(a).ravel()]
        path = write_json_matrix(tmp_path / "g.json", entries, 5)
        svg1 = tmp_path / "a.svg"
        svg2 = tmp_path / "b.svg"
        assert cli.main(["analyze", path, "--svg", str(svg1)]) == 0
        assert cli.main(["analyze", path, "--svg", str(svg2)]) == 0
        assert svg1.read_text() == svg2.read_text()
        assert "<polygon" in svg1.read_text()


class TestExitCodes:
    def test_parse_error_is_1(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        assert cli.main(["analyze", str(p)]) == 1

    def test_missing_file_is_1(self, tmp_path):
        assert cli.main(["analyze", str(tmp_path / "missing.json")]) == 1

    @pytest.mark.parametrize("command", ["analyze", "bound"])
    @pytest.mark.parametrize("name", ["utf16.json", "ff.mtx"])
    def test_a_file_that_is_not_utf8_is_1(self, tmp_path, command, name):
        # files are read as UTF-8; an undecodable one is a parse error, in a
        # fresh process so that a traceback would reach stderr
        data = {
            "utf16.json": '{"n": 1, "entries": [[1, 0]]}'.encode("utf-16"),
            "ff.mtx": b"%%MatrixMarket matrix array real general\n1 1\n\xff\n",
        }[name]
        (tmp_path / name).write_bytes(data)
        proc = run_cli([command, str(tmp_path / name)])
        assert proc.returncode == cli.EXIT_PARSE
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"parse error: cannot read {str(tmp_path / name)!r}: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_non_square_is_2(self, tmp_path):
        p = tmp_path / "rect.mtx"
        p.write_text("%%MatrixMarket matrix array real general\n2 3\n1\n2\n3\n4\n5\n6\n")
        assert cli.main(["analyze", str(p)]) == 2

    def test_non_convergence_is_3(self, tmp_path, monkeypatch):
        path = diag13_file(tmp_path)

        def explode(a):
            raise NonConvergence("stuck", (1.0,))

        monkeypatch.setattr(cli.sp, "eigenvalues", explode)
        assert cli.main(["analyze", path]) == 3

    def test_ellipse_overflow_is_5(self, tmp_path, monkeypatch, capsys):
        # finite eigenvalues whose squares leave the float range
        path = diag13_file(tmp_path)
        huge = cli.sp.Spectrum((-(2.0**600) + 0j, 2.0**600 + 0j), 0.0, 0.0)
        monkeypatch.setattr(cli.sp, "eigenvalues", lambda a: huge)
        assert cli.main(["analyze", path]) == cli.EXIT_OVERFLOW
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("numeric overflow: ") and err.count("\n") == 1

    def test_other_overflow_errors_are_not_exit_codes(self, tmp_path, monkeypatch):
        # only NonFinite reports a quantity beyond the float range
        path = diag13_file(tmp_path)

        def explode(a):
            raise OverflowError("not a float range error")

        monkeypatch.setattr(cli.sp, "eigenvalues", explode)
        with pytest.raises(OverflowError):
            cli.main(["analyze", path])

    def test_moment_mismatch_is_4(self, tmp_path, monkeypatch):
        # golden-ratio matrix has tiny but nonzero residuals; a limit of 0 rejects
        path = write_json_matrix(tmp_path / "g.json", [[0, 0], [1, 0], [1, 0], [1, 0]], 2)
        monkeypatch.setattr(cli.sp, "moment_tol", lambda a: 0.0)
        assert cli.main(["analyze", path]) == 4

    @pytest.mark.parametrize("cls", list(cli.FAILURES), ids=lambda cls: cls.__name__)
    def test_failure_table(self, tmp_path, monkeypatch, capsys, cls):
        code, prefix = cli.FAILURES[cls]
        extra = {NonConvergence: ((1.0,),), cli.MomentMismatch: (1.0, 1.0, 0.0)}
        exc = cls("injected fault", *extra.get(cls, ()))

        def fail(path):
            raise exc

        monkeypatch.setattr(cli, "load_matrix", fail)
        assert cli.main(["bound", diag13_file(tmp_path)]) == code
        out, err = capsys.readouterr()
        assert out == "" and err == f"{prefix}: {exc}\n"
        assert f"{code} {cls.__name__}" in " ".join(cli.__doc__.split())

    @pytest.mark.parametrize(
        "args",
        [
            ["analyze", "{path}", "--json", "nodir/x.json"],
            ["analyze", "{path}", "--svg", "nodir/x.svg"],
            ["bound", "{path}", "--json", "nodir/x.json"],
            ["verify", "--ensemble", "Ginibre", "-n", "3", "--csv", "nodir/x.csv"],
        ],
        ids=["analyze-json", "analyze-svg", "bound-json", "verify-csv"],
    )
    def test_unwritable_output_is_6_in_a_fresh_process(self, tmp_path, args):
        path = diag13_file(tmp_path)
        proc = run_cli([arg.format(path=path) for arg in args], cwd=tmp_path)
        assert proc.returncode == cli.EXIT_OUTPUT
        assert proc.stderr.startswith("cannot write: ") and proc.stderr.count("\n") == 1
        assert "nodir/x." in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "nodir").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{path}", "--json", ""],
            ["analyze", "{path}", "--svg", ""],
            ["bound", "{path}", "--json", ""],
            ["verify", "--ensemble", "Ginibre", "-n", "3", "--csv", ""],
        ],
        ids=["analyze-json", "analyze-svg", "bound-json", "verify-csv"],
    )
    def test_an_empty_output_path_is_6_before_the_input_is_read(self, tmp_path, monkeypatch, capsys, argv):
        def untouched(*args, **kwargs):
            raise AssertionError("the input was read before the output path was checked")

        monkeypatch.setattr(cli, "load_matrix", untouched)
        monkeypatch.setattr(cli, "run_trial", untouched)
        monkeypatch.chdir(tmp_path)
        assert cli.main([arg.format(path=diag13_file(tmp_path)) for arg in argv]) == cli.EXIT_OUTPUT
        out, err = capsys.readouterr()
        assert out == "" and err == "cannot write: an empty path names no file\n"
        assert os.listdir(tmp_path) == ["diag13.json"]

    @pytest.mark.parametrize(
        "command, code, args",
        [
            ("analyze", cli.EXIT_PARSE, ["{bad}"]),
            ("analyze", cli.EXIT_NONSQUARE, ["{rect}"]),
            ("analyze", cli.EXIT_NONCONVERGENCE, ["{good}"]),
            ("analyze", cli.EXIT_MOMENT, ["{good}"]),
            ("analyze", cli.EXIT_OVERFLOW, ["{big}"]),
            ("analyze", cli.EXIT_OUTPUT, ["{good}", "--json", "{nodir}/x.json"]),
            ("analyze", cli.EXIT_OUTPUT, ["{good}", "--svg", "{nodir}/x.svg"]),
            ("bound", cli.EXIT_PARSE, ["{bad}"]),
            ("bound", cli.EXIT_NONSQUARE, ["{rect}"]),
            ("bound", cli.EXIT_OVERFLOW, ["{big}"]),
            ("bound", cli.EXIT_OUTPUT, ["{good}", "--json", "{nodir}/x.json"]),
        ],
        ids=[
            "analyze-1", "analyze-2", "analyze-3", "analyze-4", "analyze-5", "analyze-6-json", "analyze-6-svg",
            "bound-1", "bound-2", "bound-5", "bound-6-json",
        ],
    )
    def test_a_failed_exit_prints_no_report(self, tmp_path, monkeypatch, capsys, command, code, args):
        # the report reaches stdout only after every output file is saved, so
        # a caller that reads stdout on a nonzero exit finds nothing there
        (tmp_path / "bad.json").write_text("{broken")
        (tmp_path / "rect.mtx").write_text("%%MatrixMarket matrix array real general\n2 3\n1\n2\n3\n4\n5\n6\n")
        big = 2.0**1000
        paths = {
            "bad": str(tmp_path / "bad.json"),
            "rect": str(tmp_path / "rect.mtx"),
            # the golden-ratio matrix: tiny but nonzero moment residuals
            "good": write_json_matrix(tmp_path / "g.json", [[0, 0], [1, 0], [1, 0], [1, 0]], 2),
            "big": write_json_matrix(tmp_path / "big.json", [[big, 0], [2 * big, 0], [3 * big, 0], [-big, 0]], 2),
            "nodir": str(tmp_path / "nodir"),
        }
        if code == cli.EXIT_NONCONVERGENCE:

            def explode(a):
                raise NonConvergence("stuck", (1.0,))

            monkeypatch.setattr(cli.sp, "eigenvalues", explode)
        if code == cli.EXIT_MOMENT:
            monkeypatch.setattr(cli.sp, "moment_tol", lambda a: 0.0)
        assert cli.main([command] + [arg.format(**paths) for arg in args]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1 and "Traceback" not in err

    def test_an_unwritable_svg_leaves_no_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = os.path.join(GOLDEN_INPUTS, "n2.json")
        assert cli.main(["analyze", path, "--json", "ok.json", "--svg", "nodir/x.svg"]) == cli.EXIT_OUTPUT
        out, err = capsys.readouterr()
        assert out == "" and err == "cannot write: nodir/x.svg: nodir is not a writable directory\n"
        assert os.listdir(tmp_path) == []

    def test_a_directory_as_output_leaves_no_json(self, tmp_path):
        (tmp_path / "adir").mkdir()
        path = os.path.join(GOLDEN_INPUTS, "n2.json")
        proc = run_cli(["analyze", path, "--json", "ok.json", "--svg", "adir"], cwd=tmp_path)
        assert proc.returncode == cli.EXIT_OUTPUT
        assert proc.stdout == "" and proc.stderr == "cannot write: adir is a directory\n"
        assert sorted(os.listdir(tmp_path)) == ["adir"] and os.listdir(tmp_path / "adir") == []

    def test_a_read_only_file_as_output_leaves_no_json(self, tmp_path, monkeypatch, capsys):
        # root may write a 0o444 file, so the check's own os.access call is
        # what reports it read-only here
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ro.svg").write_text("kept")
        access = os.access
        monkeypatch.setattr(os, "access", lambda p, mode: p != "ro.svg" and access(p, mode))
        path = os.path.join(GOLDEN_INPUTS, "n2.json")
        assert cli.main(["analyze", path, "--json", "ok.json", "--svg", "ro.svg"]) == cli.EXIT_OUTPUT
        out, err = capsys.readouterr()
        assert out == "" and err == "cannot write: ro.svg is a file that cannot be written\n"
        assert os.listdir(tmp_path) == ["ro.svg"] and (tmp_path / "ro.svg").read_text() == "kept"

    @pytest.mark.parametrize("command", ["analyze", "bound"])
    def test_overflow_is_5(self, tmp_path, capsys, command):
        # entries near 2^1000 square past the float range in tr(A^2)
        big = 2.0**1000
        path = write_json_matrix(tmp_path / "big.json", [[big, 0], [2 * big, 0], [3 * big, 0], [-big, 0]], 2)
        assert cli.main([command, path]) == cli.EXIT_OVERFLOW
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numeric overflow: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, exponent, entries",
        [
            # tr(A^2) overflows
            pytest.param("analyze", 1000, [[1, 0], [2, 0], [3, 0], [-1, 0]], id="1000-entries0-analyze"),
            pytest.param("bound", 1000, [[1, 0], [2, 0], [3, 0], [-1, 0]], id="1000-entries0-bound"),
            # q_total = 2^2047 overflows; bound reports no q_total
            pytest.param("analyze", 1023, [[1, 0], [0, 0], [0, 0], [1, 0]], id="1023-entries1-analyze"),
        ],
    )
    def test_overflow_stderr_is_one_line_in_a_fresh_process(self, tmp_path, command, exponent, entries):
        # pytest captures numpy's RuntimeWarnings, so only a separate
        # interpreter shows whether they reach stderr
        scaled = [[re * 2.0**exponent, im] for re, im in entries]
        path = write_json_matrix(tmp_path / "big.json", scaled, 2)
        proc = run_cli([command, path])
        assert proc.returncode == cli.EXIT_OVERFLOW
        assert proc.stdout == ""
        assert proc.stderr.startswith("numeric overflow: ") and proc.stderr.count("\n") == 1

    def test_bound_of_the_largest_scalar_matrix(self, tmp_path, capsys):
        # 2^1023 I: tr A overflows, but at unit scale nothing does, and every
        # reported value is in the float range
        big = 2.0**1023
        path = write_json_matrix(tmp_path / "big.json", [[big, 0], [0, 0], [0, 0], [big, 0]], 2)
        assert cli.main(["bound", path]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        gamma = {"re": big, "im": 0.0}
        assert report["gamma"] == gamma and report["foci"] == [gamma, gamma]
        assert report["q_traceless"] == {"re": 0, "im": 0}
        assert report["trace_only_lower"] == big

    def test_overflow_in_verify_is_5(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "generate", lambda spec: 2.0**1000 * generate(spec))
        assert cli.main(["verify", "--ensemble", "Ginibre", "-n", "3", "--trials", "2"]) == cli.EXIT_OVERFLOW
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numeric overflow: ") and err.count("\n") == 1


class TestVerify:
    def test_contained_campaign(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        rc = cli.main(
            ["verify", "--ensemble", "Ginibre", "-n", "4", "--trials", "5",
             "--seed", "42", "--csv", str(csv_path)]
        )
        assert rc == 0
        summary = capsys.readouterr().out
        assert "5/5 contained" in summary
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "seed,n,q_abs,a,b,min_margin,sweep_min,verdict"
        assert len(lines) == 6
        assert all(line.endswith("Contained") for line in lines[1:])

    def test_csv_byte_identical(self, tmp_path):
        args = ["verify", "--ensemble", "PrescribedSpectrum", "-n", "3",
                "--trials", "4", "--seed", "7", "--csv"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        r1 = run_cli(args + [str(p1)])
        r2 = run_cli(args + [str(p2)])
        assert r1.returncode == 0 and r2.returncode == 0
        assert p1.read_text() == p2.read_text()

    def test_moment_mismatch_rows_recorded_and_skipped(self, tmp_path, capsys, monkeypatch):
        csv_path = tmp_path / "mm.csv"
        monkeypatch.setattr(cli.sp, "moment_tol", lambda a: 0.0)
        rc = cli.main(
            ["verify", "--ensemble", "Ginibre", "-n", "4", "--trials", "3",
             "--seed", "1", "--csv", str(csv_path)]
        )
        # no Violated rows, so still exit 0
        assert rc == 0
        summary = capsys.readouterr().out
        assert "3 moment-mismatch skipped" in summary
        rows = csv_path.read_text().splitlines()[1:]
        assert all(row.endswith("MomentMismatch") for row in rows)
        assert all(row.split(",")[2] == "" for row in rows)

    def test_fat_ellipse_over_a_segment_hull_is_violated_and_exits_7(self, tmp_path, capsys, monkeypatch):
        # the second trial's containment is certified against the segment
        # hull [-1, 1] and its ellipse is a circle of radius 1/2: inside the
        # segment's ends, off its line; the sweep reads neither
        args = ["verify", "--ensemble", "Ginibre", "-n", "4", "--trials", "3", "--seed", "1", "--csv"]
        assert cli.main(args + [str(tmp_path / "clean.csv")]) == 0
        clean = (tmp_path / "clean.csv").read_text().splitlines()
        capsys.readouterr()

        contains_ellipse, ellipse_from_normalized = cli.hl.contains_ellipse, cli.el.ellipse_from_normalized
        hulls, shapes = [], []

        def segment_on_second_trial(verts, e, slack):
            hulls.append(1)
            return contains_ellipse((-1 + 0j, 1 + 0j) if len(hulls) == 2 else verts, e, slack)

        def circle_on_second_trial(ns):
            shapes.append(1)
            if len(shapes) == 2:
                return cli.el.SpectralEllipse(semimajor=0.5, semiminor=0.5, major_dir=1 + 0j, foci=(0j, 0j))
            return ellipse_from_normalized(ns)

        monkeypatch.setattr(cli.hl, "contains_ellipse", segment_on_second_trial)
        monkeypatch.setattr(cli.el, "ellipse_from_normalized", circle_on_second_trial)
        assert cli.main(args + [str(tmp_path / "fat.csv")]) == cli.EXIT_VIOLATED
        assert capsys.readouterr().out.startswith("2/3 contained, ")
        rows = (tmp_path / "fat.csv").read_text().splitlines()
        assert rows[2].endswith(",Violated")
        assert rows[:2] + rows[3:] == clean[:2] + clean[3:]

    def test_non_convergence_rows_recorded_and_skipped(self, tmp_path, capsys, monkeypatch):
        args = ["verify", "--ensemble", "Ginibre", "-n", "4", "--trials", "3", "--seed", "42", "--csv"]
        assert cli.main(args + [str(tmp_path / "clean.csv")]) == 0
        clean = (tmp_path / "clean.csv").read_text().splitlines()
        capsys.readouterr()

        real_find_roots = cli.sp.find_roots
        calls = []

        def second_call_stalls(*a, **k):
            calls.append(1)
            if len(calls) == 2:
                raise NonConvergence("stuck", (1.0,))
            return real_find_roots(*a, **k)

        monkeypatch.setattr(cli.sp, "find_roots", second_call_stalls)
        assert cli.main(args + [str(tmp_path / "stalled.csv")]) == 0
        summary = capsys.readouterr().out
        assert summary.startswith("2/2 contained, 0 moment-mismatch skipped, 1 non-convergence skipped,")
        rows = (tmp_path / "stalled.csv").read_text().splitlines()
        assert rows[2] == f"{clean[2].split(',')[0]},4,,,,,,NonConvergence"
        assert rows[:2] + rows[3:] == clean[:2] + clean[3:]

    @pytest.mark.parametrize("n", [2, 3])
    def test_qzero_below_four_is_a_point(self, n, tmp_path, capsys):
        # QZero at n < 4 is the zero matrix, whose spectrum is exact: a
        # point hull and a point ellipse on it
        csv_path = tmp_path / "q.csv"
        args = ["verify", "--ensemble", "QZero", "-n", str(n), "--trials", "4", "--csv", str(csv_path)]
        assert cli.main(args) == 0
        capsys.readouterr()
        rows = [row.split(",") for row in csv_path.read_text().splitlines()[1:]]
        assert len(rows) == 4
        assert all(row[1:] == [str(n), "0", "0", "0", "0", "0", "Contained"] for row in rows)

    def test_csv_to_stdout_without_path(self, capsys):
        rc = cli.main(["verify", "--ensemble", "Nilpotent", "-n", "3", "--trials", "2", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("seed,n,q_abs")

    def test_extremal_family_campaign(self):
        # all contained at n = 16; the repeated eigenvalue is only resolvable
        # to the multiple-root noise radius there, so the flat reference
        # shape (b = 0) is asserted at a dimension the pipeline can resolve
        records = cli.run_verify("RemarkExtremal", 16, 5, 3)
        assert all(r.verdict == "Contained" for r in records)
        records4 = cli.run_verify("RemarkExtremal", 4, 5, 3)
        assert all(r.verdict == "Contained" for r in records4)
        assert all(r.semiminor <= 1e-3 for r in records4)

    def test_nilpotent_campaign_near_point_ellipses(self):
        records = cli.run_verify("Nilpotent", 6, 10, 1)
        assert all(r.verdict == "Contained" for r in records)
        assert all(r.semimajor <= 1e-2 for r in records)

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("kind", KINDS)
    def test_trial_below_dimension_two_is_refused(self, kind, n):
        with pytest.raises(DimensionTooSmall, match=f"^a trial needs n >= 2, got {n}$"):
            cli.run_trial(kind, n, 7)
        with pytest.raises(DimensionTooSmall):
            cli.run_verify(kind, n, 2, 7)

    def test_trial_seeds_derived_from_counter(self, tmp_path):
        from spectral_ellipse.ensembles import counter_value

        records = cli.run_verify("Ginibre", 3, 3, 11)
        assert [r.seed for r in records] == [counter_value(11, t) for t in range(3)]

    def test_violated_row_forces_nonzero_exit(self, tmp_path, monkeypatch):
        violated = cli.TrialRecord(1, 2, 0.0, 1.0, 0.0, -0.5, -0.5, "Violated")

        monkeypatch.setattr(cli, "run_trial", lambda *a, **k: violated)
        csv_path = tmp_path / "v.csv"
        rc = cli.main(
            ["verify", "--ensemble", "Ginibre", "-n", "2", "--trials", "2",
             "--csv", str(csv_path)]
        )
        # not EXIT_PARSE: a false verdict and a parse error are told apart
        assert rc == cli.EXIT_VIOLATED == 7
        assert "Violated" in csv_path.read_text()

    @pytest.mark.parametrize("folder", ["nodir", "afile"])
    def test_unwritable_csv_fails_before_the_first_trial(self, tmp_path, monkeypatch, capsys, folder):
        (tmp_path / "afile").write_text("")

        def trial(*args, **kwargs):
            raise AssertionError("run_trial called before the CSV directory was checked")

        monkeypatch.setattr(cli, "run_trial", trial)
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["verify", "--ensemble", "Ginibre", "-n", "3", "--csv", f"{folder}/x.csv"])
        assert rc == cli.EXIT_OUTPUT == 6
        out, err = capsys.readouterr()
        assert out == "" and err == f"cannot write: {folder}/x.csv: {folder} is not a writable directory\n"

    def test_csv_in_the_working_directory(self, tmp_path, monkeypatch, capsys):
        # a bare file name has no directory part; it goes to the working one
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify", "--ensemble", "Ginibre", "-n", "3", "--trials", "2", "--csv", "x.csv"]) == 0
        assert len((tmp_path / "x.csv").read_text().splitlines()) == 3


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--ensemble", "Ginibre", "-n", "1"],
            ["tightness", "1"],
        ],
        ids=["verify-n", "tightness"],
    )
    def test_bad_value_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "must be >=" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["analyze", "{path}", "--tol", "0"], "--tol 0"),
            (["analyze", "{path}", "--slack", "0"], "--slack 0"),
            (["verify", "--ensemble", "Ginibre", "-n", "3", "--sweep-k", "720"], "--sweep-k 720"),
            (["analyze", "{path}", "--format", "json"], "--format json"),
            (["bound", "{path}", "--format", "mtx"], "--format mtx"),
        ],
        ids=["analyze-tol", "analyze-slack", "verify-sweep-k", "analyze-format", "bound-format"],
    )
    def test_tuning_flags_are_not_accepted(self, tmp_path, capsys, argv, flag):
        path = diag13_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main([arg.format(path=path) for arg in argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: spectral-ellipse ")
        assert f"error: unrecognized arguments: {flag}" in err and "Traceback" not in err

    # the id is the command-line name the moment tolerance had before it
    # became the constant sp.DEFAULT_MOMENT_TOL, with no option
    @pytest.mark.parametrize("tol", [0.0], ids=["--tol"])
    def test_zero_scale_setting_is_accepted(self, monkeypatch, tol):
        # with no moment tolerance diag(1, -1, 0) still passes validation and
        # is contained: its traceless part is not zero, so its residuals are
        # compared with the tolerance, and its roots have exact power sums
        limits = []
        monkeypatch.setattr(cli.sp, "moment_tol", lambda a: limits.append(tol) or tol)
        an = cli.analyze(np.diag([1.0, -1.0, 0.0]).astype(complex))
        assert limits == [tol]
        assert an.spectrum.sum_residual == 0.0 and an.spectrum.q_residual == 0.0
        assert an.containment.verdict == "Contained"

    def test_derived_slack_of_the_identity_is_zero(self):
        # the slack is no setting: it is the rounding bound of the spectrum,
        # and the identity's traceless spectrum is exactly 0, with nothing to round
        an = cli.analyze(np.eye(2, dtype=complex))
        assert cli.hl.containment_slack(an.spectrum.values) == 0.0
        assert an.containment.verdict == "Contained"

    def test_pipeline_settings_hold_no_value(self):
        # the class is only the argument perfbench passes to run_trial, which
        # ignores it: it has no value to set, and passing it changes nothing
        settings = cli.PipelineSettings()
        assert [name for name in vars(cli.PipelineSettings) if not name.startswith("__")] == []
        with pytest.raises(AttributeError):
            settings.moment_tol = 0.0
        for kind, n, seed in (("Ginibre", 4, 5), ("Nilpotent", 3, 2)):
            assert cli.run_trial(kind, n, seed, settings) == cli.run_trial(kind, n, seed)


PARSER_REUSE_ARGVS = [
    ["analyze", os.path.join(GOLDEN_INPUTS, "n2.json")],
    ["bound", os.path.join(GOLDEN_INPUTS, "n2.json")],
    ["tightness", "2"],
    ["verify", "--ensemble", "Ginibre", "-n", "1"],
    ["verify", "--ensemble", "Ginibre", "-n", "3", "--trials", "2"],
    ["--help"],
    ["analyze", os.path.join(GOLDEN_INPUTS, "n2.json")],
]

# counts the ArgumentParsers a process builds, by prog, from before the
# package is imported
PARSER_SPY = """
import argparse, contextlib, io, sys
built = []
init = argparse.ArgumentParser.__init__
def spy(self, *args, **kwargs):
    init(self, *args, **kwargs)
    built.append(self.prog)
argparse.ArgumentParser.__init__ = spy
from spectral_ellipse import cli
print(len(built))
for argv in ([], ["tightness", "3"], ["bound", sys.argv[1]], ["analyze", sys.argv[1]], ["tightness", "0"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
    print(len(built), built.count("spectral-ellipse"))
"""


class TestParserReuse:
    """`cli.main` builds its parser once per process; every later call parses
    on it and must act as the first call of a fresh process would."""

    def test_calls_in_one_process_match_fresh_processes(self, monkeypatch, capsys):
        # the help text wraps at the terminal width, which COLUMNS fixes in both
        monkeypatch.setenv("COLUMNS", "80")
        for argv in PARSER_REUSE_ARGVS:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            fresh = run_cli(argv)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert cli._build_parser() is cli._build_parser()

    def test_one_parser_per_process_and_none_on_import(self):
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        path = os.path.join(GOLDEN_INPUTS, "n2.json")
        proc = subprocess.run(
            [sys.executable, "-c", PARSER_SPY, path], capture_output=True, text=True, env=env, check=True
        )
        lines = proc.stdout.splitlines()
        assert lines[0] == "0"
        # the first call builds the parser and its four subcommand parsers;
        # the usage errors, help and good calls after it build nothing
        counts = {tuple(map(int, line.split())) for line in lines[1:]}
        assert counts == {(5, 1)}


def readme_usage_flags():
    """{subcommand: flags} as written in README.md's `## Command line` block."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    flags = {}
    for line in block.splitlines():
        words = line.split()
        if words[0] == "spectral-ellipse":
            command = words[1]
            flags[command] = set()
        flags[command].update(re.findall(r"(?<![\w-])--?[a-z][\w-]*", line))
    return flags


def readme_exit_codes():
    """The `N` labels of README.md's "Exit codes:" paragraph."""
    with open(README, encoding="utf-8") as fh:
        paragraph = fh.read().split("Exit codes:", 1)[1].split("\n\n", 1)[0]
    return {int(code) for code in re.findall(r"`(\d+)`", paragraph)}


class TestReadmeUsage:
    def test_readme_names_exactly_the_exit_codes(self):
        codes = {cli.EXIT_OK, cli.EXIT_VIOLATED} | {code for code, _ in cli.FAILURES.values()}
        assert readme_exit_codes() == codes

    def test_readme_names_exactly_the_parser_flags(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        written = readme_usage_flags()
        assert set(written) == set(sub.choices)
        for command, subparser in sub.choices.items():
            flags = {s for action in subparser._actions for s in action.option_strings}
            assert written[command] == flags - {"-h", "--help"}, command


class TestTightness:
    def test_table_values(self, capsys):
        rc = cli.main(["tightness", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["n", "sqrt_Q", "semimajor_a", "hull", "left_margin"]
        row2 = lines[1].split()
        assert row2[0] == "2" and float(row2[1]) == math.sqrt(2) and float(row2[2]) == 1
        row3 = lines[2].split()
        assert abs(float(row3[1]) - math.sqrt(6)) < 1e-15
        assert abs(float(row3[2]) - math.sqrt(3) / 2) < 1e-15
        row10 = lines[9].split()
        assert abs(float(row10[2]) - math.sqrt(10 / 18)) < 1e-15

    def test_long_table_is_written_as_it_is_computed(self):
        # 100,000 rows are 9.6 MB of text and would take about 100 MB as
        # dicts; written row by row, the peak stays near one line
        tracemalloc.start()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                assert cli.main(["tightness", "100000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestBound:
    def test_diag13(self, tmp_path, capsys):
        path = diag13_file(tmp_path)
        rc = cli.main(["bound", path])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trace_only_lower"] == 3
        foci = sorted(f["re"] for f in report["foci"])
        assert foci == [1, 3]

    def test_identity4(self, tmp_path, capsys):
        entries = [[1.0 if i == j else 0.0, 0.0] for i in range(4) for j in range(4)]
        path = write_json_matrix(tmp_path / "eye.json", entries, 4)
        rc = cli.main(["bound", path])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trace_only_lower"] == 1
        assert report["q_traceless"] == {"re": 0, "im": 0}

    def test_nilpotent(self, tmp_path, capsys):
        path = write_json_matrix(tmp_path / "nil.json", [[0, 0], [1, 0], [0, 0], [0, 0]], 2)
        rc = cli.main(["bound", path])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trace_only_lower"] == 0

    def test_one_by_one(self, tmp_path, capsys):
        path = write_json_matrix(tmp_path / "one.json", [[5, 0]], 1)
        rc = cli.main(["bound", path])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trace_only_lower"] is None
        assert report["note"] == "dimension < 2"


def shifted_file(tmp_path, gamma):
    """[[gamma + 1, 0.5], [0.25, gamma - 1]]: Q(A0) = 2.25, foci gamma +- 1.0607."""
    entries = [[gamma + 1, 0], [0.5, 0], [0.25, 0], [gamma - 1, 0]]
    return write_json_matrix(tmp_path / f"shifted_{gamma:g}.json", entries, 2)


def farther_focus(report):
    return max(abs(complex(f["re"], f["im"])) for f in report["foci"])


class TestTraceOnlyLower:
    """`bound` and `analyze` report the modulus of the farther of the foci
    gamma +- sqrt(Q(A0))/(sqrt(2)(n-1)), bit for bit, however large gamma is."""

    @pytest.mark.parametrize(
        "gamma, foci", [(1e8, [100000001.06066017, 99999998.93933983]), (1e12, [1000000000001.0607, 999999999998.9393])]
    )
    def test_large_gamma(self, tmp_path, capsys, gamma, foci):
        assert cli.main(["bound", shifted_file(tmp_path, gamma)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [f["re"] for f in report["foci"]] == foci
        assert report["trace_only_lower"] == foci[0] == farther_focus(report)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.lists(st.floats(-1, 1), min_size=2 * n * n, max_size=2 * n * n)
        ),
        st.complex_numbers(min_magnitude=1e4, max_magnitude=1e14, allow_nan=False, allow_infinity=False),
    )
    def test_is_the_farther_focus_under_a_large_shift(self, parts, gamma):
        n = math.isqrt(len(parts) // 2)
        a = (np.array(parts[0::2]) + 1j * np.array(parts[1::2])).reshape(n, n) + gamma * np.eye(n)
        report = cli.bound_report(a)
        assert report["trace_only_lower"] == farther_focus(report)

    @pytest.mark.parametrize(
        "k", [530, pytest.param(600, marks=pytest.mark.xfail(reason="a_ii^2 = 2^-2(k+1) underflows at A's unit scale"))]
    )
    def test_large_corner_keeps_the_diagonal(self, k):
        # [[1, 2^k], [0, -1]] has Q(A0) = 2 and foci +-1 whatever the corner
        report = cli.bound_report(np.array([[1, 2.0**k], [0, -1]], dtype=complex))
        assert report["q_traceless"] == {"re": 2.0, "im": 0.0}
        assert [complex(f["re"], f["im"]) for f in report["foci"]] == [1, -1]
        assert report["trace_only_lower"] == 1.0

    @pytest.mark.xfail(reason="gamma = tr A / n is formed at A's unit scale, where the diagonal 2^-1101 underflows")
    def test_large_corner_keeps_gamma(self):
        # 2^-500 I plus a nilpotent corner: Q(A0) = 0, and gamma, both foci
        # and the bound are 2^-500 whatever the corner
        tiny = 2.0**-500
        report = cli.bound_report(np.array([[tiny, 2.0**600], [0, tiny]], dtype=complex))
        assert report["q_traceless"] == {"re": 0.0, "im": 0.0}
        assert report["gamma"] == {"re": tiny, "im": 0.0}
        assert [complex(f["re"], f["im"]) for f in report["foci"]] == [tiny, tiny]
        assert report["trace_only_lower"] == tiny

    @pytest.mark.parametrize("name", sorted(os.listdir(GOLDEN_INPUTS)) + ["shifted"])
    def test_analyze_reports_the_bound_of_bound(self, tmp_path, capsys, name):
        path = shifted_file(tmp_path, 1e8) if name == "shifted" else os.path.join(GOLDEN_INPUTS, name)
        assert cli.main(["bound", path]) == 0
        bound = json.loads(capsys.readouterr().out)
        assert cli.main(["analyze", path]) == 0
        analyzed = json.loads(capsys.readouterr().out)
        assert analyzed["bounds"]["trace_only_lower"] == bound["trace_only_lower"]


def eigenvalues_of(report):
    return [complex(v["re"], v["im"]) for v in report["eigenvalues"]]


class TestTracelessFrame:
    """`analyze` eigensolves the traceless part A0 = A - gamma*I and adds
    gamma back once, in the report: gamma's n-fold cluster never reaches the
    eigensolve, and a large gamma does not swamp the spectrum of A0."""

    @pytest.mark.parametrize("gamma", [1, 3, complex(-2, 5), 1e8], ids=["1", "3", "-2+5j", "1e8"])
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
    def test_scalar_matrix_is_exact(self, tmp_path, capsys, n, gamma):
        gamma = complex(gamma)
        entries = [[gamma.real, gamma.imag] if i % (n + 1) == 0 else [0, 0] for i in range(n * n)]
        assert cli.main(["analyze", write_json_matrix(tmp_path / "scalar.json", entries, n)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert eigenvalues_of(report) == [gamma] * n
        assert report["ellipse"]["semimajor"] == report["ellipse"]["semiminor"] == 0
        assert report["containment"]["verdict"] == "Contained"

    @pytest.mark.parametrize("gamma", [1e8, 1e12])
    def test_large_gamma_keeps_the_traceless_spectrum(self, tmp_path, capsys, gamma):
        # the eigenvalues of [[1, 0.5], [0.25, -1]] are +-sqrt(1.125)
        assert cli.main(["analyze", shifted_file(tmp_path, gamma)]) == 0
        report = json.loads(capsys.readouterr().out)
        ulp = math.ulp(gamma)
        want = (gamma - 1.0606601717798214, gamma + 1.0606601717798214)
        for got, expected in zip(eigenvalues_of(report), want):
            assert abs(got.real - expected) <= 4 * ulp and abs(got.imag) <= 4 * ulp
        bounds = report["bounds"]
        assert bounds["observed_spectral_radius"] >= bounds["trace_only_lower"]

    @pytest.mark.parametrize("gamma", [1, complex(-2, 5)], ids=["1", "-2+5j"])
    def test_traceless_part_below_the_square_root_of_the_underflow_threshold(self, tmp_path, capsys, gamma):
        # A0 at the unit scale of A has parts near 5e-171, whose squares
        # underflow to 0, so its Frobenius norm is 0 there
        gamma = complex(gamma)
        entries = [[gamma.real, gamma.imag], [1e-170, 0], [1e-170, 0], [gamma.real, gamma.imag]]
        assert cli.main(["analyze", write_json_matrix(tmp_path / "near_scalar.json", entries, 2)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        report = json.loads(out)
        # the eigenvalues gamma +- 1e-170 round to gamma
        assert all(abs(v - gamma) <= 1e-170 for v in eigenvalues_of(report))
        assert [v.real for v in eigenvalues_of(report)] == [gamma.real] * 2
        # the ellipse is built at A0's own scale and keeps its size
        assert math.isclose(report["ellipse"]["semimajor"], 1e-170, rel_tol=4 * sys.float_info.epsilon)
        assert report["containment"]["verdict"] == "Contained"


class TestFuzz:
    """Random finite matrices through `analyze` and `bound`: each run ends,
    within a time bound, in a documented exit code, and a nonzero exit is
    one stderr line and no traceback."""

    SECONDS = 20  # per example; an analyze at n <= 6 takes milliseconds

    @staticmethod
    def spread_parts(n):
        # every exponent of the float range, 2^-1074..2^1023, a matrix's
        # parts clustered around one exponent or spread across the range
        def matrix(base, width, offsets, mantissas, signs, zeros):
            return [
                0.0 if zero else sign * math.ldexp(m, min(max(base + round(width * t), -1074), 1023))
                for t, m, sign, zero in zip(offsets, mantissas, signs, zeros)
            ]

        k = 2 * n * n
        return st.builds(
            matrix,
            st.integers(-1074, 1023),
            st.sampled_from((0, 4, 40, 2100)),
            st.lists(st.floats(-1, 1), min_size=k, max_size=k),
            st.lists(st.floats(1, 2, exclude_max=True), min_size=k, max_size=k),
            st.lists(st.sampled_from((1.0, -1.0)), min_size=k, max_size=k),
            st.lists(st.booleans(), min_size=k, max_size=k),
        )

    @staticmethod
    def shifted_parts(n):
        # gamma*I + E with |gamma| up to 1e14 and E's parts at most 2^-s
        def matrix(gamma, s, e):
            return [math.ldexp(x, -s) + (gamma.real if i % (2 * n + 2) == 0 else gamma.imag if i % (2 * n + 2) == 1 else 0.0)
                    for i, x in enumerate(e)]

        k = 2 * n * n
        return st.builds(
            matrix,
            st.complex_numbers(max_magnitude=1e14, allow_nan=False, allow_infinity=False),
            st.integers(0, 1074),
            st.lists(st.floats(-1, 1), min_size=k, max_size=k),
        )

    def run_both(self, tmp_path_factory, n, parts, codes=range(6)):
        path = tmp_path_factory.mktemp("fuzz") / "a.json"
        path.write_text(json.dumps({"n": n, "entries": [parts[i : i + 2] for i in range(0, 2 * n * n, 2)]}))

        def timeout(signum, frame):
            raise TimeoutError(f"no exit within {self.SECONDS} s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(self.SECONDS)
        try:
            for command in ("analyze", "bound"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
                    warnings.simplefilter("error")  # a warning would be a second stderr line
                    rc = cli.main([command, str(path)])
                assert rc in codes
                if rc == cli.EXIT_OK:
                    assert json.loads(out.getvalue())["n"] == n and err.getvalue() == ""
                else:
                    assert out.getvalue() == "" and err.getvalue().count("\n") == 1
                    assert "Traceback" not in err.getvalue()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), TestFuzz.spread_parts(n))))
    def test_parts_across_the_float_range(self, tmp_path_factory, case):
        self.run_both(tmp_path_factory, *case)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), TestFuzz.shifted_parts(n))))
    def test_large_gamma_plus_small_part(self, tmp_path_factory, case):
        # every part and reported value stays below 1e15: no overflow exit
        self.run_both(tmp_path_factory, *case, codes=(0, 3, 4))


class TestReportInvariants:
    def test_bound_never_exceeds_observed(self, tmp_path, capsys):
        for seed in range(10):
            a = generate(EnsembleSpec("Ginibre", 6, seed))
            entries = [[v.real, v.imag] for v in np.asarray(a).ravel()]
            path = write_json_matrix(tmp_path / f"g{seed}.json", entries, 6)
            assert cli.main(["analyze", path]) == 0
            report = json.loads(capsys.readouterr().out)
            lower = report["bounds"]["trace_only_lower"]
            observed = report["bounds"]["observed_spectral_radius"]
            assert lower <= observed + 1e-8 * (1 + observed)

    def test_report_round_trips_losslessly(self, tmp_path, capsys):
        a = generate(EnsembleSpec("Ginibre", 5, 77))
        entries = [[v.real, v.imag] for v in np.asarray(a).ravel()]
        path = write_json_matrix(tmp_path / "g.json", entries, 5)
        assert cli.main(["analyze", path]) == 0
        text = capsys.readouterr().out
        report = json.loads(text)
        assert canonical_json(report) == text
