"""The one-pass text and feature-file readers against their row-loop oracles.

Random files mix blank and whitespace-only rows, CRLF and CR line ends,
padded fields, short and long rows, nan and inf, and literals that float()
accepts and the compiled pass refuses (``1_0``). A valid file must give
bit-identical values and labels; a bad one the same message naming the
same row. Every text reader drops a leading byte-order mark and numbers its
rows alike. The compiled pass itself must give the row loop's values bit
for bit on every field of its grammar, and None on any other.
"""

import contextlib
import io
import shutil
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecgsym.cli import main
from ecgsym.experiment import load_config_file, load_features_csv, parse_grid_file
from ecgsym.records import parse_columns, parse_rows, read_label_sidecar, read_rows, read_text_signal

from oracles import read_feature_rows, read_text_column

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5000, 5000).map(str),
    st.sampled_from(["-0", "+.5", "1e3", "2E-4", "007"]),
)
ODD = st.sampled_from(
    ["1_0", "nan", "inf", "-Infinity", "1e999", "abc", "", "0x10", "\u0661\u0662", "1\x1c", "\x1f2"]
)
PADS = st.sampled_from(["", " ", "\t", "  ", "\x0c", "\xa0"])
BLANKS = st.sampled_from(["", " ", "\t", " \t ", "\x0c", "\u2028"])
ENDS = st.sampled_from(["\n", "\r\n", "\r"])

compiled = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


def rarely(odd, common, one_in: int):
    """``odd`` once in about ``one_in`` draws, else ``common``."""
    return st.integers(1, one_in).flatmap(lambda k: odd if k == 1 else common)


FIELDS = rarely(ODD, NUMBERS, 40)


@st.composite
def rows_of(draw, row):
    """Rows from ``row``, now and then a blank one, each with its line end;
    the last one maybe without."""
    rows = draw(st.lists(rarely(BLANKS, row, 8), max_size=12))
    text = "".join(r + draw(rarely(ENDS, st.just("\n"), 3)) for r in rows)
    return text.rstrip("\r\n") if rows and draw(st.booleans()) else text


def padded(field: str, draw) -> str:
    return draw(rarely(PADS, st.just(""), 4)) + field + draw(rarely(PADS, st.just(""), 4))


@st.composite
def text_rows(draw, delimiter):
    fields = draw(st.lists(FIELDS, min_size=1, max_size=3))
    if delimiter is None:
        seps = [draw(st.sampled_from([" ", "\t", "  ", " \t"])) for _ in fields[1:]]
        return padded(fields[0] + "".join(sep + f for sep, f in zip(seps, fields[1:])), draw)
    return delimiter.join(padded(f, draw) for f in fields)


@st.composite
def text_files(draw):
    delimiter = draw(st.sampled_from([None, None, ",", ";", "\t", " "]))
    text = draw(rows_of(text_rows(delimiter)))
    return text, delimiter, draw(st.integers(0, 2)), draw(st.booleans())


LABELS = st.sampled_from(
    # non-ASCII; three that strip to "a"; NUL-bearing; one wider than a word
    [" c ", "d d", "\x1ce", "", "\xe9", " a", "\xa0a\xa0", "a\x00", "\x00", "0123456789" * 4]
)


@st.composite
def feature_row(draw):
    label = draw(rarely(LABELS, st.sampled_from("ab"), 4))
    count = draw(rarely(st.sampled_from([1, 3]), st.just(2), 15))
    return ",".join([label] + [padded(draw(FIELDS), draw) for _ in range(count)])


@st.composite
def feature_files(draw):
    return draw(rows_of(feature_row())), draw(st.booleans())


def outcome(read, *args):
    try:
        return "ok", read(*args)
    except ValueError as exc:
        return "error", str(exc)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "input.txt"


@settings(max_examples=150)
@given(text_files())
@example(("\n1.5\n2.5\n", None, 0, True))  # skip_header with a blank first row
@example(("1_0\n2\n", None, 0, False))
@example(("1,2\r\n3, 4 \r\n", ",", 1, False))
def test_text_reader_matches_row_loop(path, case):
    text, delimiter, column, skip_header = case
    path.write_text(text, newline="")
    want = outcome(read_text_column, path, column, delimiter, skip_header)
    got = outcome(read_text_signal, path, column, delimiter, skip_header)
    assert got[0] == want[0]
    if want[0] == "ok":
        assert bits(got[1].samples) == bits(want[1])
    else:
        assert got[1] == want[1]


@settings(max_examples=150)
@given(feature_files())
@example(("\na,1,2\nb,3,4\n", True))
@example(("a, 1_0 ,2\n", False))
@example(("a,1,2\r\n\r\n b ,3,4,5\r\n", False))
@example(("a,1,2\nab,3,4\n", False))  # a later label that extends the first
@example(("a,1,2\n\na,3,4\n", False))  # a blank row inside one class
@example(("a,1,2\n a ,3,4\n", False))  # one class whose raw labels differ in whitespace
@example(("a,1,2\na,3,4,5\n", False))  # one class, but row 2 needs 3 fields, got 4
@example(  # interleaved classes, labels that strip alike and a 40-character one
    (
        "".join(
            f"{label},0.7600584176874715,0.5894316109366958\n"
            for label in ["b", "a", " a", "a\x00", "\x00", "0123456789" * 4, "\xa0a\xa0", "b", "\xe9", "a"]
        ),
        False,
    )
)
@example((",1,2\n ,3,4\n", False))  # the only label is empty
@example((" \n c ,0.0,0.0\n", False))  # a whitespace-only row before the first label
@example(("a,1,2\n\t\na,3,4\n  ", False))  # whitespace-only rows inside and after one class
def test_feature_reader_matches_row_loop(path, case):
    text, skip_header = case
    path.write_text(text, newline="")
    want = outcome(read_feature_rows, path, skip_header)
    got = outcome(load_features_csv, path, skip_header)
    assert got[0] == want[0]
    if want[0] == "ok":
        codes, names, points = got[1]
        assert codes.dtype == np.intp
        assert names == tuple(dict.fromkeys(want[1][0]))
        assert [names[code] for code in codes] == want[1][0]
        assert points.shape == (len(want[1][0]), 2)
        assert bits(points) == bits(want[1][1])
    else:
        assert got[1] == want[1]


@compiled
def test_plain_files_take_the_one_pass_parse(path):
    # rows of only spaces and tabs are skipped, as the row loop skips them
    path.write_text("a,0.25,1e-3\n\nb, -1 ,7\n  \n\t\n")
    text, first = read_rows(path)
    np.testing.assert_array_equal(parse_columns(text, (1, 2), ",", 3), [[0.25, 1e-3], [-1.0, 7.0]])
    path.write_text("x\n1.5 2\n \t\n-3 4\n")
    text, first = read_rows(path, skip_header=True)
    assert first == 2
    np.testing.assert_array_equal(parse_columns(text, (1,)), [[2.0], [4.0]])
    # a space or tab delimiter: the row is stripped, then cut on that byte, so
    # a leading or trailing one is dropped and a doubled one is an empty field
    for delimiter in " \t":
        text = " \t1{0}{0}2\t \n{0}3{0}{0}4{0}\n".format(delimiter)
        want = parse_rows(path, text, 1, (0, 2), delimiter, 3)[1]
        np.testing.assert_array_equal(parse_columns(text, (0, 2), delimiter, 3), want)
        np.testing.assert_array_equal(want, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "text, delimiter",
    [
        ("1_0\n", None),  # float() reads it, the pass does not
        ("nan\n", None),
        ("1,\x1c2\n", ","),  # \x1c is a separator to str.split, so the pass refuses every control byte but \t
        ("1 \xa02\n", " "),  # \xa0 is whitespace to str.strip, so a space or tab delimiter refuses non-ASCII
        ("1ab2\n", "ab"),
        ("\n \n", None),
    ],
)
def test_row_loop_cases_skip_the_one_pass_parse(text, delimiter):
    assert parse_columns(text, (0,), delimiter) is None


# --- the compiled pass against the row loop, field by field ------------------------

DIGITS = st.text("0123456789", min_size=1, max_size=30)
EXPONENTS = st.one_of(
    st.just(""), st.tuples(st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), st.integers(0, 400)).map(
        lambda e: f"{e[0]}{e[1]}{e[2]}"
    )
)
# signed zeros, subnormals and underflow, the largest finite values, and
# each side of 2^53 and 10^22 (where a mantissa times or over a power of ten
# would round twice)
EDGES = st.sampled_from(
    [
        "-0", "+.5", "5.", "-0.0e0", "1e-400", "4.9e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
        "2.2250738585072011e-308", "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
        "9007199254740992", "9007199254740993", "90071992547409.93", "9007199254740993e1", "1e22", "1e23",
        "8e-23", "1e-22",
        "123456789012345678901234567890", "0.000000000000000000000000000001", "1000000000000000000",
    ]
)


@st.composite
def decimals(draw):
    """A field of the grammar the pass reads: [+-]?(D+(.D*)?|.D+)([eE][+-]?D+)?"""
    whole, part = draw(DIGITS), draw(DIGITS)
    mantissa = draw(st.sampled_from([whole, whole + ".", f"{whole}.{part}", "." + part]))
    return draw(st.sampled_from(["", "+", "-"])) + mantissa + draw(EXPONENTS)


NUMERALS = st.one_of(decimals(), EDGES)
# fields off the grammar, some of which float() reads
REFUSED = ["1_0", "inf", "-inf", "nan", "Infinity", "0x1p3", "1e999", "-1e999", "\u0661\u0662", "\xa01", "1\xa0",
           "1e", "e5", ".", "+", "1.5.", "1e5.0", "--1"]
COMMA_REFUSED = ["", "1 2"]  # fields only between commas


@st.composite
def tables(draw, refused: bool = False):
    """(text, delimiter, columns, fields) of rows of one field count, read by
    ``,``, by whitespace, by a space or by a tab, with blank rows and padding
    of spaces and tabs; a space or tab delimiter is also leading, doubled and
    trailing. With ``refused``, one read field of one row is a field the pass
    refuses."""
    delimiter = draw(st.sampled_from([",", None, " ", "\t"]))
    count = draw(st.integers(1, 4))
    columns = tuple(draw(st.permutations(range(count)))[: draw(st.integers(1, count))])
    rows = draw(st.lists(rarely(st.none(), st.lists(NUMERALS, min_size=count, max_size=count), 6), max_size=8))
    if refused:
        full = [row for row in rows if row is not None]
        if not full:
            full = [draw(st.lists(NUMERALS, min_size=count, max_size=count))]
            rows.append(full[0])
        # an empty field alone is a blank row, which the pass skips
        comma = [field for field in COMMA_REFUSED if field or count > 1]
        odd = REFUSED + comma if delimiter == "," else REFUSED
        draw(st.sampled_from(full))[draw(st.sampled_from(columns))] = draw(st.sampled_from(odd))
    pad = st.sampled_from(["", "", " ", "\t", " \t "])
    gap = st.sampled_from([" ", "\t", "  ", " \t"])
    lines = []
    for row in rows:
        if row is None:
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t"])))
        elif delimiter == ",":
            lines.append(delimiter.join(draw(pad) + field + draw(pad) for field in row))
        elif delimiter:
            # padding of the other blank; a doubled delimiter is an empty field,
            # which shifts the columns, so it is left out with ``refused``
            other = st.sampled_from(["", "", " \t".replace(delimiter, "")])
            ends = st.sampled_from(["", delimiter, 2 * delimiter, " \t"])
            line = delimiter.join(draw(other) + field + draw(other) for field in row)
            if not refused:
                line = line.replace(delimiter, 2 * delimiter, draw(rarely(st.just(1), st.just(0), 8)))
            lines.append(draw(ends) + line + draw(ends))
        else:
            lines.append(draw(pad) + row[0] + "".join(draw(gap) + field for field in row[1:]) + draw(pad))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    return text, delimiter, columns, draw(st.sampled_from([None, count]))


@compiled
@settings(max_examples=300)
@given(tables())
@example(("-0\n \n1e-400\n4.9e-324\n", None, (0,), None))
@example(("a,+,.5\n", ",", (2,), 3))
@example(("5.,9007199254740993\n\t\n", ",", (0, 1), None))
@example((" \t1  2\t \n\t\n3 \t4 \n", " ", (0, 2), 3))  # leading, doubled and trailing spaces
@example(("\t1\t\t2 \n 3\t 4\t\t\n", "\t", (0,), None))  # leading, doubled and trailing tabs
def test_the_pass_gives_the_row_loop_values_bit_for_bit(table):
    text, delimiter, columns, fields = table
    want = outcome(parse_rows, "p", text, 1, columns, delimiter, fields)
    got = parse_columns(text, columns, delimiter, fields)
    if want[0] == "error" or not len(want[1][1]):
        assert got is None  # a value overflows, or there is no row
    else:
        assert got is not None and bits(got) == bits(want[1][1])


@compiled
@settings(max_examples=150)
@given(tables(refused=True))
def test_a_field_off_the_grammar_gives_none(table):
    text, delimiter, columns, fields = table
    assert parse_columns(text, columns, delimiter, fields) is None


@st.composite
def long_mantissas(draw):
    """m * 10^q with 17 to 19 digits in m, q on both sides of the integer
    route's |q| <= 22, written with its point anywhere; or, just as often,
    the midpoint between the double that m * 10^q rounds to and the next one
    up, rounded to 17 to 19 digits and moved by at most one unit in its last
    digit, so that it falls just below, on or just above the midpoint."""
    n, q = draw(st.integers(17, 19)), draw(st.integers(-25, 25))
    m = draw(st.integers(10 ** (n - 1), 10**n - 1))
    if draw(st.booleans()):
        low = float(f"{m}e{q}")
        with localcontext() as exact:
            exact.prec = 1000
            mid = (Decimal(low) + Decimal(float(np.nextafter(low, np.inf)))) / 2
        mantissa, exponent = f"{mid:.{n - 1}e}".split("e")
        m, q = int(mantissa.replace(".", "")) + draw(st.integers(-1, 1)), int(exponent) - (n - 1)
    digits, point = str(m), draw(st.integers(0, 19))
    if point >= len(digits):
        return f"{digits}e{q}"
    return f"{digits[:point]}.{digits[point:]}e{q + len(digits) - point}"


@compiled
@settings(max_examples=300)
@given(st.lists(long_mantissas(), min_size=1, max_size=20))
@example(["9007199254740993", "9007199254740995", "4503599627370497.5", "4503599627370498.5"])  # ties to even
@example(["18014398509481985e0", "1801439850948198500e-2", "9223372036854775807e-22", "9999999999999999999e22"])
def test_long_mantissas_round_as_float_does(fields):
    got = parse_columns("\n".join(fields), (0,))
    assert got is not None and bits(got[:, 0]) == bits([float(field) for field in fields])


# two full words then a short last one: each offset 0-15 lies in a full word
# of the 20-byte texts and, from 8 on, in the short last word of the 12-byte ones
SWEPT = [
    ("ab,1,2\ncd,3,4\nef,5,6\n", ",", (1, 2)),
    ("a 1\nb 2\nc 3\n", None, (1,)),
    ("a1 1\nb2 2\nc3 3\nd4 4\n", " ", (1,)),
    ("a\t1\nb\t2\nc\t3\n", "\t", (1,)),
]


@compiled
@pytest.mark.parametrize("text, delimiter, columns", SWEPT)
@pytest.mark.parametrize("byte", ["\x00", "\x01", "\x0b", "\x0c", "\r", "\xe9"])
def test_a_control_or_non_ascii_byte_anywhere_gives_none(text, delimiter, columns, byte):
    assert parse_columns(text, columns, delimiter) is not None
    if byte == "\xe9" and delimiter == ",":
        byte = "\x1f"  # a non-ASCII label is read when the split is on a comma
    for offset in range(16):
        assert parse_columns(text[:offset] + byte + text[offset:], columns, delimiter) is None, offset


@compiled
@pytest.mark.parametrize("delimiter", [",", None, " ", "\t"])
def test_a_last_row_without_a_newline_is_read(path, delimiter):
    sep = delimiter or " \t"
    for n in range(1, 12):
        text = "\n".join(f"{i}{sep}{i / 8}" for i in range(n))
        want = [[float(i), i / 8] for i in range(n)]
        assert parse_columns(text, (0, 1), delimiter).tolist() == want
        assert parse_columns(text + "\n", (0, 1), delimiter).tolist() == want
    path.write_text("a,1,2\nb,3,4")
    codes, names, points = load_features_csv(path)
    assert names == ("a", "b") and points.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_rows_are_counted_on_newlines_only(path, capsys):
    # \x0c, \x1c and \u2028 end a row for str.splitlines but not for the file iterator
    path.write_text("1\n2\x0c\n\u2028\nbad\n", newline="")
    with pytest.raises(ValueError, match=r": row 4 column 0 is not a number: 'bad'$"):
        read_text_signal(path)
    path.write_text("a,1,2\x1c\nb,3\n", newline="")
    with pytest.raises(ValueError, match=r": row 2 needs 3 fields, got 2$"):
        load_features_csv(path)
    # the other readers: a bad row 4 after a \r\n, a \r and a \x0c-bearing row
    def write(rows):
        path.write_text("{}\r\n{}\r{}\n{}\n".format(*rows), newline="")

    for read, rows, message in [
        (read_label_sidecar, ["r,0,1,a", "r,1,2,a", "\x0cr,2,3,a\x0c", "r,0"], "row 4 needs 4 fields"),
        (lambda p: load_config_file(p, {"mode", "stride"}), ["mode = forall", "stride = 1", "\x0c# note", "no key"],
         "row 4 is not 'key"),
        (parse_grid_file, ["slope binary", "slope 3", "\x0c# note", "slope x"], "row 4: unknown alphabet"),
    ]:
        write(rows)
        with pytest.raises(ValueError, match=f": {message}"):
            read(path)
    # a symbol file names its path and the row: not a symbol, outside the alphabet, none at all
    for text, message in [
        ("0\r\n1\r\x0c1\x0c\nbad\n", "row 4 is not a symbol: 'bad'"),
        ("0\r\n1\r2\n1\n", "row 3 is outside the alphabet (0, 1): '2'"),
        ("", "no symbols"),
    ]:
        path.write_text(text, newline="")
        assert main(["features", str(path), "--alphabet", "2", "--allow-short"]) == 2
        assert capsys.readouterr().err == f"data error: {path}: {message}\n"


def symbol_features(path):
    """Exit code and stdout of ``ecgsym features`` on a symbol file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["features", str(path), "--alphabet", "2", "--allow-short"])
    return code, out.getvalue()


def as_plain(value):
    """A reader's result with its arrays as lists, so == compares it whole."""
    if isinstance(value, tuple):
        return tuple(map(as_plain, value))
    return value.tolist() if isinstance(value, np.ndarray) else value


@pytest.mark.parametrize(
    "read, text",
    [
        pytest.param(lambda p: read_text_signal(p).samples, "1.5\n-2\n3\n", id="text-signal"),
        pytest.param(load_features_csv, "a,0.1,0.2\nb,0.3,0.4\n", id="feature-file"),
        pytest.param(read_label_sidecar, "rec,0,720,Normal\n# note\n", id="sidecar"),
        pytest.param(parse_grid_file, "slope binary\nthreshold 3 1/12\n", id="grid-file"),
        pytest.param(lambda p: load_config_file(p, {"mode", "stride"}), "mode = exists\nstride = 180\n",
                     id="config-file"),
        pytest.param(symbol_features, "0\n1\n1\n0\n", id="symbol-file"),
    ],
)
def test_a_leading_byte_order_mark_changes_nothing(path, read, text):
    path.write_bytes(text.encode())
    plain = as_plain(read(path))
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert as_plain(read(path)) == plain
