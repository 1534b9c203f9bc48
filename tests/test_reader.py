"""The columnar CSV reader against the row scanner.

``io._read_raw`` parses a regular data file in line-aligned chunks, taken
from the file's own bytes or from its rows as the csv module splits them,
and hands every other file to ``io._read_rows``, the row scanner, which
words the errors.  Both must give the same ``RawData``, bit for bit, or
raise the same error, on any file.
"""

import csv
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltrisk import io as tio
from tiltrisk.errors import DataError


def outcome(reader, path, x_columns):
    """What a reader makes of a file: its arrays as bytes, or its error."""
    try:
        raw = reader(path, x_columns)
    except Exception as exc:   # the row scanner's csv.Error counts as well
        return ("error", type(exc).__name__, str(exc))
    arrays = tuple((a.dtype.str, a.shape, a.tobytes()) for a in (raw.s, raw.y, raw.x))
    return ("data", arrays, raw.columns, raw.masked_y_count)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


# -- generated files ---------------------------------------------------------

PADS = st.sampled_from(["", "", " ", "\t", "  "])
ODD = st.sampled_from([
    "", " ", "#", "#1", "1#", "a", '"', '1"', "1.0", "+1", "01", "2", "-0", "\xa0",
    "nan", "inf", "1e400", "1_0", "١", "１", "0x1p3", "1\x00", "\x00",
])
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e400", "-1e400", "1e-400", "NaN", "-inf", "+2", ".5", "5.",
                     "1_0", "١٢", "１", "-0"]),
)


def cell(values):
    """A cell holding one of ``values``: bare, padded or quoted."""
    bare = st.tuples(PADS, values, PADS).map("".join)
    quoted = values.map(lambda v: '"' + v.replace('"', '""') + '"')
    return st.one_of(bare, bare, quoted)


X_CELLS = cell(NUMBERS)
NOTE_CELLS = cell(st.text(alphabet=',# "ab1\n', max_size=6))


@st.composite
def row(draw, names):
    """A regular data row: s is 0 or 1, y is set on source rows."""
    s = draw(st.sampled_from(["0", "1"]))
    y = cell(NUMBERS) if s == "1" else st.one_of(st.just(""), cell(NUMBERS))
    kinds = {"s": cell(st.just(s)), "y": y, "note": NOTE_CELLS}
    return [draw(kinds.get(name, X_CELLS)) for name in names]


@st.composite
def data_files(draw):
    """A regular file, then up to three defects: an odd cell, a blank or
    whitespace-only line, a short or a long row, a decimal comma."""
    x_columns = [f"x{i}" for i in range(draw(st.integers(1, 3)))]
    names = draw(st.permutations(["s", "y", *x_columns, *draw(st.sampled_from([[], ["note"]]))]))
    rows = draw(st.lists(row(names), max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        defect = draw(st.sampled_from(["cell", "cell", "blank", "spaces", "short", "long",
                                       "decimal comma"]))
        at = draw(st.integers(0, len(rows)))
        if defect == "blank":
            rows.insert(at, [])
        elif defect == "spaces":
            rows.insert(at, [draw(st.sampled_from([" ", "\t", "  "]))])
        elif rows:
            cells = rows[at % len(rows)]
            if defect == "cell" and cells:
                cells[draw(st.integers(0, len(cells) - 1))] = draw(cell(ODD))
            elif defect == "short" and cells:
                del cells[draw(st.integers(0, len(cells) - 1)):]
            elif defect == "long":
                cells.append(draw(X_CELLS))
            elif defect == "decimal comma" and cells:
                i = draw(st.integers(0, len(cells) - 1))
                cells[i] = draw(st.sampled_from(["1,5", "-0,25", " 3,0 ", "1,"]))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join([",".join(names), *(",".join(cells) for cells in rows)])
    return text + draw(st.sampled_from([eol, ""])), tuple(x_columns)


@settings(max_examples=300, deadline=None)
@given(data_files())
def test_columnar_reader_matches_row_scanner(tmp_path_factory, case):
    text, x_columns = case
    path = write(tmp_path_factory.mktemp("reader"), text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(tio._read_raw, path, x_columns) == outcome(tio._read_rows, path, x_columns)


# -- the columnar pass takes regular files -----------------------------------

REGULAR = {
    "plain": "s,y,x0,x1\n1,0,0.5,-1.25\n0,,2.0,3e-5\n1,1,-0.0,7\n",
    "crlf, padded, blank lines": "s,y,x0,x1\r\n 1 ,\t0 ,0.5 , -1.25\r\n\r\n0,,2.0,3e-5\r\n\r\n",
    "quoted, comment char": ('x1,note,s,y,x0\n"-1.25","a,#b",1,0,0.5\n'
                             '3e-5,#,0,"",2.0\n7,"say ""hi""\nthere",1,1,-0.0'),
    "special floats": "s,y,x0,x1\n1,nan,inf,1e400\n0,1,-inf,-1e400\n1,0.25,NaN,1e-400\n",
    "masked target outcome": "s,y,x0,x1\n1,0,0.5,1\n0,1,0.5,1\n0,0.0,0.5,1\n",
    "one row": "s,y,x0,x1\n1,1,0.5,1",
}


@pytest.mark.parametrize("name", REGULAR)
def test_regular_file_skips_row_scanner(tmp_path, monkeypatch, name):
    path = write(tmp_path, REGULAR[name])
    expected = outcome(tio._read_rows, path, ("x0", "x1"))
    assert expected[0] == "data"

    def scanner(*args):
        raise AssertionError("row scanner reached")

    monkeypatch.setattr(tio, "_read_rows", scanner)
    assert outcome(tio._read_raw, path, ("x0", "x1")) == expected


@pytest.fixture
def field_limit_64():
    old = csv.field_size_limit(64)
    yield
    csv.field_size_limit(old)


@pytest.mark.parametrize("note", ["n" * 65, '"' + "n," * 40 + '"'])
def test_field_over_csv_limit_raises_as_row_scanner(tmp_path, field_limit_64, note):
    rows = "".join(f"1,0,{i}.5,short\n" for i in range(4))
    path = write(tmp_path, f"s,y,x0,note\n{rows}0,,1,{note}\n")
    expected = outcome(tio._read_rows, path, ("x0",))
    assert expected[:2] == ("error", "Error")
    assert outcome(tio._read_raw, path, ("x0",)) == expected


def test_long_file_within_csv_limit_is_read(tmp_path, field_limit_64):
    rows = "".join(f"1,0,{i}.5,\"a,b\"\n0,,{i},c\n" for i in range(20))
    path = write(tmp_path, f"s,y,x0,note\n{rows}")
    assert outcome(tio._read_raw, path, ("x0",)) == outcome(tio._read_rows, path, ("x0",))
    assert tio._read_raw(path, ("x0",)).s.shape == (40,)


# -- the errors stay the row scanner's ---------------------------------------


@pytest.mark.parametrize("text", ["s,y,x0\n", "s,y,x0\n\n\r\n", "s,y,x0"])
def test_header_only_file_raises_without_warning(tmp_path, text):
    path = write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="no data rows"):
            tio._read_raw(path, ("x0",))


def test_whitespace_only_line_is_a_row(tmp_path):
    path = write(tmp_path, "s,y,x0\n1,0,0.5\n \n0,,1\n")
    with pytest.raises(DataError, match=r"^row 1: s must be 0 or 1, got ' '$"):
        tio._read_raw(path, ("x0",))


def test_row_numbers_skip_blank_lines(tmp_path):
    path = write(tmp_path, "s,y,x0\n1,0,0.5\n\n\n0,,oops\n")
    with pytest.raises(DataError, match=r"^row 1, column x0: could not parse 'oops'$"):
        tio._read_raw(path, ("x0",))


@pytest.mark.parametrize("text, x_columns", [
    ("s,y,x0\n1,0,0.5\n1,0,1,5\n0,,2\n", ("x0",)),           # a decimal comma
    ("s,y,x0\r\n1,0,0.5\r\n1,0,1,5\r\n0,,2", ("x0",)),
    ("s,y,x0\n1,0,0.5\n1,0,1,\n0,,2\n", ("x0",)),              # a trailing comma
    ('s,y,x0\n1,0,"0.5"\n1,0,1,5\n0,,2\n', ("x0",)),         # quoted
    ("s,y,x0,note\n1,0,0.5,a\n1,0,1,b,c\n0,,2,d\n", ("x0",)),  # an unread column
    ("s,y,x0,note\n1,0,0.5\n1,0,1,b,c\n0,,2\n", ("x0",)),      # and short rows
])
def test_row_with_more_cells_than_header_raises(tmp_path, text, x_columns):
    path = write(tmp_path, text)
    cells = len(text.splitlines()[2].split(","))
    header = len(text.splitlines()[0].split(","))
    message = rf"^row 1: {cells} cells, header has {header}$"
    for reader in (tio._read_raw, tio._read_rows):
        with pytest.raises(DataError, match=message):
            reader(path, x_columns)


@pytest.mark.parametrize("s_cell", ["1.0", "+1", "01"])
def test_s_must_be_exactly_zero_or_one(tmp_path, s_cell):
    path = write(tmp_path, f"s,y,x0\n1,0,0.5\n{s_cell},1,1\n")
    with pytest.raises(DataError, match=r"^row 1: s must be 0 or 1"):
        tio._read_raw(path, ("x0",))


@pytest.mark.parametrize("text", ["s,y,x0\n1\x00,0,1\n", "s,y,x0\n0,\x00,1\n1,0,2\n"])
def test_nul_in_cell_matches_row_scanner(tmp_path, text):
    # numpy strings drop trailing NULs, so "1\x00" must not pass for "1"
    path = write(tmp_path, text)
    assert outcome(tio._read_raw, path, ("x0",)) == outcome(tio._read_rows, path, ("x0",))


def test_duplicate_analysis_columns_rejected(tmp_path):
    path = write(tmp_path, "s,y,x0,x0\n1,0,1,9\n0,,2,8\n")
    with pytest.raises(DataError, match=r"duplicate columns: \['x0'\]"):
        tio._read_raw(path, ("x0",))
    with pytest.raises(DataError, match=r"duplicate columns: \['x0'\]"):
        tio._read_rows(path, ("x0",))


def test_duplicate_unread_column_allowed(tmp_path):
    path = write(tmp_path, "s,y,x0,note,note\n1,0,1,a,b\n0,,2,c,d\n")
    assert tio._read_raw(path, ("x0",)).x[:, 0].tolist() == [1.0, 2.0]


@pytest.mark.parametrize("header", ["s,y,x0", '"s","y","x0"'])
def test_utf8_byte_order_mark_accepted(tmp_path, header):
    path = tmp_path / "bom.csv"
    path.write_text(f"{header}\n1,0,0.5\n0,,1.5\n", encoding="utf-8-sig")
    for reader in (tio._read_raw, tio._read_rows):
        raw = reader(path, ("x0",))
        assert raw.s.tolist() == [1, 0] and raw.x[:, 0].tolist() == [0.5, 1.5]


# -- the byte pass -----------------------------------------------------------


def never(*args):
    raise AssertionError("fallback reader reached")


def cohort_text(rows, eol="\r\n", seed=3):
    """A benchmark-shaped file as csv.writer writes it: floats by repr, and
    target rows with an empty or (every seventh) a filled outcome."""
    import random

    rng = random.Random(seed)
    lines = ["s,y,x0,x1"]
    for i in range(rows):
        s = rng.random() < 0.5
        y = repr(float(rng.random() < 0.4)) if s or i % 7 == 0 else ""
        lines.append(f"{int(s)},{y},{rng.gauss(0, 1)!r},{rng.uniform(-1, 1)!r}")
    return eol.join(lines) + eol


@st.composite
def plain_files(draw):
    r"""The files the byte pass is for: bare cells, ``\n`` or ``\r\n`` line
    ends; then up to two defects, most of which it hands on."""
    x_columns = [f"x{i}" for i in range(draw(st.integers(0, 3)))]
    names = draw(st.permutations(["s", "y", *x_columns, *draw(st.sampled_from([[], ["note"]]))]))
    kinds = {"note": st.text(alphabet="#ab1 .-", max_size=4)}
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        s = draw(st.sampled_from(["0", "1"]))
        y = NUMBERS if s == "1" else st.one_of(st.just(""), st.just(""), NUMBERS)
        rows.append([draw({"s": st.just(s), "y": y}.get(name, kinds.get(name, NUMBERS)))
                     for name in names])
    defects = draw(st.lists(st.sampled_from(["cell", "pad", "short", "long", "blank", "cr"]),
                            max_size=2))
    for defect in defects:
        if defect in ("blank", "cr") or not rows:
            continue
        cells = rows[draw(st.integers(0, len(rows) - 1))]
        i = draw(st.integers(0, max(len(cells) - 1, 0)))
        if not cells:
            continue
        if defect == "cell":
            cells[i] = draw(ODD)
        elif defect == "pad":
            cells[i] = draw(st.sampled_from([" ", "\t"])) + cells[i]
        elif defect == "short":
            del cells[i:]
        else:
            cells.append(draw(NUMBERS))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(names), *(",".join(cells) for cells in rows)]
    for defect in defects:
        at = draw(st.integers(1, len(lines)))
        if defect == "blank":
            lines.insert(at, "")
        elif defect == "cr" and at < len(lines):   # a bare carriage return ends a line
            lines[at - 1] += "\r" + lines.pop(at)
    return eol.join(lines) + draw(st.sampled_from([eol, ""])), tuple(x_columns)


@settings(max_examples=300, deadline=None)
@given(plain_files(), st.integers(1, 40))
def test_byte_pass_matches_row_scanner(tmp_path_factory, case, chunk):
    text, x_columns = case
    path = write(tmp_path_factory.mktemp("reader"), text)
    expected = outcome(tio._read_rows, path, x_columns)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(tio._read_raw, path, x_columns) == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tio, "_CHUNK_BYTES", chunk)
            assert outcome(tio._read_raw, path, x_columns) == expected


@settings(max_examples=200, deadline=None)
@given(data_files(), st.integers(1, 40))
def test_chunk_size_does_not_change_the_result(tmp_path_factory, case, chunk):
    text, x_columns = case
    path = write(tmp_path_factory.mktemp("reader"), text)
    expected = outcome(tio._read_raw, path, x_columns)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tio, "_CHUNK_BYTES", chunk)
        assert outcome(tio._read_raw, path, x_columns) == expected


@pytest.mark.parametrize("chunk", [1, 5, 64, 4096])
def test_chunked_crlf_file_matches_default_chunks(tmp_path, monkeypatch, chunk):
    path = write(tmp_path, cohort_text(2000))
    expected = outcome(tio._read_rows, path, ("x0", "x1"))
    assert expected[0] == "data" and expected[3] > 0
    assert 0 < int(tio._read_raw(path, ("x0", "x1")).s.sum()) < 2000
    monkeypatch.setattr(tio, "_csv_chunks", never)
    monkeypatch.setattr(tio, "_read_rows", never)
    assert outcome(tio._read_raw, path, ("x0", "x1")) == expected
    monkeypatch.setattr(tio, "_CHUNK_BYTES", chunk)
    assert outcome(tio._read_raw, path, ("x0", "x1")) == expected


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("last", ["", "eol"])
def test_plain_file_takes_the_byte_pass(tmp_path, monkeypatch, eol, last):
    text = cohort_text(50, eol)
    path = write(tmp_path, text if last else text.removesuffix(eol))
    expected = outcome(tio._read_rows, path, ("x1",))
    monkeypatch.setattr(tio, "_csv_chunks", never)
    monkeypatch.setattr(tio, "_read_rows", never)
    assert outcome(tio._read_raw, path, ("x1",)) == expected


@pytest.mark.parametrize("text", [
    's,y,x0\n1,0,0.5\n0,"",1\n',         # a quote
    "s,y,x0\n 1,0,0.5\n0,,1\n",          # a padded s
    "s,y,x0\n1,0,0.5\n\n0,,1\n",         # a blank line
    "s,y,x0\r1,0,0.5\r0,,1\r",           # bare carriage returns
    "s,y,x0\n1,0,0.5\n0,,1\r\n1,1,\r2\n",
    "s,y,x0\n1,0,0.5,9\n0,,1\n",         # a long row
    "s,y,x0\n1,0\n0,,1\n",               # a short row
    "s,y,x0\n1,,0.5\n0,,1\n",            # an empty source outcome
    "s,y,x0\n1,0,0.5\n0,,1_0\n",         # a cell loadtxt does not parse
    "s,y,x0\n1,0,\xe9\n0,,1\n",          # not ASCII
])
def test_byte_pass_declines_what_it_cannot_decide(tmp_path, text):
    path = write(tmp_path, text)
    try:
        assert tio._read_chunks(path, ("x0",), tio._line_chunks) is None
    except ValueError:
        pass
    assert outcome(tio._read_raw, path, ("x0",)) == outcome(tio._read_rows, path, ("x0",))


@pytest.mark.parametrize("chunk", [None, 40, 45, 70])
@pytest.mark.parametrize("length", [64, 65])
def test_unquoted_field_against_csv_limit(tmp_path, monkeypatch, field_limit_64, chunk, length):
    # read boundaries every `chunk` bytes cut the long field (40, 45, 70),
    # or none does (the default size holds the whole file)
    rows = "".join(f"1,0,{i}.5,short\r\n" for i in range(4))
    path = write(tmp_path, f"s,y,x0,note\r\n{rows}0,,1,{'n' * length}\r\n1,1,2,a\r\n")
    if chunk is not None:
        monkeypatch.setattr(tio, "_CHUNK_BYTES", chunk)
    expected = outcome(tio._read_rows, path, ("x0",))
    assert expected[0] == ("data" if length == 64 else "error")
    assert outcome(tio._read_raw, path, ("x0",)) == expected
    if length == 64:
        monkeypatch.setattr(tio, "_csv_chunks", never)
        assert outcome(tio._read_raw, path, ("x0",)) == expected


def test_read_memory_stays_near_the_file_size(tmp_path):
    # a whole-file copy (bytes plus text, as the loadtxt pass holds) would
    # pass twice the file size at once
    import tracemalloc

    path = write(tmp_path, cohort_text(50_000))
    tio._read_raw(path, ("x0", "x1"))
    tracemalloc.start()
    try:
        tio._read_raw(path, ("x0", "x1"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * path.stat().st_size


@pytest.mark.parametrize("header, x_column", [
    ('"s","y","x0"', "x0"),
    ('s,y,"x\n0"', "x\n0"),       # a quoted name over two lines
    ('s,y,"x0', "x0"),           # a quote never closed
    ("s,y,x0\r1,1,2", "x0"),     # a bare carriage return ends the header
])
def test_header_forms(tmp_path, monkeypatch, header, x_column):
    path = write(tmp_path, f"{header}\n1,0,0.5\n0,,1.5\n")
    expected = outcome(tio._read_rows, path, (x_column,))
    assert outcome(tio._read_raw, path, (x_column,)) == expected
    if header.count('"') == 6:
        monkeypatch.setattr(tio, "_csv_chunks", never)
        assert outcome(tio._read_raw, path, (x_column,)) == expected


@pytest.mark.parametrize("x_columns", [("y",), ("x0", "y")])
@pytest.mark.parametrize("text", [
    "s,y,x0\n1,0,0.5\n0,,1\n",           # an empty target outcome
    "s,y,x0\r\n1,0,0.5\r\n0,1,1\r\n",    # every outcome filled
    's,y,x0\n1,"0",0.5\n0,,1\n',
])
def test_outcome_read_as_a_covariate_matches_row_scanner(tmp_path, text, x_columns):
    path = write(tmp_path, text)
    expected = outcome(tio._read_rows, path, x_columns)
    if ",," in text:
        assert expected == ("error", "DataError", "row 1, column y: could not parse ''")
    assert outcome(tio._read_raw, path, x_columns) == expected


# -- the csv chunks ----------------------------------------------------------


def reshaped(text, form):
    """``text`` with every cell quoted, every cell padded, or ``\\r`` line ends."""
    if form == "cr":
        return text.replace("\r\n", "\r")
    cell = '"{}"' if form == "quoted" else " {}\t"
    lines = text.split("\r\n")
    return "\r\n".join([lines[0], *(",".join(map(cell.format, line.split(",")))
                                    for line in lines[1:-1]), ""])


@pytest.mark.parametrize("chunk", [None, 1, 64])
@pytest.mark.parametrize("form", ["quoted", "padded", "cr"])
def test_other_regular_files_take_the_csv_chunks(tmp_path, monkeypatch, form, chunk):
    path = write(tmp_path, reshaped(cohort_text(300), form))
    expected = outcome(tio._read_rows, path, ("x0", "x1"))
    assert expected[0] == "data" and expected[3] > 0
    assert tio._read_chunks(path, ("x0", "x1"), tio._line_chunks) is None
    if chunk is not None:
        monkeypatch.setattr(tio, "_CHUNK_BYTES", chunk)
    monkeypatch.setattr(tio, "_read_rows", never)
    assert outcome(tio._read_raw, path, ("x0", "x1")) == expected


@pytest.mark.parametrize("text", [
    's,y,x0\n1,0,"5\n1,0,5"\n0,,1\n',    # a covariate cell holding a whole row
    's,y,x0\n1,0,"5,6"\n0,,1\n',         # a covariate cell holding a comma
    's,y,x0\n1,0,"5\r6"\n0,,1\n',
    's,y,x0,note\n1,0,5,"a\n1,0,5"\n0,,1,\n',
])
def test_csv_chunks_keep_cells_whole(tmp_path, text):
    path = write(tmp_path, text)
    assert outcome(tio._read_raw, path, ("x0",)) == outcome(tio._read_rows, path, ("x0",))
