"""The CSV readers against the line-by-line parsers they replaced.

``reference_read_data_file`` and ``reference_read_paired_file`` are the
former readers, kept here as the reference: one ``csv.reader`` per line and
one ``float()`` per value.  Every generated file must give the same
``SampleSet`` or table, and every malformed one the same error class at the
same line.  Warnings are errors throughout.
"""

import csv
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convstat.cli import read_data_file, read_paired_file
from convstat.errors import ConvStatError, InputError
from convstat.hyptest import SampleSet
from convstat.pmv import _require_finite

pytestmark = pytest.mark.filterwarnings("error")

SETTINGS = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_read_data_file(path):
    if not os.path.exists(path):
        raise InputError(f"{path}: no such file")
    columns = {}
    order = []
    coeffs = {}
    offset = 0.0
    zeta = 1.0
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                parts = text[1:].split()
                try:
                    if parts[0] == "coeff" and len(parts) == 3:
                        coeffs[parts[1]] = int(parts[2])
                    elif parts[0] == "offset" and len(parts) == 2:
                        offset = float(parts[1])
                    elif parts[0] == "lattice" and len(parts) == 2:
                        zeta = float(parts[1])
                    else:
                        raise ValueError
                except (ValueError, IndexError):
                    raise InputError(
                        f"{path}:{lineno}: bad metadata line {text!r}"
                    ) from None
                continue
            row = next(csv.reader([line]))
            if len(row) != 2:
                raise InputError(
                    f"{path}:{lineno}: expected 'variable_id,value', got "
                    f"{text!r}"
                )
            name, raw_value = row[0].strip(), row[1].strip()
            if not columns and name == "variable_id":
                continue
            try:
                value = float(raw_value)
            except ValueError:
                raise InputError(
                    f"{path}:{lineno}: value {raw_value!r} is not a number"
                ) from None
            if name not in columns:
                columns[name] = []
                order.append(name)
            columns[name].append(value)
    if not order:
        raise InputError(f"{path}: no observations found")
    unknown = set(coeffs) - set(order)
    if unknown:
        raise InputError(
            f"{path}: #coeff lines for unknown variables {sorted(unknown)}")
    return SampleSet(
        variables=tuple(np.array(columns[n]) for n in order),
        coeffs=tuple(coeffs.get(n, 1) for n in order),
        offset=offset,
        zeta=zeta,
        names=tuple(order),
    )


def reference_read_paired_file(path):
    if not os.path.exists(path):
        raise InputError(f"{path}: no such file")
    rows = []
    names = None
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if names is None:
                try:
                    rows.append([float(c) for c in row])
                    names = [f"X{i + 1}" for i in range(len(row))]
                except ValueError:
                    names = [c.strip() for c in row]
                continue
            try:
                values = [float(c) for c in row]
            except ValueError:
                raise InputError(f"{path}:{lineno}: non-numeric entry") from None
            if len(values) != len(names):
                raise InputError(
                    f"{path}:{lineno}: expected {len(names)} columns, got "
                    f"{len(values)}"
                )
            rows.append(values)
    if not rows:
        raise InputError(f"{path}: no observations found")
    table = np.array(rows)
    _require_finite(table, path)
    if np.any(np.abs(table - np.rint(table)) > 1e-9):
        raise InputError(f"{path}: paired observations must be integers")
    return np.rint(table).astype(np.int64), names


def _outcome(reader, path):
    """("ok", result) or (error class, line number or None)."""
    try:
        return "ok", reader(path)
    except ConvStatError as exc:
        match = re.match(r":(\d+):", str(exc)[len(path):])
        return type(exc), match and int(match.group(1))


def _same_samples(a, b):
    assert (a.names, a.coeffs, a.offset, a.zeta) == (
        b.names, b.coeffs, b.offset, b.zeta)
    assert len(a.variables) == len(b.variables)
    for x, y in zip(a.variables, b.variables):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y, equal_nan=True)


def _same_table(a, b):
    assert a[0].dtype == b[0].dtype
    assert np.array_equal(a[0], b[0])
    assert a[1] == b[1]


def _write(path, text, eol="\n"):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text.replace("\n", eol))


def _check_parity(text, reader, reference, same, eol="\n"):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        _write(path, text, eol)
        got, want = _outcome(reader, path), _outcome(reference, path)
    assert got[0] == want[0], (got, want)
    if want[0] == "ok":
        same(got[1], want[1])
    else:
        assert got[1] == want[1], (got, want)
    return want


def check_long(text, eol="\n"):
    return _check_parity(text, read_data_file, reference_read_data_file,
                         _same_samples, eol)


def check_wide(text, eol="\n"):
    return _check_parity(text, read_paired_file, reference_read_paired_file,
                         _same_table, eol)


# Generated files.  Names and values come in several spellings; the noise
# lines (metadata, blank, whitespace-only) go anywhere.

NAMES = ["A1", "A2", "var one", " B ", '"quoted"', '"x,y"', '"say ""hi"""']
VALUES = ["0", "1", "2", "0.5", "1.25", "-3", " 4 ", "\t1.0", "1e1", '"2"',
          "+0.75", "nan", "inf"]
NOISE = ["", "   ", "\t", "#coeff A1 2", "#coeff A2 -1", "#offset 1.5",
         "#lattice 0.25", "  #lattice 0.5", "# coeff A1 3"]
BAD_LONG = ["A1,abc", "A1,", "A1,0,1", "A1", '"A1,0', "#coeff A1", "#bogus 1",
            "#offset x", "A1,0 # note", "A1,0#"]
CELLS = ["0", "1", "2", " 3 ", '"1"', "2.0", "1e0"]
HEADERS = ["X1,X2", "a, b", '"first","second"', '"x,1",y', "variable one,two"]
BAD_WIDE = ["1,abc", "1", "1,2,3", "1,2 # note", "# note", "0.5,1", "nan,1",
            "1,"]


@st.composite
def long_file(draw, bad=False):
    rows = [f"{draw(st.sampled_from(NAMES))},{draw(st.sampled_from(VALUES))}"
            for _ in range(draw(st.integers(1, 12)))]
    if draw(st.booleans()):
        rows.insert(0, draw(st.sampled_from(
            ["variable_id,value", " variable_id , v", '"variable_id",x'])))
    for _ in range(draw(st.integers(0, 6))):
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.sampled_from(NOISE)))
    if bad:
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.sampled_from(BAD_LONG)))
    return "\n".join(rows) + "\n" * draw(st.booleans())


@st.composite
def wide_file(draw, bad=False):
    rows = [",".join(draw(st.sampled_from(CELLS)) for _ in range(2))
            for _ in range(draw(st.integers(1, 12)))]
    if draw(st.booleans()):
        rows.insert(0, draw(st.sampled_from(HEADERS)))
    for _ in range(draw(st.integers(0, 4))):
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.sampled_from(["", "  ", ",", " , ", "\t,"])))
    if bad:
        rows.insert(draw(st.integers(1, len(rows))),
                    draw(st.sampled_from(BAD_WIDE)))
    return "\n".join(rows) + "\n" * draw(st.booleans())


EOLS = st.sampled_from(["\n", "\r\n"])


@SETTINGS
@given(text=long_file(), eol=EOLS)
def test_long_files_match(text, eol):
    check_long(text, eol)


@SETTINGS
@given(text=long_file(bad=True), eol=EOLS)
def test_malformed_long_files_match(text, eol):
    check_long(text, eol)


@SETTINGS
@given(text=wide_file(), eol=EOLS)
def test_wide_files_match(text, eol):
    check_wide(text, eol)


@SETTINGS
@given(text=wide_file(bad=True), eol=EOLS)
def test_malformed_wide_files_match(text, eol):
    check_wide(text, eol)


@pytest.mark.parametrize("text, line", [
    ("variable_id,value\nA1,0\nA1,not_a_number\n", 3),
    ("A1,0\n#coeff A1 2\nA1,0,1\n", 3),
    ("A1,0\nA1\nA1,1\n", 2),
    ("A1\nA1,0\nA1,1\n", 1),
    ("#coeff A1 2\n\n#bogus\nA1,1\n", 3),
    ("A1,0\nA1,zz\n#bogus\n", 2),
    ("#bogus\nA1,zz\n", 1),
    ("A1,0\nA1,1 # note\n", 2),
    ("variable_id,value,extra\nA1,0\n", 1),
])
def test_malformed_long_line_numbers(text, line):
    assert check_long(text) == (InputError, line)


@pytest.mark.parametrize("text, line", [
    ("X1,X2\n1,2\n3\n", 3),
    ("X1,X2\n1,2,3\n1,zz\n", 2),
    ("1,2\n3,4,5\n", 2),
    ("X1,X2\n1,2\n# note\n", 3),
    ("X1,X2\n1,2\n1,2#\n", 3),
    ("X1,X2,X3\n1,2\n1,2\n", 2),
])
def test_malformed_wide_line_numbers(text, line):
    assert check_wide(text) == (InputError, line)


@pytest.mark.parametrize("text", [
    "variable_id,value\n",
    "\n \n#lattice 0.5\n",
    "variable_id,value\nvariable_id,value\nA1,0\nvariable_id,3\n",
    " A1 ,0\nA1,1\n\"A1\",2\n",
    "#offset 1\n#coeff Z 2\nA1,0\n",
    "a,1\n" + "n" * 300 + ',2\n"' + "x,y" * 100 + '",3\n q",4\n',
    ",1\n,2\nA,3\n",
])
def test_long_edge_cases_match(text):
    check_long(text)


def test_long_line_does_not_widen_the_names(tmp_path):
    """Names are parsed as fixed-width strings as wide as the longest
    first field, not the longest line: one long value must not make every
    row that wide."""
    path = tmp_path / "data.csv"
    path.write_text("".join(f"A{i % 3},{i % 2}\n" for i in range(400))
                    + "A1," + "1" * 100_000 + "\n")
    tracemalloc.start()
    try:
        data = read_data_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.variables[1][-1] == float("1" * 100_000)
    # 401 rows at 100 000 characters would take 160 MB
    assert peak < 10_000_000


@pytest.mark.parametrize("text", [
    "X1,X2\n", ",\n,,\n", "X1,X2\n0.5,1\n", "X1,X2\n1,nan\n", "1,2\n1,2\n",
])
def test_wide_edge_cases_match(text):
    check_wide(text)


def test_large_files_match():
    rng = np.random.default_rng(8)
    lines = ["#coeff A1 2", "#offset 0.5", "#lattice 0.5", "variable_id,value"]
    for name, n in (("A1", 15_000), ("A2", 10_000)):
        lines += [f"{name},{v!r}" for v in (0.5 * rng.integers(-2, 3, n)).tolist()]
    order = rng.permutation(len(lines) - 4) + 4
    check_long("\n".join(lines[:4] + [lines[i] for i in order]) + "\n")
    table = rng.integers(0, 4, (25_000, 3))
    check_wide("X1,X2,X3\n" + "".join(f"{a},{b},{c}\n" for a, b, c in table))


@pytest.mark.parametrize("spelling", ["1_0", "٣"])
def test_python_only_float_spellings_are_refused(tmp_path, spelling):
    """Underscores and non-ASCII digits: ``float()`` took them, numpy's
    parser does not, and the line of the first one is reported."""
    path = str(tmp_path / "data.csv")
    _write(path, f"A1,0\nA1,{spelling}\n")
    assert _outcome(reference_read_data_file, path)[0] == "ok"
    assert _outcome(read_data_file, path) == (InputError, 2)
    _write(path, f"X1,X2\n0,1\n1,{spelling}\n")
    assert _outcome(reference_read_paired_file, path)[0] == "ok"
    assert _outcome(read_paired_file, path) == (InputError, 3)


@pytest.mark.parametrize("reader, reference, text, line", [
    # the long reader used to read an open quote to the end of its line
    (read_data_file, reference_read_data_file, 'A1,"0\nA1,1\n', 1),
    (read_data_file, reference_read_data_file,
     'variable_id,"value\nA1,1\n', 1),
    # the wide reader used to let a quoted field run over lines
    (read_paired_file, reference_read_paired_file, 'X1,X2\n"1\n",2\n', 2),
    # ... also out of the header
    (read_paired_file, reference_read_paired_file, 'X1,"X2\n1,2\n', 1),
    # and skipped a row of quoted empty cells
    (read_paired_file, reference_read_paired_file, 'X1,X2\n1,2\n"",""\n', 3),
])
def test_refused_quoting(tmp_path, reader, reference, text, line):
    """Quoting the former readers let through, now an error at ``line``."""
    path = str(tmp_path / "data.csv")
    _write(path, text)
    assert _outcome(reference, path) != (InputError, line)
    assert _outcome(reader, path) == (InputError, line)


def test_quote_open_over_lines_is_reported_where_it_opens(tmp_path):
    # numpy's parser would join these lines into one valid row
    path = str(tmp_path / "data.csv")
    _write(path, 'A1,0\nA1,"1\n2"\n')
    assert _outcome(read_data_file, path) == (InputError, 2)
    check_wide('X1,X2\n"1\n2",3\n')


def test_open_quote_on_the_last_line_still_reads(tmp_path):
    path = str(tmp_path / "data.csv")
    _write(path, 'A1,0\nA1,"1\n')
    assert _outcome(read_data_file, path)[0] == "ok"
    check_long('A1,0\nA1,"1\n')
