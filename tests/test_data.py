import csv
import io
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magiciv import DataError, Dataset, ScenarioConfig, gen_dataset, load_csv, validate
from magiciv import data
from magiciv.data import _load_rows, _parse_rows, write_csv


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_basic(tmp_path):
    path = _write(tmp_path, "y,d,z1,z2\n1.5,0.5,1,0\n2.0,1.0,0,1\n0.0,0.25,1,1\n")
    ds = load_csv(path, "y", "d", ["z1", "z2"])
    assert ds.n == 3 and ds.p == 2
    assert ds.y.tolist() == [1.5, 2.0, 0.0]
    assert ds.z[:, 0].tolist() == [1.0, 0.0, 1.0]
    assert ds.instrument_names == ("z1", "z2")


def test_load_csv_binds_by_name_not_position(tmp_path):
    path = _write(tmp_path, "z2,y,z1,d\n0,1.5,1,0.5\n1,2.0,0,1.0\n")
    ds = load_csv(path, "y", "d", ["z1", "z2"])
    assert ds.y.tolist() == [1.5, 2.0]
    assert ds.d.tolist() == [0.5, 1.0]
    assert ds.z[:, 0].tolist() == [1.0, 0.0]  # z1 first, regardless of file order


def test_load_csv_constant_instrument(tmp_path):
    path = _write(tmp_path, "y,d,z1,z2\n1,2,1,0\n2,3,1,1\n3,4,1,0\n")
    with pytest.raises(DataError, match="constant instrument"):
        load_csv(path, "y", "d", ["z1", "z2"])


def test_load_csv_unparseable_cell_names_location(tmp_path):
    path = _write(tmp_path, "y,d,z1,z2\n1,2,1,0\n2,NA,0,1\n")
    with pytest.raises(DataError, match=r"row 2, column 'd'"):
        load_csv(path, "y", "d", ["z1", "z2"])


def test_load_csv_nonfinite_cell(tmp_path):
    path = _write(tmp_path, "y,d,z1,z2\n1,2,1,0\ninf,3,0,1\n")
    with pytest.raises(DataError, match=r"non-finite cell \(row 2, column 'y'\)"):
        load_csv(path, "y", "d", ["z1", "z2"])


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot open file"):
        load_csv(tmp_path / "nope.csv", "y", "d", ["z1"])


@pytest.mark.parametrize("cell", ["2", "2_000"])
def test_load_csv_skips_a_byte_order_mark(tmp_path, cell):
    # Excel's "CSV UTF-8" starts with one; a cell np.loadtxt refuses sends
    # the file back to its start for the row loop
    path = tmp_path / "bom.csv"
    path.write_bytes(f"\ufeffy,d,z1,z2\n1,{cell},1,0\n3,4,0,1\n".encode())
    ds = load_csv(path, "y", "d", ["z1", "z2"])
    assert ds.y.tolist() == [1.0, 3.0] and ds.d.tolist() == [float(cell), 4.0]


def test_load_csv_with_byte_order_mark_names_a_bad_cell(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeffy,d,z1,z2\n1,2,1,0\n3,NA,0,1\n".encode())
    with pytest.raises(DataError, match=r"cannot parse cell \(row 2, column 'd'\)"):
        load_csv(path, "y", "d", ["z1", "z2"])


@pytest.mark.parametrize(
    "text",
    [b"y,d,z1,z2,caf\xe9\n1,2,1,0,1\n", b"y,d,z1,z2\n1,2,1,0\n2,3,0,caf\xe9\n"],
    ids=["header", "row"],
)
def test_load_csv_refuses_bytes_that_are_not_utf8(tmp_path, text):
    path = tmp_path / "latin1.csv"
    path.write_bytes(text)
    with pytest.raises(DataError, match=r"latin1.csv is not UTF-8 text: byte 0xe9"):
        load_csv(path, "y", "d", ["z1", "z2"])


def test_load_csv_ragged_rows(tmp_path):
    short = _write(tmp_path, "y,d,z1,z2\n1,2,1\n2,3,0,1\n", name="short.csv")
    with pytest.raises(DataError, match="row 1 has 3 fields"):
        load_csv(short, "y", "d", ["z1", "z2"])
    long = _write(tmp_path, "y,d,z1,z2\n1,2,1,0,9\n2,3,0,1,9\n", name="long.csv")
    with pytest.raises(DataError, match="row 1 has 5 fields"):
        load_csv(long, "y", "d", ["z1", "z2"])


def test_load_csv_missing_column(tmp_path):
    path = _write(tmp_path, "y,d,z1\n1,2,1\n2,3,0\n")
    with pytest.raises(DataError, match="missing column: 'z9'"):
        load_csv(path, "y", "d", ["z1", "z9"])


def test_load_csv_duplicate_selection(tmp_path):
    path = _write(tmp_path, "y,d,z1\n1,2,1\n2,3,0\n")
    with pytest.raises(DataError, match="duplicate column selection"):
        load_csv(path, "y", "y", ["z1"])
    with pytest.raises(DataError, match="duplicate column selection"):
        load_csv(path, "y", "d", ["z1", "z1"])


def test_load_csv_ambiguous_header(tmp_path):
    path = _write(tmp_path, "y,d,z1,z1\n1,2,1,0\n2,3,0,1\n")
    with pytest.raises(DataError, match="ambiguous column"):
        load_csv(path, "y", "d", ["z1"])


def test_dataset_shape_errors():
    with pytest.raises(DataError, match="inconsistent lengths"):
        Dataset(y=np.ones(3), d=np.ones(2), z=np.ones((3, 1)))
    with pytest.raises(DataError, match="two-dimensional"):
        Dataset(y=np.ones(3), d=np.ones(3), z=np.ones(3))


def test_validate_clean():
    z = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    ds = Dataset(y=np.arange(4.0), d=np.arange(4.0) * 0.5, z=z)
    assert validate(ds) == []


def test_validate_constant_column():
    z = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 1.0]])
    ds = Dataset(y=np.arange(3.0), d=np.arange(3.0), z=z, instrument_names=("a", "b"))
    report = validate(ds)
    assert report == ["constant instrument: column 'a'"]


def test_validate_nonfinite_value():
    z = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([1.0, math.inf, 2.0])
    report = validate(Dataset(y=y, d=np.arange(3.0), z=z))
    assert len(report) == 1 and "non-finite value: column 'y', row 2" in report[0]


def test_validate_too_few_rows():
    ds = Dataset(y=np.array([1.0]), d=np.array([1.0]), z=np.array([[1.0]]))
    assert any("n >= 2" in entry for entry in validate(ds))


def test_write_read_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(11)
    z = (rng.random((8, 3)) < 0.5).astype(float)
    z[0] = [0, 1, 0]
    z[1] = [1, 0, 1]
    y = rng.standard_normal(8) * 1e3
    y[0] = 0.1  # classic non-dyadic decimal
    d = rng.standard_normal(8) * 1e-7
    ds = Dataset(y=y, d=d, z=z)
    path = tmp_path / "round.csv"
    write_csv(ds, path)
    back = load_csv(path, "y", "d", list(ds.names()))
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.d, ds.d)
    assert np.array_equal(back.z, ds.z)


def test_simulator_output_validates_clean(tmp_path):
    cfg = ScenarioConfig(p=5, n=120, seed=42)
    ds, _ = gen_dataset(cfg, 0)
    path = tmp_path / "sim.csv"
    write_csv(ds, path)
    back = load_csv(path, "y", "d", list(ds.names()))
    assert validate(back) == []


_padding = st.sampled_from(["", " ", "  ", "\t", " \t "])


@st.composite
def _numeric_csv(draw):
    """A headered CSV of finite doubles, each written with ``repr`` and padded."""
    width = draw(st.integers(3, 6))
    n = draw(st.integers(1, 8))
    cells = draw(st.lists(
        st.tuples(_padding, st.floats(allow_nan=False, allow_infinity=False), _padding),
        min_size=width * n, max_size=width * n,
    ))
    fields = [f"{lead}{value!r}{trail}" for lead, value, trail in cells]
    rows = [",".join(fields[i * width:(i + 1) * width]) for i in range(n)]
    header = [f"c{j}" for j in range(width)]
    columns = draw(st.permutations(range(width)))[:draw(st.integers(3, width))]
    return "\n".join([",".join(header), *rows]) + "\n", header, list(columns)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_numeric_csv())
def test_fast_path_parses_the_same_doubles_as_the_row_loop(case):
    text, header, columns = case
    selected = [header[j] for j in columns]
    positions = {name: j for j, name in enumerate(header)}
    fh = io.StringIO(text)
    next(csv.reader(fh))
    fast = _load_rows(fh, len(header), columns)
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    slow = _parse_rows(reader, header, selected, positions, "case.csv")
    assert fast is not None
    for got, want in zip(fast, slow, strict=True):  # y, d and z
        assert got.shape == want.shape and got.tobytes() == want.tobytes()  # -0.0 too


@pytest.mark.parametrize(
    "row, want",
    [
        ("1_000,2,1,0", [1000.0, 2.0, 1.0, 0.0]),  # underscores: float() only
        ("\u0661,2,1,0", [1.0, 2.0, 1.0, 0.0]),  # an Arabic-Indic digit one
        ("  \n1,2,1,0", [1.0, 2.0, 1.0, 0.0]),  # a blank line of spaces
    ],
)
def test_cells_only_float_accepts_still_load(tmp_path, row, want):
    path = _write(tmp_path, f"y,d,z1,z2\n{row}\n3,4,0,1\n")
    ds = load_csv(path, "y", "d", ["z1", "z2"])
    assert [ds.y[0], ds.d[0], *ds.z[0]] == want


def test_ragged_rows_in_unselected_columns_are_refused(tmp_path):
    # a row one field long and one a field short: the selected columns parse
    path = _write(tmp_path, "y,d,z1,z2,note\n1,2,1,0,7,8\n2,3,0,1\n")
    with pytest.raises(DataError, match="row 1 has 6 fields, header has 5"):
        load_csv(path, "y", "d", ["z1", "z2"])


def test_quoted_comma_in_unselected_column_keeps_fields(tmp_path):
    path = _write(tmp_path, 'id,y,d,z1,z2\n"a,7",1,2,1,0\n"b,8",2,3,0,1\n')
    ds = load_csv(path, "y", "d", ["z1", "z2"])
    assert ds.y.tolist() == [1.0, 2.0] and ds.z[:, 0].tolist() == [1.0, 0.0]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("cell", ["0.5", "NA"])
def test_load_csv_reads_a_pipe(cell):
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, f"y,d,z1,z2\n1,{cell},1,0\n2,3,0,1\n".encode())
        os.close(write_end)
        path = f"/dev/fd/{read_end}"
        if cell == "NA":
            with pytest.raises(DataError, match=r"cannot parse cell \(row 1, column 'd'\)"):
                load_csv(path, "y", "d", ["z1", "z2"])
        else:
            assert load_csv(path, "y", "d", ["z1", "z2"]).d.tolist() == [0.5, 3.0]
    finally:
        os.close(read_end)


@pytest.mark.parametrize("row_loop", [False, True], ids=["fast path", "row loop"])
def test_loaded_arrays_hold_no_parsed_table(tmp_path, monkeypatch, row_loop):
    # each of y, d and z is its own array: none is a view that keeps the
    # parsed n x (p + 3) table alive beside the dataset
    rng = np.random.default_rng(4)
    table = np.column_stack([rng.standard_normal((40, 3)), rng.random((40, 3)) < 0.5])
    lines = ["w,z2,y,z1,d,z3"] + [",".join(repr(float(v)) for v in row) for row in table]
    if row_loop:  # an underscore in an unselected cell: float() parses it, loadtxt does not
        lines[1] = "1_0" + lines[1][lines[1].index(","):]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    loops = []
    monkeypatch.setattr(data, "_parse_rows", lambda *args: loops.append(1) or _parse_rows(*args))
    ds = load_csv(path, "y", "d", ["z1", "z2", "z3"])
    assert len(loops) == int(row_loop)
    assert np.array_equal(ds.z, table[:, [3, 1, 5]]) and np.array_equal(ds.d, table[:, 4])
    for arr in (ds.y, ds.d, ds.z):
        assert arr.flags.c_contiguous
        assert arr.base is None or arr.base.nbytes <= arr.nbytes


def test_load_csv_retains_only_the_dataset_arrays(tmp_path):
    ds, _ = gen_dataset(ScenarioConfig(p=12, n=5000, seed=3), 0)
    path = tmp_path / "rep0.csv"
    write_csv(ds, path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_csv(path, "y", "d", list(ds.names()))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    own = loaded.y.nbytes + loaded.d.nbytes + loaded.z.nbytes  # 547 KiB
    assert held <= own + 64 * 1024  # the dataset object and caches the parser fills once
