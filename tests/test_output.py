"""Deterministic serialization: floats, CSV, JSON, config text, SVG."""

import csv
import io
import json
import struct
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np
import pytest

from relaxwave import DomainError
from relaxwave.output import (
    canonical_json,
    config_value,
    csv_text,
    fmt,
    parse_config,
    to_jsonable,
    write_csv_series,
    write_json,
    write_svg,
)


def test_fmt_round_trips_float64():
    rng = np.random.default_rng(61)
    vals = list(rng.uniform(-1e6, 1e6, 50)) + list(rng.uniform(-1e-12, 1e-12, 20))
    vals += [0.1, 1.0 / 3.0, np.pi, 2.0 ** -1074, 1e308]
    for v in vals:
        assert struct.pack("<d", float(fmt(v))) == struct.pack("<d", float(v))


def test_fmt_normalizes_negative_zero():
    assert fmt(-0.0) == "0"
    assert fmt(0.0) == "0"


def test_csv_text_format():
    text = csv_text(["a", "b", "c"], np.array([[1.0, 0.5, -np.inf], [2.0, -0.0, np.nan]]))
    lines = text.split("\r\n")
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,0.5,-inf"
    assert lines[2] == "2,0,nan"
    assert lines[3] == ""
    assert text.endswith("\r\n")


def per_cell_csv(header, rows) -> str:
    """Cell-by-cell reference: the csv module's writer over ``fmt`` of each value."""
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\r\n")
    wr.writerow(header)
    wr.writerows([fmt(v) for v in row] for row in rows.tolist())
    return buf.getvalue()


def test_csv_text_float_array_matches_per_cell_reference():
    # a 2-D float array is formatted a block of rows at a time; the
    # cell-by-cell formatting of the same values is the reference, byte for byte
    rng = np.random.default_rng(7)
    special = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308,
               0.1, 1.0 / 3.0, -2.5e-17]
    tables = [
        np.array(special + [1.0] * 3).reshape(5, 3),
        np.array(special).reshape(-1, 1),
        rng.standard_normal((40, 5)) * 10.0 ** rng.integers(-300, 300, (40, 5)),
        rng.standard_normal((5000, 2)),  # more rows than one formatting block
        np.empty((0, 4)),
    ]
    for arr in tables:
        header = [f"c{j}" for j in range(arr.shape[1])]
        assert csv_text(header, arr) == per_cell_csv(header, arr)
    assert csv_text(["a"], np.array([[-0.0]])) == "a\r\n0\r\n"


def test_write_csv_bytes(tmp_path):
    p = tmp_path / "out.csv"
    write_csv_series([p], ["x"], np.array([1.5]), [np.empty((1, 0))])
    assert p.read_bytes() == b"x\r\n1.5\r\n"
    write_csv_series([p], ["x", "y"], np.array([1.5, np.nan]), [np.array([-0.0, 2.0])])
    assert p.read_bytes() == b"x,y\r\n1.5,0\r\nnan,2\r\n"


def test_write_csv_series_matches_the_per_cell_reference(tmp_path):
    # each file of a series is byte for byte the cell-by-cell CSV of (lead,
    # table) as one column_stack: -0.0 in the lead and in the fields, nan and
    # inf, one row, one field column (1-D and 2-D) and more than one block of rows
    rng = np.random.default_rng(17)
    special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -1e308, 1.0 / 3.0])
    cases = [
        (special, [np.column_stack((special[::-1], -special)), np.full((8, 2), -0.0)]),
        (np.array([-0.0]), [np.array([[np.nan, -0.0, 2.5]]), np.array([[-np.inf, 1.0, 0.0]])]),
        (special, [special[::-1], -special]),
        (special, [special[:, None], np.ones((8, 1))]),
        (np.linspace(-3.0, 3.0, 5000),
         [rng.standard_normal((5000, 3)) * 10.0 ** rng.integers(-300, 300, (5000, 3))
          for _ in range(3)]),
    ]
    for lead, tables in cases:
        width = np.asarray(tables[0]).reshape(lead.size, -1).shape[1]
        header = ["x"] + [f"c{j}" for j in range(width)]
        paths = [tmp_path / f"series_{i}.csv" for i in range(len(tables))]
        write_csv_series(paths, header, lead, iter(tables))
        for path, table in zip(paths, tables):
            ref = per_cell_csv(header, np.column_stack((lead, table)))
            assert path.read_bytes() == ref.encode()
    write_csv_series([tmp_path / "neg.csv"], ["x", "y"], np.array([-0.0]), [np.array([-0.0])])
    assert (tmp_path / "neg.csv").read_bytes() == b"x,y\r\n0,0\r\n"


def test_write_csv_series_rejects_mismatched_tables(tmp_path):
    lead = np.arange(4.0)
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    with pytest.raises(DomainError, match=r"table has shape \(4, 3\); expected \(4, 2\)"):
        write_csv_series(paths, ["x", "a", "b"], lead, [np.ones((4, 2)), np.ones((4, 3))])
    with pytest.raises(DomainError, match=r"table has shape \(3, 2\); expected \(4, 2\)"):
        write_csv_series(paths[:1], ["x", "a", "b"], lead, [np.ones((3, 2))])
    with pytest.raises(DomainError, match="leading column must be 1-D"):
        write_csv_series(paths[:1], ["x", "a"], lead[:, None], [lead])


def test_canonical_json_shape():
    text = canonical_json({"b": 1, "a": [1.5, 2]})
    obj = json.loads(text)
    assert obj == {"a": [1.5, 2], "b": 1}
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert "  " in text


def test_canonical_json_determinism_across_insertion_order():
    d1 = {"x": 1, "y": {"p": 2.5, "q": [1, 2]}}
    d2 = {"y": {"q": [1, 2], "p": 2.5}, "x": 1}
    assert canonical_json(d1) == canonical_json(d2)


def test_to_jsonable_conversions():
    @dataclass
    class Pair:
        a: float
        b: complex

    out = to_jsonable({"arr": np.arange(3.0), "pair": Pair(a=-0.0, b=1 + 2j),
                       "n": np.int64(7), "flag": np.bool_(True), "none": None})
    assert out["arr"] == [0.0, 1.0, 2.0]
    assert out["pair"] == {"a": 0.0, "b": {"re": 1.0, "im": 2.0}}
    assert out["n"] == 7 and isinstance(out["n"], int)
    assert out["flag"] is True
    assert out["none"] is None
    with pytest.raises(DomainError):
        to_jsonable(object())


def test_write_json_bytes(tmp_path):
    p = tmp_path / "o.json"
    write_json(p, {"k": 1})
    assert p.read_bytes() == b'{\n  "k": 1\n}\n'


def test_parse_config_basics():
    cfg = parse_config("""
# leading comment
v = 0.24        # trailing comment
alphas = 0.1, 0.8

v = 0.3
name = run a
""")
    assert cfg == {"v": "0.3", "alphas": "0.1, 0.8", "name": "run a"}


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(DomainError, match="line 2"):
        parse_config("a = 1\nbroken line\n")
    with pytest.raises(DomainError, match="line 1"):
        parse_config("= 5\n")


def test_config_accessors():
    cfg = parse_config("x = 2.5\nn = 7\nname = abc\nlist = 1, 2.5, 3\n"
                       "on = Yes\noff = 0\n")
    assert config_value(cfg, "x", float) == 2.5
    assert config_value(cfg, "missing", float, 1.5) == 1.5
    assert config_value(cfg, "n", int) == 7
    assert config_value(cfg, "missing", int, 3) == 3
    assert config_value(cfg, "name", str) == "abc"
    assert config_value(cfg, "missing", str, "d") == "d"
    assert config_value(cfg, "list", list) == [1.0, 2.5, 3.0]
    assert config_value(cfg, "missing", list, (1.0,)) == [1.0]
    assert config_value(cfg, "on", bool) is True
    assert config_value(cfg, "off", bool) is False
    assert config_value(cfg, "missing", bool, False) is False


def test_config_accessor_errors():
    cfg = parse_config("x = hello\nn = 2.5\nlist = 1, two\nflag = maybe\n")
    with pytest.raises(DomainError, match="required"):
        config_value(cfg, "absent", float)
    with pytest.raises(DomainError, match="'x': not a number: 'hello'"):
        config_value(cfg, "x", float)
    with pytest.raises(DomainError, match="not an integer"):
        config_value(cfg, "n", int)
    with pytest.raises(DomainError, match="number list"):
        config_value(cfg, "list", list)
    with pytest.raises(DomainError, match="required"):
        config_value(cfg, "absent", str)
    with pytest.raises(DomainError, match="'flag': expected a boolean, got 'maybe'"):
        config_value(cfg, "flag", bool)


def test_write_svg_structure(tmp_path):
    p = tmp_path / "fig.svg"
    x = np.linspace(0.0, 1.0, 20)
    write_svg(p, [(x, np.sin(x), "first"), (x, np.cos(x), "second")],
              xlabel="y", ylabel="u")
    root = ET.parse(p).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f"{ns}polyline")
    assert len(polylines) == 2
    texts = [t.text for t in root.findall(f"{ns}text")]
    for want in ("y", "u", "first", "second"):
        assert want in texts


def test_write_svg_deterministic(tmp_path):
    x = np.linspace(0.0, 1.0, 20)
    curves = [(x, np.sin(x), "a")]
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    write_svg(p1, curves, xlabel="x", ylabel="y")
    write_svg(p2, curves, xlabel="x", ylabel="y")
    assert p1.read_bytes() == p2.read_bytes()
    with pytest.raises(DomainError):
        write_svg(tmp_path / "c.svg", [], xlabel="x", ylabel="y")
