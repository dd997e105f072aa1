import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from valvebench.errors import ConfigError
from valvebench.fileio import (
    format_float,
    format_value,
    parse_key_values,
    read_key_values,
    write_csv,
    write_report,
)


def test_format_value_types():
    assert format_value(True) == "true"
    assert format_value(np.bool_(False)) == "false"
    assert format_value(7) == "7"
    assert format_value(np.int64(-3)) == "-3"
    assert format_value(0.1) == "0.1"
    assert format_value(np.float64(1.0 / 3.0)) == "0.333333333"
    assert format_value("label") == "label"
    assert format_float(1e-12) == "1e-12"


def test_write_csv_exact_bytes(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(
        path,
        ["t", "y", "ok"],
        [np.array([0, 1]), np.array([0.5, -1.25]), np.array([True, False])],
    )
    data = path.read_bytes()
    assert data == b"t,y,ok\n0,0.5,true\n1,-1.25,false\n"


def test_write_csv_validation(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "a.csv", ["a", "b"], [np.arange(3)])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "b.csv", ["a", "b"], [np.arange(3), np.arange(4)])


def _write_csv_oracle(path, header, columns):
    """The per-cell writer: format_value on each element, row by row."""
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(header):
        raise ValueError("header/column count mismatch")
    n = len(cols[0]) if cols else 0
    for c in cols:
        if len(c) != n:
            raise ValueError("columns must have equal length")
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for i in range(n):
            f.write(",".join(format_value(c[i]) for c in cols) + "\n")


SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2e-308, 1e300, -1e300, 1.0 / 3.0]
_floats64 = st.one_of(st.floats(allow_subnormal=True), st.sampled_from(SPECIAL_FLOATS))


# Cell and header text that would be format codes if it entered a template.
_text = st.one_of(st.text("ab x-1.e%s", max_size=4), st.sampled_from(["%s", "%d", "%%", "%(a)s", "%"]))


def _column(n: int):
    """Any column kind the writer meets: numpy arrays of several dtypes,
    Python lists, and a string column."""
    size = dict(min_size=n, max_size=n)
    return st.one_of(
        hnp.arrays(np.float64, n, elements=_floats64),
        hnp.arrays(np.float32, n, elements=st.floats(width=32, allow_subnormal=True)),
        hnp.arrays(np.int8, n),
        hnp.arrays(np.int64, n),
        hnp.arrays(np.uint8, n),
        hnp.arrays(np.bool_, n),
        st.lists(st.integers(-(2**62), 2**62), **size),
        st.lists(_floats64, **size),
        st.lists(st.booleans(), **size),
        st.lists(_text, **size),
    )


def _same_bytes(tmp_path, header, columns):
    write_csv(tmp_path / "new.csv", header, columns)
    _write_csv_oracle(tmp_path / "ref.csv", header, columns)
    return (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n=st.integers(0, 12), count=st.integers(1, 5))
def test_write_csv_matches_per_cell_oracle(tmp_path, data, n, count):
    """The row-template writer writes the bytes of per-cell format_value."""
    columns = [data.draw(_column(n)) for _ in range(count)]
    header = data.draw(st.lists(_text, min_size=count, max_size=count))
    assert _same_bytes(tmp_path, header, columns)


@pytest.mark.parametrize("n", [0, 1, 2, 4999])
def test_write_csv_matches_oracle_on_every_kind(tmp_path, n):
    """Every column kind side by side, also over a body of about 5 000 rows
    formatted by one %, where the small integer kinds wrap around."""
    rng = np.random.default_rng(n)
    columns = [
        np.resize(SPECIAL_FLOATS, n),
        rng.standard_normal(n).astype(np.float32),
        np.arange(-n, 0).astype(np.int8),
        np.arange(n, dtype=np.int64) * 2**40,
        np.arange(250, 250 + n).astype(np.uint8),
        np.arange(n) % 2 == 0,
        list(range(n)),
        [0.1 * k for k in range(n)],
        [k % 2 == 1 for k in range(n)],
        [f"s{k}" for k in range(n)],
    ]
    header = [f"c{k}" for k in range(len(columns))]
    assert _same_bytes(tmp_path, header, columns)


@pytest.mark.parametrize(
    "header, columns",
    [
        (["100%"], [np.array([0.5, -1.25])]),
        (["%s"], [["%s", "%d"]]),
        (["%d", "a%%b", "%(x)s"], [np.arange(2), np.array([True, False]), ["%", "%%"]]),
        ([], []),
    ],
    ids=["one-float-column", "one-text-column", "percent-header", "no-columns"],
)
def test_write_csv_percent_text_and_narrow_tables(tmp_path, header, columns):
    """Header and cell text never act as format codes, and one-column and
    zero-column tables keep the oracle's bytes."""
    assert _same_bytes(tmp_path, header, columns)


def test_write_csv_validation_messages(tmp_path):
    for header, columns in (
        (["a", "b"], [np.arange(3)]),
        (["a", "b"], [np.arange(3), np.arange(4)]),
        (["a", "b"], [np.arange(3), [1.0, 2.0]]),
    ):
        with pytest.raises(ValueError) as ref:
            _write_csv_oracle(tmp_path / "ref.csv", header, columns)
        with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
            write_csv(tmp_path / "new.csv", header, columns)


def test_write_report(tmp_path):
    path = tmp_path / "report.txt"
    write_report(path, [("cost", 1.5), ("iterations", 3), ("converged", True)])
    assert path.read_text() == "cost = 1.5\niterations = 3\nconverged = true\n"


def test_parse_key_values_sections_and_comments():
    text = (
        "# leading comment\n"
        "top = 1\n"
        "\n"
        "[plant]\n"
        "preset = valve3   # inline comment\n"
        "gain=  0.95\n"
    )
    entries = parse_key_values(text)
    assert [(e.section, e.key, e.value) for e in entries] == [
        ("", "top", "1"),
        ("plant", "preset", "valve3"),
        ("plant", "gain", "0.95"),
    ]
    assert entries[1].line == 5


def test_parse_key_values_errors():
    with pytest.raises(ConfigError) as exc:
        parse_key_values("a = 1\nnonsense\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(ConfigError):
        parse_key_values("[]\n")
    with pytest.raises(ConfigError):
        parse_key_values("= 3\n")


def test_read_key_values(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("[design]\nomega0 = 5.0\n")
    entries = read_key_values(path)
    assert entries[0].section == "design"
    assert entries[0].key == "omega0"
