import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfgof.errors import ConfigError
from dfgof.fileio import (
    _parse_rows,
    load_points,
    load_sample,
    write_ecdf,
    write_process_dump,
    write_table,
    write_text_atomic,
)
from dfgof.process import Ecdf, build_process


def _reference_fmt(value) -> str:
    # the per-value rule write_table has always followed
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _reference_table(header, rows) -> str:
    lines = [",".join(header)] + [",".join(_reference_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


class TestTableFormat:
    def test_array_rows_match_per_value_rule(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(50, 3)) * 10.0 ** rng.integers(-300, 300, size=(50, 3))
        rows[0] = [np.inf, np.nan, -0.0]
        rows[1] = [1e-320, -np.inf, 0.0]
        target = tmp_path / "t.csv"
        write_table(target, ["x1", "x2", "value"], rows)
        assert target.read_text() == _reference_table(["x1", "x2", "value"], [tuple(r) for r in rows])

    def test_integer_columns_print_as_integers(self, tmp_path):
        # index and anchor columns hold whole numbers below n, which %.17g
        # prints as str() prints the int
        rng = np.random.default_rng(3)
        index = np.concatenate([np.arange(20), rng.integers(0, 10**6, size=30), [10**6 - 1, 10**6]])
        cost = rng.exponential(size=index.size)
        cost[:2] = [-0.0, 0.0]
        header = ["index", "anchor_index", "cost"]
        rows = [(int(i), int(j), float(c)) for i, j, c in zip(index, index[::-1], cost)]
        target = tmp_path / "t.csv"
        write_table(target, header, np.column_stack((index, index[::-1], cost)), footer="# end")
        assert target.read_text() == _reference_table(header, rows) + "# end\n"
        assert target.read_text().splitlines()[1:3] == [f"0,{10**6},-0", f"1,{10**6 - 1},0"]

    @pytest.mark.parametrize(
        "rows",
        [
            # lattice-like: the coordinates repeat across rows
            np.column_stack(
                [np.repeat(np.linspace(0.0, 1.0, 8), 8), np.tile(np.linspace(0.0, 1.0, 8), 8), np.arange(64) / 7.0]
            ),
            np.column_stack([np.tile([-0.0, 0.0], 10), np.full(20, 1.5)]),
            np.array([[0.25, 0.25, 0.25, -0.0]]),
            np.column_stack([np.full(30, 7.0), np.tile(np.arange(10) / 3.0, 3)]),
        ],
        ids=["lattice", "signed-zeros", "single-row", "constant-column"],
    )
    def test_repeated_values_are_formatted_once_with_the_same_bytes(self, tmp_path, rows):
        # at most half the values distinct (by bit pattern): each distinct
        # value is formatted once, and the bytes equal one %.17g per value
        assert 2 * np.unique(rows.view(np.uint64)).size <= rows.size
        target = tmp_path / "t.csv"
        write_table(target, ["a"] * rows.shape[1], rows)
        row_fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        expected = ",".join(["a"] * rows.shape[1]) + "\n" + (row_fmt * rows.shape[0]) % tuple(rows.ravel().tolist())
        assert target.read_text() == expected
        assert expected == _reference_table(["a"] * rows.shape[1], [tuple(row) for row in rows])

    def test_empty_float_array_writes_header_only(self, tmp_path):
        target = tmp_path / "t.csv"
        write_table(target, ["a", "b"], np.empty((0, 2)))
        assert target.read_text() == "a,b\n"

    def test_integer_array_rows(self, tmp_path):
        rows = np.array([[0, 4], [1, -2]])
        target = tmp_path / "t.csv"
        write_table(target, ["index", "anchor_index"], rows)
        assert target.read_text() == "index,anchor_index\n0,4\n1,-2\n"

    def test_process_dump_matches_per_value_rule(self, tmp_path):
        rng = np.random.default_rng(1)
        proc = build_process(rng.normal(size=30), rng.uniform(size=(30, 2)))
        target = tmp_path / "p.csv"
        write_process_dump(target, proc)
        rows = [tuple(pt) + (val,) for pt, val in zip(proc.eval_points, proc.eval_values)]
        assert target.read_text() == _reference_table(["x1", "x2", "value"], rows)

    def test_ecdf_matches_per_value_rule(self, tmp_path):
        ecdf = Ecdf(np.random.default_rng(2).normal(size=37))
        target = tmp_path / "e.csv"
        write_ecdf(target, ecdf)
        rows = [(v, (i + 1) / ecdf.size) for i, v in enumerate(ecdf.sorted_values)]
        assert target.read_text() == _reference_table(["value", "level"], rows)


class TestAtomicWrites:
    def test_failure_mid_write_leaves_no_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"

        def exploding_replace(src, dst):
            raise RuntimeError("boom")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(RuntimeError):
            write_table(target, ["a", "b"], np.array([[1.0, 2.0]]))
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # no temp files left behind

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        target = tmp_path / "out.txt"
        write_text_atomic(target, "first\n")
        write_text_atomic(target, "second\n")
        assert target.read_text() == "second\n"

    def test_floats_round_trip_exactly(self, tmp_path):
        target = tmp_path / "out.csv"
        value = 0.1 + 0.2  # not representable prettily
        write_table(target, ["v"], np.array([[value]]))
        reread = float(target.read_text().splitlines()[1])
        assert reread == value


class TestLoaders:
    def test_sample_with_header_and_blank_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n\n1.0,2.0\n3.0,4.0\n# comment\n5.0,6.0\n")
        sample = load_sample(path)
        assert sample.n == 3 and sample.p == 1
        assert np.allclose(sample.Y, [2.0, 4.0, 6.0])

    def test_sample_without_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n9.0,1.0,2.0\n")
        sample = load_sample(path)
        assert sample.p == 2

    @pytest.mark.parametrize("loader", [load_sample, load_points])
    def test_unreadable_files_are_config_errors_naming_the_path(self, tmp_path, loader):
        missing, not_utf8 = tmp_path / "missing.csv", tmp_path / "latin1.csv"
        not_utf8.write_bytes("x,\u00e9\n1,2\n3,4\n5,6\n".encode("latin-1"))
        with pytest.raises(ConfigError, match="^" + re.escape(f"cannot read data file {missing}: No such file")):
            loader(missing)
        with pytest.raises(ConfigError, match="^" + re.escape(f"cannot read data file {not_utf8}: 'utf-8' codec")):
            loader(not_utf8)
        with pytest.raises(ConfigError, match="^" + re.escape(f"cannot read data file {tmp_path}: Is a directory")):
            loader(tmp_path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ConfigError, match="fields"):
            load_sample(path)

    def test_single_column_rejected_for_samples(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ConfigError, match="columns"):
            load_sample(path)

    def test_garbage_line_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\nfoo,bar\n")
        with pytest.raises(ConfigError, match="not numeric"):
            load_sample(path)

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("loader", [load_sample, load_points])
    def test_non_finite_entry_rejected_naming_the_path(self, tmp_path, loader, field):
        path = tmp_path / "d.csv"
        path.write_text(f"1.0,2.0\n{field},3.0\n4.0,5.0\n")
        with pytest.raises(ConfigError, match="^" + re.escape(f"{path}: ") + ".*finite"):
            loader(path)

    def test_too_few_rows_rejected_naming_the_path(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        with pytest.raises(ConfigError, match="^" + re.escape(f"{path}: need n >= p + 1")):
            load_sample(path)


def _reference_rows(path):
    # the line-by-line reader the loaders have always followed
    rows = []
    width = None
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [part.strip() for part in line.split(",")]
            try:
                row = [float(part) for part in parts]
            except ValueError:
                if not rows and lineno <= 2:
                    continue
                raise ConfigError(f"{path}: line {lineno} is not numeric: {line!r}")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ConfigError(f"{path}: line {lineno} has {len(row)} fields, expected {width}")
            rows.append(row)
    if not rows:
        raise ConfigError(f"{path}: no data rows found")
    return np.array(rows)


def _outcome(reader, path):
    """Rows as (shape, bit patterns), or the error message."""
    try:
        rows = reader(path)
    except ConfigError as exc:
        return str(exc)
    return rows.shape, rows.view(np.uint64).tolist()


FILES = {
    "header_line_1": "x,y\n1,2\n3,4\n",
    "header_line_2": "\nx,y\n1,2\n3,4\n",
    "comment_then_header": "# made by hand\nx,y\n1,2\n",
    "two_header_lines": "x,y\nu,v\n1,2\n",
    "header_line_3": "\n\nx,y\n1,2\n",
    "comment_lines": "1,2\n# between rows\n3,4\n",
    "inline_comment": "1,2 # note\n3,4\n",
    "crlf": "x,y\r\n1,2\r\n3,4\r\n",
    "cr": "1,2\r3,4\r",
    "spaces_around_fields": " 1 , 2 \n\t3,4  \n",
    "unicode_space": "1,\u20032\n3,4\u2003\n",
    "nan_inf": "nan,inf\n-inf,-nan\nNaN,Infinity\n1e308,4.9e-324\n1e400,-0.0\n",
    "underscores": "1_000,2\n3,4_5\n",
    "ragged": "1,2\n3\n",
    "ragged_same_total": "1,2,3\n4\n5,6,7,8,9\n",
    "non_numeric_line_3": "x,y\n1,2\nfoo,3\n",
    "non_numeric_line_2": "1,2\nfoo,3\n",
    "blank_lines": "1,2\n\n3,4\n   \n",
    "no_final_newline": "1,2\n3,4",
    "trailing_delimiter": "1,2,\n3,4,\n",
    "empty_field": "1,,2\n3,4,5\n",
    "form_feed": "1,2\x0c\n3,4\n",
    "single_column": "v\n1\n2\n",
    "empty": "",
    "header_only": "x,y\n",
    # other separators: the fields do not split, so no line is numeric
    "tab_separated": "1\t2\t\n3\t4\n",
    "space_separated": "1 2\n 3 4\n",
    "semicolon_separated": "1;2\n3 ;4 \n",
    "space_separated_header": "x y\n1 2\n3 4\n",
}


class TestLoaderMatchesLineReader:
    """Every file reads as the line-by-line reader reads it: the same bits,
    or the same error with its line number.  The rows come from the parser
    both loaders share, which keeps non-finite fields; the loaders then
    refuse them."""

    @pytest.mark.parametrize("name", sorted(FILES))
    def test_comma_files(self, tmp_path, name):
        path = tmp_path / "d.csv"
        path.write_bytes(FILES[name].encode())
        assert _outcome(_parse_rows, path) == _outcome(_reference_rows, path)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(allow_nan=False), min_size=3, max_size=3),
            min_size=1,
            max_size=20,
        ),
        st.sampled_from([repr, lambda v: "%.17g" % v]),
        st.booleans(),
    )
    def test_written_floats_read_back_bit_identical(self, tmp_path_factory, rows, fmt, header):
        path = tmp_path_factory.mktemp("floats") / "d.csv"
        lines = ["x1,x2,y"] if header else []
        lines += [",".join(fmt(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
        expected = np.array(rows, dtype=float)
        assert _parse_rows(path).view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        assert _outcome(_parse_rows, path) == _outcome(_reference_rows, path)
