import numpy as np
import pytest

from dfgof.errors import ConfigError
from dfgof.fileio import (
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


def _reference_table(header, rows, delimiter=",") -> str:
    lines = [delimiter.join(header)] + [delimiter.join(_reference_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


class TestTableFormat:
    MIXED_ROWS = [
        (0.1 + 0.2, np.float64(1.0 / 3.0), np.float32(0.1)),
        (float("inf"), -np.inf, float("nan")),
        (-0.0, 1e-320, np.float64(-5e-324)),
        (3, np.int64(-7), "label"),
        (1e300, 2.5, True),
        (0, 17, 0.4142135623730951),  # an index,anchor_index,cost row
    ]

    @pytest.mark.parametrize("delimiter", [",", "%"])
    def test_mixed_rows_match_per_value_rule(self, tmp_path, delimiter):
        target = tmp_path / "t.csv"
        write_table(target, ["a", "b", "c"], self.MIXED_ROWS, delimiter)
        assert target.read_text() == _reference_table(["a", "b", "c"], self.MIXED_ROWS, delimiter)

    def test_array_rows_match_per_value_rule(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(50, 3)) * 10.0 ** rng.integers(-300, 300, size=(50, 3))
        rows[0] = [np.inf, np.nan, -0.0]
        rows[1] = [1e-320, -np.inf, 0.0]
        target = tmp_path / "t.tsv"
        write_table(target, ["x1", "x2", "value"], rows, "\t")
        assert target.read_text() == _reference_table(["x1", "x2", "value"], [tuple(r) for r in rows], "\t")

    @pytest.mark.parametrize("delimiter", [",", "%"])
    def test_float_array_and_row_paths_write_the_same_bytes(self, tmp_path, delimiter):
        rows = np.array(
            [
                [3.0, -0.0, 0.1 + 0.2],
                [-7.0, 0.0, 1.0 / 3.0],
                [2.0**53, 12345678.901234567, -1e-320],
                [np.inf, np.nan, 0.30000000000000004],
            ]
        )
        # ints where the array holds whole floats: %s and %.17g agree
        mixed = [(3, -0.0, 0.1 + 0.2)] + [tuple(row) for row in rows.tolist()[1:]]
        array_path, row_path, mixed_path = (tmp_path / name for name in ("a.csv", "r.csv", "m.csv"))
        write_table(array_path, ["a", "b", "c"], rows, delimiter, footer="# end")
        write_table(row_path, ["a", "b", "c"], (tuple(row) for row in rows.tolist()), delimiter, footer="# end")
        write_table(mixed_path, ["a", "b", "c"], mixed, delimiter, footer="# end")
        assert array_path.read_bytes() == row_path.read_bytes() == mixed_path.read_bytes()
        assert array_path.read_text().splitlines()[1:3] == [
            delimiter.join(["3", "-0", "0.30000000000000004"]),
            delimiter.join(["-7", "0", "0.33333333333333331"]),
        ]

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
        proc = build_process(rng.normal(size=30), rng.uniform(size=(30, 2)), grid=4)
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
    def test_failure_mid_write_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.csv"

        def exploding_rows():
            yield (1.0, 2.0)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            write_table(target, ["a", "b"], exploding_rows())
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
        write_table(target, ["v"], [(value,)])
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

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("1.0\t2.0\n3.0\t4.0\n5.0\t1.0\n")
        assert load_points(path, "\t").shape == (3, 2)

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
