"""The CSV text formatter: float cells are repr's, integer and bool cells str's, text cells csv.writer's."""

import csv
import io

import numpy as np

from collapsim._csvtext import _VECTOR_ROWS, block_text, cells


def _one_column(values):
    return block_text([values]).split("\n")[:-1]


def test_float_cells_are_repr():
    powers = [2.0**k for k in range(-1074, 1024)]
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 9.999999999999999e-05, 0.0001, 9999999999999998.0, 1e16, 1e22,
             1e23, 5e-324, 1.7976931348623157e308]
    patterns = np.random.default_rng(20260).integers(0, 2**64, size=200_000, dtype=np.uint64, endpoint=False)
    values = np.concatenate([powers, np.negative(powers), edges, patterns.view(np.float64)])
    assert len(powers) == 2098
    assert _one_column(values) == [repr(v) for v in values.tolist()]
    assert _one_column(np.array(edges)) == [repr(v) for v in edges]  # fewer than _VECTOR_ROWS: str of each


def _long(values, dtype=None):
    """``values`` repeated past ``_VECTOR_ROWS``, so the column takes the array path."""
    return np.resize(np.array(values, dtype=dtype), 2 * _VECTOR_ROWS + 1)


def test_float_cells_of_other_widths_are_the_doubles_repr():
    values = _long([0.1, -2.5, 1e-7, 3e20], np.float32)
    assert _one_column(values) == [repr(v) for v in values.tolist()]


def test_integer_and_bool_cells_are_str():
    edges = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 9, 10, -10000, 123456789]
    for values in (_long(edges), _long([2**64 - 1, 0, 10**19], np.uint64), _long([0, 7, -128], np.int8),
                   _long([True, False, True]), np.array(edges)):
        assert _one_column(values) == [str(v) for v in values.tolist()]


def test_text_cells_keep_nul_and_non_ascii_as_csv_writer_writes_them():
    rows = [["a\0b", 1.5, "é,\"x\""], ["\0", -2, "naïve"], ["", 0.0, "end\0"]]
    text = block_text([[row[k] for row in rows] for k in range(3)])
    want = io.StringIO(newline="")
    csv.writer(want, lineterminator="\n").writerows(rows)
    assert text == want.getvalue()


def test_cells_pick_rows_of_a_table_formatted_once():
    times = cells(np.array([0.25, -1e-9]))
    labels = cells(["up", "down", "undecided"])
    codes = np.array([1, 0, 0, -1])  # -1 picks the last entry, as the undecided code does
    assert block_text([times.take(codes % 2, axis=0), labels.take(codes, axis=0), [7, 7, 7, 7]]) == (
        "-1e-09,down,7\n0.25,up,7\n0.25,up,7\n-1e-09,undecided,7\n")
    assert block_text([labels.take(codes, axis=0)[1:3], times[:2]]) == "up,0.25\nup,-1e-09\n"
