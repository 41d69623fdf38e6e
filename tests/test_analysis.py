"""Analysis helpers: tables, bars, geomean, runner."""

import pytest

from repro.analysis import (ascii_bars, format_table, geomean, matrix_cells,
                            run_benchmark, run_sweep, speedup_summary)
from repro.kernels import get
from repro.kernels.base import CheckFailure
from repro.sim.config import scaled_fermi


def test_format_table_alignment():
    text = format_table(("name", "value"), [("a", 1), ("longer", 2.5)], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[2]
    assert "longer" in lines[-1]
    assert "2.500" in text  # floats formatted


def test_format_table_empty_rows():
    text = format_table(("x",), [])
    assert "x" in text


def test_ascii_bars_reference_marker():
    text = ascii_bars([("a", 2.0), ("b", 0.5)], width=20, reference=1.0)
    assert "|" in text
    assert "a" in text and "b" in text


def test_ascii_bars_empty():
    assert ascii_bars([]) == "(no data)"


def test_geomean_basics():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_speedup_summary_mentions_extremes():
    text = speedup_summary({"fast": 2.0, "slow": 0.5})
    assert "fast" in text and "slow" in text and "geomean" in text
    assert speedup_summary({}) == "no data"


def test_run_benchmark_checks_output():
    record = run_benchmark(get("vecadd"), scaled_fermi(1), scale=0.25)
    assert record.cycles > 0
    assert record.arch == "baseline"
    assert record.ipc > 0


def test_matrix_cells_cover_all_pairs():
    cells = matrix_cells([get("vecadd")], ("baseline", "vt"), scaled_fermi(1), 0.25)
    records = run_sweep(cells).records
    assert set(records) == {("vecadd", "baseline"), ("vecadd", "vt")}
    assert records[("vecadd", "vt")].arch == "vt"
