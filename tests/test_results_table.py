"""The table of committed results (``tools/results.py``) covers ``results/``.

Every file under ``results/`` has exactly one entry naming its producer
and its gate, every entry's file and producer exist, and every bench is
some file's producer, so a result nothing regenerates, or a bench whose
output nothing gates, fails here.
"""

from __future__ import annotations

import importlib.util
import pathlib
import shlex

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parents[1]

SPEC = importlib.util.spec_from_file_location(
    "results_table", ROOT / "tools" / "results.py"
)
table = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(table)


def test_every_result_file_has_one_entry():
    on_disk = {p.name for p in (ROOT / "results").iterdir() if p.is_file()}
    claimed = [result.file for result in table.RESULTS]
    assert len(claimed) == len(set(claimed)), "a file has two entries"
    assert sorted(on_disk - set(claimed)) == [], "files no entry claims"
    assert sorted(set(claimed) - on_disk) == [], "entries whose file is missing"
    with pytest.raises(ValueError, match="not in the table"):
        table.claim("unclaimed.txt")


def test_every_producer_exists_and_every_bench_is_named():
    for result in table.RESULTS:
        assert result.gate in table.GATES, result
        if result.producer == table.BY_HAND:
            assert result.gate == table.BUDGET, result
            continue
        words = shlex.split(result.producer)
        if result.bench:
            assert (ROOT / result.producer).is_file(), result
        elif words[1:3] == ["-m", "repro"]:
            build_parser().parse_args(words[3:])
        else:
            assert (ROOT / words[1]).is_file(), result
    named = {result.producer for result in table.RESULTS if result.bench}
    benches = {
        f"benchmarks/{p.name}" for p in (ROOT / "benchmarks").glob("bench_*.py")
    }
    assert sorted(benches - named) == [], "benches no entry names"
