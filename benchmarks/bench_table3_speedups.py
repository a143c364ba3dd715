"""Table 3 — the paper's headline result.

Runs all five synthetic SPLASH-2 models on the 32-processor Table 1
system under TTS, QOLB and IQOLB (plus the 1-processor TTS run for
absolute speedup), prints the regenerated Table 3, and asserts the
paper's qualitative claims:

* QOLB consistently outperforms TTS (paper §5);
* Barnes and Water are relatively insensitive (small gains);
* the other benchmarks show gains "in excess of 30%" — multiples, for
  Radiosity and Raytrace;
* IQOLB tracks QOLB: "although usually slower, IQOLB is never more than
  2% slower than QOLB" — we allow a slightly wider band (7%) for the
  reproduction's different substrate.
"""

from conftest import PAPER_TABLE3, once, publish, result_path
from repro.harness.experiment import table3
from repro.harness.tables import render_table3

#: Smoke mode: an 8-processor machine with half the work per app.
#: total_work must divide n_processors x phases for every model.
SMOKE_PROCS = 8
SMOKE_MODEL = {"total_work": 320}


def test_table3_regenerates(benchmark, smoke, jobs, result_cache):
    n_procs = SMOKE_PROCS if smoke else 32
    overrides = SMOKE_MODEL if smoke else None
    rows, _ = once(
        benchmark,
        table3,
        n_procs,
        n_jobs=jobs,
        cache=result_cache,
        model_overrides=overrides,
        metrics_out=str(result_path("BENCH_table3.json")),
    )
    text = render_table3(rows, n_processors=n_procs)
    lines = [text, "", "paper-vs-measured:"]
    for row in rows:
        paper_abs, paper_qolb, paper_iqolb = PAPER_TABLE3[row.benchmark]
        lines.append(
            f"  {row.benchmark:10s} abs {row.tts_absolute_speedup:5.2f} "
            f"(paper {paper_abs:5.2f})  qolb {row.qolb_speedup:5.2f} "
            f"({paper_qolb:5.2f})  iqolb {row.iqolb_speedup:5.2f} "
            f"({paper_iqolb:5.2f})"
        )
    publish("table3", "\n".join(lines))

    if smoke:
        # Sweep-level sanity: every cell simulated and sensible; the
        # calibrated Table 3 claims only hold on the 32-processor system.
        assert len(rows) == 5
        for row in rows:
            assert row.tts_cycles > 0 and row.uniprocessor_cycles > 0
            assert row.qolb_speedup > 0.9
        return

    by_name = {row.benchmark: row for row in rows}

    # QOLB consistently outperforms TTS.
    for row in rows:
        assert row.qolb_speedup >= 0.99, f"{row.benchmark}: QOLB lost to TTS"

    # Sync-insensitive apps: small gains.  Sync-sensitive: large gains.
    assert by_name["barnes"].qolb_speedup < 1.25
    assert by_name["water-nsq"].qolb_speedup < 1.25
    assert by_name["ocean"].qolb_speedup > 1.3
    assert by_name["radiosity"].qolb_speedup > 3.0
    assert by_name["raytrace"].qolb_speedup > 5.0

    # Raytrace scales terribly under TTS; Water scales superbly.
    assert by_name["raytrace"].tts_absolute_speedup < 3.0
    assert by_name["water-nsq"].tts_absolute_speedup > 12.0

    # The key result: IQOLB tracks QOLB closely.
    for row in rows:
        ratio = row.iqolb_speedup / row.qolb_speedup
        assert ratio > 0.93, (
            f"{row.benchmark}: IQOLB {row.iqolb_speedup:.2f} trails QOLB "
            f"{row.qolb_speedup:.2f} by more than 7%"
        )
