import csv
import json
from dataclasses import fields

import numpy as np
import pytest

from dasim import _stepper, terapool_default
from dasim.kernels.gemv import gen_gemv
from dasim.kernels.plan import run_plan
from dasim.report import (LEDGER, PhaseStats, SimReport, markdown_table,
                          write_stacked_bar_csv)


def two_pe_report(scheme, speedup=None):
    # PE 0: 6 issued, 2 LSU, 1 RAW, 1 WFI; PE 1: 4 issued, 1 INS, 5 WFI
    per_pe = {"cycles_total": [10, 10], "instr_issued": [6, 4],
              "lsu_stall": [2, 0], "raw_stall": [1, 0], "ins_stall": [0, 1],
              "wfi_stall": [1, 5]}
    phases = [PhaseStats("config", 0, 4, issued=4, lsu=1, raw=0, ins=1, wfi=2),
              PhaseStats("compute", 4, 7, issued=3, lsu=1, raw=0, ins=0, wfi=2),
              PhaseStats("compute", 7, 10, issued=3, lsu=0, raw=1, ins=0, wfi=2),
              PhaseStats("reduce", 10, 10, issued=0, lsu=0, raw=0, ins=0, wfi=0)]
    return SimReport(
        topology={"pes_per_tile": 2}, params={"window": 4},
        meta={"kernel": "gemv", "scheme": scheme, "workload": "8x8",
              "n_parallel": 2},
        cycles=10, per_pe={k: np.array(v, dtype=np.int64) for k, v in per_pe.items()},
        phases=phases, speedup=speedup,
        alloc_events=[{"phase": "config", "operand": "a", "size_bytes": 64,
                       "mapping": {"kind": "interleaved"}}])


def test_markdown_table():
    reports = [two_pe_report("das", speedup=1.25), two_pe_report("interleaved")]
    assert markdown_table(reports) == (
        "| Mapping Scheme | Workload Dimension | #Parallel | Utilization (IPC) | Speedup |\n"
        "|---|---|---|---|---|\n"
        "| das | 8x8 | 2 | 0.50 | 1.25x |\n"
        "| interleaved | 8x8 | 2 | 0.50 | - |\n")


def test_stacked_bar_csv_merges_stages_and_skips_empty_ones(tmp_path):
    path = tmp_path / "bars.csv"
    write_stacked_bar_csv(path, [two_pe_report("das")])
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows == [
        {"scheme": "das", "kernel": "gemv", "stage": "config", "cycles": "4",
         "issued_frac": "0.5", "lsu_frac": "0.125", "raw_frac": "0.0",
         "ins_frac": "0.125", "wfi_frac": "0.25"},
        {"scheme": "das", "kernel": "gemv", "stage": "compute", "cycles": "6",
         "issued_frac": "0.5", "lsu_frac": "0.083333", "raw_frac": "0.083333",
         "ins_frac": "0.0", "wfi_frac": "0.333333"},
    ]


def test_ledger_follows_the_stepper_columns():
    # each bucket's stepper column, per-PE report key and PhaseStats field
    buckets = [("ACC_ISSUED", "instr_issued", "issued"),
               ("ACC_LSU", "lsu_stall", "lsu"), ("ACC_RAW", "raw_stall", "raw"),
               ("ACC_INS", "ins_stall", "ins"), ("ACC_WFI", "wfi_stall", "wfi")]
    assert len(LEDGER) == _stepper.ACC_WIDTH
    assert [getattr(_stepper, acc) for acc, _, _ in buckets] == list(range(len(buckets)))
    assert LEDGER == tuple((key, name) for _, key, name in buckets)
    assert [f.name for f in fields(PhaseStats)] == ["name", "start", "end",
                                                    *(name for _, name in LEDGER)]


def test_conservation_names_the_leaking_pe():
    r = two_pe_report("das")
    r.check_conservation()
    r.per_pe["wfi_stall"][1] -= 1
    with pytest.raises(AssertionError, match="leak on PE 1:"):
        r.check_conservation()


def test_conservation_names_the_leaking_phase():
    # per-PE totals that add up do not excuse a phase row that does not
    r = two_pe_report("das")
    r.phases[1].wfi -= 1
    with pytest.raises(AssertionError, match=r"leak in phase 'compute' \(4-7\)"):
        r.check_conservation()


def _one_pe_report():
    r = two_pe_report("interleaved")
    r.per_pe = {k: v[:1] for k, v in r.per_pe.items()}
    return r


def _labelled_report():
    r = two_pe_report("das", speedup=1.25)
    r.baseline = "interleaved"
    return r


def _terapool_reports():
    return [run_plan(gen_gemv(terapool_default(), 256, 256, 1, s))
            for s in ("das", "interleaved")]


# each case's reports: 2 PEs, 1 PE, speedup and baseline set, and both
# schemes' reports of a 1,024-PE plan
JSON_CASES = {"two-pe": lambda: [two_pe_report("das")], "one-pe": lambda: [_one_pe_report()],
              "labelled": lambda: [_labelled_report()], "terapool": _terapool_reports}


@pytest.mark.parametrize("case", JSON_CASES)
def test_to_json_str_writes_what_json_dumps_writes(case):
    for r in JSON_CASES[case]():
        got, want = r.to_json_str(), json.dumps(r.to_json(), sort_keys=True, indent=1)
        if got != want:     # pytest's own diff of a 1,024-PE report takes minutes
            at = next(i for i, (a, b) in enumerate(zip(got + "\0", want + "\0")) if a != b)
            pytest.fail(f"from byte {at}: {got[at:at + 40]!r}, not {want[at:at + 40]!r}")
