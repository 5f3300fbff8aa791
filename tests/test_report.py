import csv
import json

import numpy as np
import pytest

from dasim.report import (PhaseStats, SimReport, markdown_table,
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


def test_per_pe_csv(tmp_path):
    path = tmp_path / "pes.csv"
    two_pe_report("das").write_csv(path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows == [
        ["pe", "cycles_total", "instr_issued", "lsu_stall", "raw_stall",
         "ins_stall", "wfi_stall", "ipc"],
        ["0", "10", "6", "2", "1", "0", "1", "0.6"],
        ["1", "10", "4", "0", "0", "1", "5", "0.4"],
    ]


def test_json_round_trip():
    r = two_pe_report("das", speedup=1.25)
    r.check_conservation()
    back = SimReport.from_json(json.loads(r.to_json_str()))
    assert back.to_json_str() == r.to_json_str()
    assert SimReport.from_json(r.to_json()).to_json_str() == r.to_json_str()
    with pytest.raises(ValueError):
        SimReport.from_json({**r.to_json(), "schema": "other"})
