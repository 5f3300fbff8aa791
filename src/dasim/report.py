"""Simulation reports: per-PE stall ledgers, phase breakdowns, tables.

A report serializes losslessly to JSON, dumps per-PE rows as CSV and
renders an aggregate markdown table with the usual benchmark columns
(mapping scheme, workload dimension, parallel count, utilization,
speedup).
"""

import csv
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

STALL_FIELDS = ("instr_issued", "lsu_stall", "raw_stall", "ins_stall", "wfi_stall")


@dataclass
class PhaseStats:
    name: str
    start: int
    end: int
    issued: int
    lsu: int
    raw: int
    ins: int
    wfi: int

    @property
    def cycles(self) -> int:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "issued": self.issued, "lsu": self.lsu, "raw": self.raw,
                "ins": self.ins, "wfi": self.wfi}

    @classmethod
    def from_json(cls, d: dict) -> "PhaseStats":
        return cls(**d)


@dataclass
class SimReport:
    topology: dict
    params: dict
    meta: dict
    cycles: int
    per_pe: dict
    phases: list
    alloc_events: list = field(default_factory=list)
    speedup: Optional[float] = None
    baseline: Optional[str] = None

    @property
    def n_pe(self) -> int:
        return len(self.per_pe["instr_issued"])

    @property
    def utilization(self) -> float:
        """Mean IPC: fraction of issue slots carrying an instruction."""
        if self.cycles == 0:
            return 0.0
        return float(self.per_pe["instr_issued"].sum()) / (self.n_pe * self.cycles)

    def check_conservation(self) -> None:
        total = sum(self.per_pe[f] for f in STALL_FIELDS)
        if not np.array_equal(total, self.per_pe["cycles_total"]):
            bad = int(np.nonzero(total != self.per_pe["cycles_total"])[0][0])
            raise AssertionError(
                f"stall accounting leak on PE {bad}: "
                f"{[int(self.per_pe[f][bad]) for f in STALL_FIELDS]} vs "
                f"{int(self.per_pe['cycles_total'][bad])}")

    def stage_rows(self) -> list:
        """Phases merged by name, in order of first appearance."""
        order, merged = [], {}
        for ph in self.phases:
            if ph.name not in merged:
                merged[ph.name] = {"name": ph.name, "cycles": 0, "issued": 0,
                                   "lsu": 0, "raw": 0, "ins": 0, "wfi": 0}
                order.append(ph.name)
            m = merged[ph.name]
            m["cycles"] += ph.cycles
            for f in ("issued", "lsu", "raw", "ins", "wfi"):
                m[f] += getattr(ph, f)
        rows = []
        for name in order:
            m = merged[name]
            slots = m["cycles"] * self.n_pe
            m["utilization"] = m["issued"] / slots if slots else 0.0
            rows.append(m)
        return rows

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "schema": "dasim-report-v1",
            "topology": self.topology,
            "params": self.params,
            "meta": self.meta,
            "cycles": self.cycles,
            "utilization": self.utilization,
            "speedup": self.speedup,
            "baseline": self.baseline,
            "per_pe": {k: np.asarray(v).tolist() for k, v in self.per_pe.items()},
            "phases": [p.to_json() for p in self.phases],
            "alloc_events": self.alloc_events,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, d: dict) -> "SimReport":
        if d.get("schema") != "dasim-report-v1":
            raise ValueError(f"not a report file (schema {d.get('schema')!r})")
        return cls(
            topology=d["topology"], params=d["params"], meta=d["meta"],
            cycles=d["cycles"],
            per_pe={k: np.array(v, dtype=np.int64) for k, v in d["per_pe"].items()},
            phases=[PhaseStats.from_json(p) for p in d["phases"]],
            alloc_events=d.get("alloc_events", []),
            speedup=d.get("speedup"), baseline=d.get("baseline"))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["pe", "cycles_total"] + list(STALL_FIELDS) + ["ipc"])
            ct = self.per_pe["cycles_total"]
            for pe in range(self.n_pe):
                issued = int(self.per_pe["instr_issued"][pe])
                total = int(ct[pe])
                w.writerow([pe, total] +
                           [int(self.per_pe[f][pe]) for f in STALL_FIELDS] +
                           [round(issued / total, 6) if total else 0.0])


def markdown_table(reports: Sequence[SimReport]) -> str:
    """Aggregate comparison table across runs."""
    header = ("| Mapping Scheme | Workload Dimension | #Parallel | "
              "Utilization (IPC) | Speedup |")
    rule = "|---|---|---|---|---|"
    lines = [header, rule]
    for r in reports:
        sp = f"{r.speedup:.2f}x" if r.speedup is not None else "-"
        lines.append(
            f"| {r.meta.get('scheme', '?')} "
            f"| {r.meta.get('workload', '?')} "
            f"| {r.meta.get('n_parallel', 1)} "
            f"| {r.utilization:.2f} "
            f"| {sp} |")
    return "\n".join(lines) + "\n"


def stacked_bar_rows(reports: Sequence[SimReport]) -> list:
    """Phase x stall-category fractions, one row per (run, stage).

    Plot-ready: fractions of the stage's issue slots spent issuing or in
    each stall class.
    """
    rows = []
    for r in reports:
        for m in r.stage_rows():
            slots = m["cycles"] * r.n_pe
            if slots == 0:
                continue
            rows.append({
                "scheme": r.meta.get("scheme", "?"),
                "kernel": r.meta.get("kernel", "?"),
                "stage": m["name"],
                "cycles": m["cycles"],
                "issued_frac": m["issued"] / slots,
                "lsu_frac": m["lsu"] / slots,
                "raw_frac": m["raw"] / slots,
                "ins_frac": m["ins"] / slots,
                "wfi_frac": m["wfi"] / slots,
            })
    return rows


def write_stacked_bar_csv(path, reports: Sequence[SimReport]) -> None:
    rows = stacked_bar_rows(reports)
    cols = ["scheme", "kernel", "stage", "cycles", "issued_frac", "lsu_frac",
            "raw_frac", "ins_frac", "wfi_frac"]
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=cols)
        w.writeheader()
        for row in rows:
            w.writerow({k: (round(v, 6) if isinstance(v, float) else v)
                        for k, v in row.items()})
