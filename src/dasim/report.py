"""Simulation reports: per-PE cycle ledgers, phase breakdowns, tables.

A report serializes to JSON and renders an aggregate markdown table with
the usual benchmark columns (mapping scheme, workload dimension, parallel
count, utilization, speedup) and plot-ready stacked-bar rows.
"""

import csv
import json
from dataclasses import asdict, dataclass, field, make_dataclass
from typing import Optional, Sequence

import numpy as np

# The cycle ledger: every cycle of every PE lands in one bucket. One row
# per bucket, in the stepper's ACC_* column order: its per-PE report key
# and its PhaseStats field. Issued work comes first, then the stalls.
LEDGER = (("instr_issued", "issued"), ("lsu_stall", "lsu"), ("raw_stall", "raw"),
          ("ins_stall", "ins"), ("wfi_stall", "wfi"))
PE_KEYS, BUCKETS = (tuple(col) for col in zip(*LEDGER))

# one phase's span and its ledger summed over PEs
PhaseStats = make_dataclass(
    "PhaseStats", [("name", str), ("start", int), ("end", int),
                   *((b, int) for b in BUCKETS)],
    namespace={"__module__": __name__,
               "cycles": property(lambda self: self.end - self.start)})


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
        return len(self.per_pe["cycles_total"])

    @property
    def utilization(self) -> float:
        """Mean IPC: fraction of issue slots carrying an instruction."""
        if self.cycles == 0:
            return 0.0
        return float(self.per_pe[PE_KEYS[0]].sum()) / (self.n_pe * self.cycles)

    def check_conservation(self) -> None:
        """Every PE's buckets sum to its cycles, and every phase row's to
        the phase's cycles times the PE count."""
        total = sum(self.per_pe[k] for k in PE_KEYS)
        if not np.array_equal(total, self.per_pe["cycles_total"]):
            bad = int(np.nonzero(total != self.per_pe["cycles_total"])[0][0])
            raise AssertionError(
                f"stall accounting leak on PE {bad}: "
                f"{[int(self.per_pe[k][bad]) for k in PE_KEYS]} vs "
                f"{int(self.per_pe['cycles_total'][bad])}")
        for ph in self.phases:
            buckets = [getattr(ph, b) for b in BUCKETS]
            if sum(buckets) != ph.cycles * self.n_pe:
                raise AssertionError(
                    f"stall accounting leak in phase {ph.name!r} ({ph.start}-{ph.end}): "
                    f"{buckets} vs {ph.cycles} cycles x {self.n_pe} PEs")

    def stage_rows(self) -> list:
        """Phases merged by name, in order of first appearance."""
        merged = {}
        for ph in self.phases:
            m = merged.setdefault(ph.name, {"name": ph.name, "cycles": 0,
                                            **dict.fromkeys(BUCKETS, 0)})
            m["cycles"] += ph.cycles
            for b in BUCKETS:
                m[b] += getattr(ph, b)
        for m in merged.values():
            slots = m["cycles"] * self.n_pe
            m["utilization"] = m[BUCKETS[0]] / slots if slots else 0.0
        return list(merged.values())

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
            "phases": [asdict(p) for p in self.phases],
            "alloc_events": self.alloc_events,
        }

    def to_json_str(self) -> str:
        """``json.dumps(self.to_json(), sort_keys=True, indent=1)``, byte for
        byte. With an indent, json formats each int in Python, one call at
        a time, so each per-PE list is spliced in as its list's repr."""
        d = self.to_json()
        per_pe = ",\n".join(f"  {json.dumps(k)}: {_int_list(v)}"
                             for k, v in sorted(d["per_pe"].items()))
        d["per_pe"] = None
        # json escapes a newline inside a string: this is the top-level key
        return json.dumps(d, sort_keys=True, indent=1).replace(
            '\n "per_pe": null', '\n "per_pe": {\n' + per_pe + "\n }", 1)


def _int_list(v: list) -> str:
    """json's text of a list of ints two levels deep at indent 1, written
    by one %-format: ``%d`` writes an int as json does."""
    return ("[\n   " + "%d,\n   " * (len(v) - 1) + "%d\n  ]") % tuple(v) if v else "[]"


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
    """Phase x ledger-bucket fractions, one row per (run, stage).

    Plot-ready: fractions of the stage's issue slots spent issuing or in
    each stall class.
    """
    rows = []
    for r in reports:
        for m in r.stage_rows():
            slots = m["cycles"] * r.n_pe
            if slots == 0:
                continue
            rows.append({"scheme": r.meta.get("scheme", "?"),
                         "kernel": r.meta.get("kernel", "?"),
                         "stage": m["name"], "cycles": m["cycles"],
                         **{f"{b}_frac": m[b] / slots for b in BUCKETS}})
    return rows


def write_stacked_bar_csv(path, reports: Sequence[SimReport]) -> None:
    cols = ["scheme", "kernel", "stage", "cycles", *(f"{b}_frac" for b in BUCKETS)]
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=cols)
        w.writeheader()
        for row in stacked_bar_rows(reports):
            w.writerow({k: (round(v, 6) if isinstance(v, float) else v)
                        for k, v in row.items()})
