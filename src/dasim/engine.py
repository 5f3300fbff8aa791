"""Execution of packed per-PE programs against the banked L1.

A program is a list of barrier-delimited phases, each one packed chunk
of per-PE op columns (loads, stores, compute bursts, barriers and DMA
handshakes) with addresses already resolved to (bank, level), plus the
DMA transfers the handshakes name, a DmaTransfer list in id order; the
kernels' PlanBuilder writes both. A compute burst's result latency is
its class's, from EngineParams. The engine issues at most one
operation per PE per cycle in order, tracks a bounded window of
outstanding memory operations, serializes bank access (one request per
cycle per bank, FIFO) and throttles traffic at tile boundaries with a
limited number of ports per hierarchy level. Every cycle of every PE
ends up in exactly one accounting bucket: issued, LSU, RAW, INS or WFI.
"""

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import _stepper
from ._stepper import (ACC_INS, ACC_ISSUED, ACC_LSU, ACC_RAW, ACC_WFI,
                       DEP_RING, step_segment)
from .remap import MapConfig, interleaved, region_of, resolve_array, segment_transfer
from .report import PhaseStats, SimReport
from .topology import ClusterTopology


ALLOC_COST = 64     # cycles charged per heap allocation


@dataclass(frozen=True)
class EngineParams:
    """Timing and contention knobs of the model."""

    window: int = 4                 # outstanding memory ops per PE
    lat_alu: int = 1
    lat_mac: int = 4
    lat_div: int = 12
    out_ports: int = 1              # per tile, per level, requests/cycle out
    in_ports: int = 1               # per tile, per level, requests/cycle in
    dma_words_per_cycle: int = 4    # per backend
    l2_latency: int = 100           # transfer initiation
    alloc_cost: int = ALLOC_COST    # reported only; PlanBuilder charges ALLOC_COST
    ins_stall_prob: float = 0.0
    ins_seed: int = 0

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.out_ports < 1 or self.in_ports < 1:
            raise ValueError("port counts must be at least 1")
        if self.ins_stall_prob < 0 or self.ins_stall_prob > 1:
            raise ValueError("ins_stall_prob must be in [0, 1]")
        if self.ins_stall_prob > 0 and self.ins_seed == 0:
            raise ValueError("a nonzero ins_seed is required with ins_stall_prob > 0")

    def class_latency(self) -> np.ndarray:
        return np.array([self.lat_alu, self.lat_mac, self.lat_div], dtype=np.int64)

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in (
            "window", "lat_alu", "lat_mac", "lat_div", "out_ports", "in_ports",
            "dma_words_per_cycle", "l2_latency", "alloc_cost",
            "ins_stall_prob", "ins_seed")}


class SimulationFault(Exception):
    """Aborting condition detected during simulation."""


# -- DMA ----------------------------------------------------------------------

@dataclass
class DmaTransfer:
    """One block transfer between abstract L2 and an L1 range.

    ``segments`` are (backend, words) pairs cut at the destination's
    layout boundaries; disjoint sub-requests land through the per-
    subgroup backends.
    """

    id: int
    src: tuple
    dst: tuple
    segments: list = field(default_factory=list)


def build_transfer(topo: ClusterTopology, regions: Sequence[MapConfig],
                   tid: int, src: tuple, dst: tuple) -> DmaTransfer:
    """Segment a transfer against the mapping region covering its dst."""
    cfg = region_of(regions, dst[0])
    pieces = segment_transfer(topo, cfg or interleaved(), src, dst)
    banks_per_sub = topo.banks_per_tile * topo.tiles_per_subgroup
    segments = []
    for (_, _), (d0, d1) in pieces:
        bank, _ = resolve_array(topo, [cfg] if cfg else [], np.array([d0]))
        backend = int(bank[0]) // banks_per_sub
        segments.append((backend, (d1 - d0) // topo.word_bytes))
    return DmaTransfer(id=tid, src=src, dst=dst, segments=segments)


# -- packed program representation --------------------------------------------

_COLS = ("kind", "cls", "arg", "bank", "level", "dep1", "dep2")   # step_segment's order


@dataclass
class PackedChunk:
    """Rectangular per-PE op arrays; rows padded to the longest stream."""

    cols: dict
    n_ops: np.ndarray


@dataclass
class Phase:
    """Segment of the run ending (unless terminal) in a global barrier.

    ``chunks`` holds exactly one PackedChunk.
    """

    name: str
    chunks: list
    barrier: bool = True


def make_chunk(columns: list, n_pe: int) -> PackedChunk:
    """Build a chunk from per-PE dicts of 1-D column arrays.

    Each packed column takes the dtype of its per-PE arrays; rows are
    zero past each PE's ops.
    """
    n_ops = np.array([len(c["kind"]) for c in columns], dtype=np.int64)
    cap = max(1, int(n_ops.max()))
    cols = {name: np.zeros((n_pe, cap), dtype=columns[0][name].dtype) for name in _COLS}
    for pe, c in enumerate(columns):
        n = n_ops[pe]
        if n:
            for name in _COLS:
                cols[name][pe, :n] = c[name]
    return PackedChunk(cols=cols, n_ops=n_ops)


# -- engine state and run ------------------------------------------------------

_FAULT_TEXT = {
    _stepper.FAULT_DMA_RESTART: "transfer {} started twice",
    _stepper.FAULT_DMA_UNKNOWN: "unknown transfer {}",
    _stepper.FAULT_BARRIER_NOT_LAST: "barrier at op {} not at segment end",
    _stepper.FAULT_DMA_NEVER_STARTED: "wait on transfer {}, which no PE starts",
}


class _State:
    """Stepper state carried from phase to phase, as Python lists.

    The dependence rings, n_pe x DEP_RING slots, stay numpy arrays and
    are passed as memoryviews: as lists they would take a pointer per
    slot (32 MiB per ring at 1024 PEs) plus the int objects.
    """

    def __init__(self, topo: ClusterTopology, params: EngineParams,
                 n_transfers: int):
        n_pe = topo.n_pes
        self.abs_idx = [0] * n_pe
        self.t_free = [0] * n_pe
        self.ready = memoryview(np.zeros((n_pe, DEP_RING), dtype=np.int64))
        self.ready_kind = memoryview(np.zeros((n_pe, DEP_RING), dtype=np.uint8))
        self.win = [[0] * params.window for _ in range(n_pe)]
        self.ins_done = [-1] * n_pe
        self.bank_next = [0] * topo.n_banks
        self.out_next = [0] * (topo.n_tiles * 4 * params.out_ports)
        self.in_next = [0] * (topo.n_tiles * 4 * params.in_ports)
        self.transfer_done = [-1] * n_transfers
        self.backend_next = [0] * topo.n_subgroups


def run_packed(topo: ClusterTopology, params: EngineParams,
               phases: Sequence[Phase], dma: Sequence[DmaTransfer] = (),
               meta: Optional[dict] = None,
               alloc_events: Optional[list] = None) -> SimReport:
    """Execute packed phases and assemble the report.

    ``dma`` lists the transfers in id order, ids 0 to n-1.
    """
    ids = [t.id for t in dma]
    if ids != list(range(len(ids))):
        raise ValueError(f"transfer ids must run 0..{len(ids) - 1} in order, got {ids}")
    segments = [t.segments for t in dma]
    st = _State(topo, params, len(segments))
    n_pe = topo.n_pes
    level_lat = list(topo.level_latency)
    class_lat = params.class_latency().tolist()
    totals = np.zeros((n_pe, 5), dtype=np.int64)
    phase_rows = []
    clock = 0
    for phase in phases:
        (chunk,) = phase.chunks
        acct = [[0] * 5 for _ in range(n_pe)]
        start = clock
        clock, fault = step_segment(
            *(memoryview(chunk.cols[c]) for c in _COLS), chunk.n_ops.tolist(),
            st.abs_idx, st.t_free, st.ready, st.ready_kind, st.win, acct, st.ins_done,
            st.bank_next, st.out_next, st.in_next,
            segments, st.transfer_done, st.backend_next,
            level_lat, class_lat, params.out_ports, params.in_ports,
            topo.pes_per_tile, topo.banks_per_tile,
            params.l2_latency, params.dma_words_per_cycle,
            params.ins_stall_prob, params.ins_seed,
            phase.barrier, clock,
        )
        if fault:
            code, pe, detail = fault
            raise SimulationFault(
                f"{_FAULT_TEXT[code].format(detail)} (PE {pe}, "
                f"phase {phase.name!r}, cycle {clock})")
        acct = np.array(acct, dtype=np.int64)
        totals += acct
        # PEs in a non-barrier terminal phase end at their own time
        if not phase.barrier:
            clock = max(st.t_free)
        st.t_free = [clock] * n_pe
        phase_rows.append(PhaseStats(
            name=phase.name, start=start, end=clock,
            issued=int(acct[:, ACC_ISSUED].sum()), lsu=int(acct[:, ACC_LSU].sum()),
            raw=int(acct[:, ACC_RAW].sum()), ins=int(acct[:, ACC_INS].sum()),
            wfi=int(acct[:, ACC_WFI].sum())))
        # idle fill so every PE's ledger covers the common phase end
        gap = clock - start - acct.sum(axis=1)
        totals[:, ACC_WFI] += gap
    per_pe = {
        "cycles_total": np.full(n_pe, clock, dtype=np.int64),
        "instr_issued": totals[:, ACC_ISSUED].copy(),
        "lsu_stall": totals[:, ACC_LSU].copy(),
        "raw_stall": totals[:, ACC_RAW].copy(),
        "ins_stall": totals[:, ACC_INS].copy(),
        "wfi_stall": totals[:, ACC_WFI].copy(),
    }
    return SimReport(
        topology=_topo_json(topo), params=params.to_json(),
        meta=meta or {}, cycles=clock, per_pe=per_pe, phases=phase_rows,
        alloc_events=alloc_events or [])


def _topo_json(topo: ClusterTopology) -> dict:
    return {
        "pes_per_tile": topo.pes_per_tile, "banks_per_tile": topo.banks_per_tile,
        "tiles_per_subgroup": topo.tiles_per_subgroup,
        "subgroups_per_group": topo.subgroups_per_group, "groups": topo.groups,
        "rows_per_bank": topo.rows_per_bank, "word_bytes": topo.word_bytes,
        "level_latency": list(topo.level_latency),
    }
