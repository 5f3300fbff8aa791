"""Execution of packed per-PE programs against the banked L1.

A program is a list of barrier-delimited phases, each one packed chunk
of per-PE op columns (loads, stores, compute bursts, barriers and DMA
handshakes) with addresses already resolved to (bank, level), plus the
DMA transfers the handshakes name, a DmaTransfer list indexed by
transfer id; the kernels' PlanBuilder writes both. A compute burst's
result latency is its class's, from EngineParams. The engine issues at
most one operation per PE per cycle in order, tracks a bounded window of
outstanding memory operations, serializes bank access (one request per
cycle per bank) and throttles traffic at tile boundaries with a limited
number of ports per hierarchy level. Each bank and port keeps one
next-free cycle, so it serves requests in booking order (issue cycle,
then PE id), not arrival order: a request booked later waits behind
every earlier booking, even when it reaches an idle bank first. Every
cycle of every PE ends up in exactly one bucket of report.LEDGER.
"""

from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import _stepper
from ._stepper import (ACC_WFI, ACC_WIDTH, COLS as _COLS, DEP_RING, K_COMPUTE, K_DMA_WAIT,
                       step_segment)
from .remap import MapConfig, resolve_array
from .report import PE_KEYS, PhaseStats, SimReport
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
    alloc_cost: int = ALLOC_COST    # reported; must be ALLOC_COST, charged at plan time
    ins_stall_prob: float = 0.0
    ins_seed: int = 0

    def __post_init__(self):
        for name in ("window", "lat_alu", "lat_mac", "lat_div", "out_ports", "in_ports",
                     "dma_words_per_cycle"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.l2_latency < 0:
            raise ValueError(f"l2_latency must be at least 0, got {self.l2_latency}")
        if self.alloc_cost != ALLOC_COST:
            raise ValueError(f"alloc_cost must be ALLOC_COST ({ALLOC_COST}), got {self.alloc_cost}")
        if self.ins_stall_prob < 0 or self.ins_stall_prob > 1:
            raise ValueError("ins_stall_prob must be in [0, 1]")
        if self.ins_stall_prob > 0 and self.ins_seed == 0:
            raise ValueError("a nonzero ins_seed is required with ins_stall_prob > 0")


class SimulationFault(Exception):
    """Aborting condition detected during simulation."""


# -- DMA ----------------------------------------------------------------------

@dataclass
class DmaTransfer:
    """One block transfer between abstract L2 and an L1 range.

    Its id is its index in the program's transfer list. ``segments``
    are (backend, words) pairs, one per subgroup backend that receives
    destination words, in backend order; each backend writes the words
    that land in its subgroup's banks.
    """

    src: tuple
    dst: tuple
    segments: list = field(default_factory=list)


def build_transfer(topo: ClusterTopology, regions: Sequence[MapConfig],
                   src: tuple, dst: tuple) -> DmaTransfer:
    """Count a transfer's destination words per subgroup backend.

    Every destination word resolves through ``regions`` as a load or
    store to it would, so a destination may span regions.
    """
    (s0, s1), (d0, d1) = src, dst
    if d1 <= d0:
        raise ValueError(f"transfer dst [0x{d0:x}, 0x{d1:x}) is empty or reversed")
    if s1 - s0 != d1 - d0:
        raise ValueError(f"length mismatch: src {s1 - s0} vs dst {d1 - d0}")
    if d0 % topo.word_bytes or d1 % topo.word_bytes:
        raise ValueError(f"transfer dst [0x{d0:x}, 0x{d1:x}) not word-aligned")
    banks, _ = resolve_array(topo, regions, np.arange(d0, d1, topo.word_bytes))
    words = np.bincount(banks // (topo.banks_per_tile * topo.tiles_per_subgroup))
    segments = [(backend, n) for backend, n in enumerate(words.tolist()) if n]
    return DmaTransfer(src=src, dst=dst, segments=segments)


# -- packed program representation --------------------------------------------

@dataclass
class PackedChunk:
    """Rectangular per-PE op arrays; rows padded to the longest stream.

    ``cols`` maps each _COLS name to a C-contiguous [n_pe, L] array of
    its dtype; ``n_ops`` is int64, one entry per PE. make_chunk writes it
    in batches of op-template copies, one block of the same slots of
    several PEs' rows per batch; padding and the fields an op does not
    use stay zero.
    """

    cols: dict
    n_ops: np.ndarray


@dataclass
class Phase:
    """Segment of the run; it ends in a global barrier when its streams do.

    ``chunks`` holds exactly one PackedChunk. A barrier op is the last op
    of every stream or of none.
    """

    name: str
    chunks: list


def make_chunk(n_ops: np.ndarray, batches) -> PackedChunk:
    """The zeroed chunk for per-PE op counts ``n_ops`` (int64), with
    ``batches`` written into it.

    Each batch is ``(pes, start, cols)``: k distinct PE ids and a dict of
    every _COLS name to a column of n ops, 1-D or (k x n), that fills
    slots ``start`` to ``start + n`` of each listed PE's row; a 1-D
    column (an op template's) is the same for every PE. Each column is
    written with one slice write and cast to its _COLS dtype; every slot
    no batch writes stays zero.
    """
    cap = max(1, int(n_ops.max()))
    cols = {name: np.zeros((len(n_ops), cap), dtype=dtype) for name, dtype in _COLS.items()}
    for pes, start, batch in batches:
        at = (pes, slice(start, start + batch["kind"].shape[-1]))
        for name, col in cols.items():
            col[at] = batch[name]
    return PackedChunk(cols=cols, n_ops=n_ops)


# -- engine state and run ------------------------------------------------------

_FAULT_TEXT = {
    _stepper.FAULT_DMA_RESTART: "transfer {} started twice",
    _stepper.FAULT_DMA_UNKNOWN: "unknown transfer {}",
    _stepper.FAULT_BARRIER_NOT_LAST: "barrier at op {} not at segment end",
    _stepper.FAULT_DMA_NEVER_STARTED: "wait on transfer {}, which no PE starts",
    _stepper.FAULT_BARRIER_PARTIAL: "barrier reached by {} PEs, but not this one",
}


def _check_chunk(topo: ClusterTopology, chunk: PackedChunk) -> None:
    """Reject a chunk that would lead the stepper out of bounds or to a wrong ring slot.

    The stepper trusts its input: any chunk, packed by make_chunk or
    built by hand, passes here first. The range tests read whole
    columns, padding and the fields an op does not use included
    (make_chunk and PlanBuilder zero those), but a compute count only on
    compute ops. A failure names the first bad (PE, op).
    """
    n_ops = chunk.n_ops
    if (not isinstance(n_ops, np.ndarray) or n_ops.dtype != np.int64
            or not n_ops.flags.c_contiguous or n_ops.shape != (topo.n_pes,)):
        raise ValueError(f"chunk column 'n_ops' must be a C-contiguous int64 array "
                         f"with one entry per PE ({topo.n_pes})")
    cols = chunk.cols
    for name, dtype in _COLS.items():
        col = cols.get(name)
        if (not isinstance(col, np.ndarray) or col.dtype != dtype
                or not col.flags.c_contiguous or col.ndim != 2):
            raise ValueError(f"chunk column {name!r} must be a C-contiguous 2-D "
                             f"{np.dtype(dtype).name} array")
        if col.shape != cols["kind"].shape or len(col) != topo.n_pes:
            raise ValueError(f"chunk column {name!r} has shape {col.shape}, not "
                             f"({topo.n_pes}, L) like every column")
    row = cols["kind"].shape[1]
    if n_ops.min() < 0 or n_ops.max() > row:
        raise ValueError(f"chunk column 'n_ops' must lie in [0, {row}], the row length")
    kind = cols["kind"].ravel()
    comp_at = np.flatnonzero(kind == K_COMPUTE)
    # a negative bank reads as >= 2**31; ~count > -2 is a count below 1, with no overflow
    for name, col, top, what in (
            ("kind", kind, K_DMA_WAIT, f"op kind above {K_DMA_WAIT}"),
            ("bank", cols["bank"].view(np.uint32).ravel(), topo.n_banks - 1,
             f"a bank outside [0, {topo.n_banks})"),
            ("level", cols["level"].ravel(), 3, "a level above 3"),
            ("cls", cols["cls"].ravel(), 2, "a class above 2"),
            *((d, cols[d].ravel(), DEP_RING - 1, f"a dependence {DEP_RING} or more ops back")
              for d in ("dep1", "dep2")),
            ("arg", ~cols["arg"].ravel()[comp_at], -2, "a compute count below 1")):
        if col.max(initial=top) > top:
            at = np.argmax(col > top)
            pe, i = divmod(int(comp_at[at] if name == "arg" else at), row)
            raise ValueError(f"chunk column {name!r}: {what} (PE {pe}, op {i})")


class _State:
    """One stepper run, in the arrays and integers step_segment passes to the C.

    Kept from phase to phase and updated in place by the stepper: per PE,
    the absolute index of its next op, the cycle it can next act, its
    dependence rings (each of its last DEP_RING ops' result cycle and
    kind), its window slots (the cycle each outstanding memory op
    retires) and the last op charged an INS stall; shared, each bank's
    and port's next free cycle, each transfer's completion cycle (-1
    until started) and each DMA backend's next free cycle. Fixed for the
    run: the transfers' (backend, words) segments, transfer t's at
    seg_ptr[t]:seg_ptr[t + 1]; the level and class latencies, port
    counts, tile geometry, L2 latency and DMA rate; and the INS threshold
    (the stall probability in units of 2**-53) and seed, as uint64 values.
    """

    def __init__(self, topo: ClusterTopology, params: EngineParams,
                 dma: Sequence[DmaTransfer]):
        n_pe = topo.n_pes
        self.abs_idx = np.zeros(n_pe, dtype=np.int64)
        self.t_free = np.zeros(n_pe, dtype=np.int64)
        self.ready = np.zeros((n_pe, DEP_RING), dtype=np.int64)
        self.ready_kind = np.zeros((n_pe, DEP_RING), dtype=np.uint8)
        self.win = np.zeros((n_pe, params.window), dtype=np.int64)
        self.ins_done = np.full(n_pe, -1, dtype=np.int64)
        self.bank_next = np.zeros(topo.n_banks, dtype=np.int64)
        self.out_next = np.zeros(topo.n_tiles * 4 * params.out_ports, dtype=np.int64)
        self.in_next = np.zeros(topo.n_tiles * 4 * params.in_ports, dtype=np.int64)
        self.transfer_done = np.full(len(dma), -1, dtype=np.int64)
        self.backend_next = np.zeros(topo.n_subgroups, dtype=np.int64)
        pairs = [seg for t in dma for seg in t.segments]
        self.seg_ptr = np.cumsum([0] + [len(t.segments) for t in dma], dtype=np.int64)
        self.seg_backend, self.seg_words = (
            np.array(pairs, dtype=np.int64).reshape(-1, 2).T.copy())
        if ((self.seg_backend < 0) | (self.seg_backend >= topo.n_subgroups)).any():
            raise ValueError(f"DMA segment backend outside [0, {topo.n_subgroups})")
        if (self.seg_words < 1).any():
            raise ValueError("DMA segment words must be at least 1")
        self.level_lat = np.array(topo.level_latency, dtype=np.int64)
        self.class_lat = np.array([params.lat_alu, params.lat_mac, params.lat_div],
                                  dtype=np.int64)
        self.out_ports, self.in_ports = params.out_ports, params.in_ports
        self.pes_per_tile, self.banks_per_tile = topo.pes_per_tile, topo.banks_per_tile
        self.l2_lat, self.dma_wpc = params.l2_latency, params.dma_words_per_cycle
        self.ins_thresh = int(params.ins_stall_prob * (1 << 53))
        self.ins_seed = params.ins_seed % (1 << 64)


def run_packed(topo: ClusterTopology, params: EngineParams,
               phases: Sequence[Phase], dma: Sequence[DmaTransfer] = (),
               meta: Optional[dict] = None,
               alloc_events: Optional[list] = None) -> SimReport:
    """Execute packed phases and assemble the report.

    ``dma`` lists the transfers; a transfer's id is its index there.
    Each phase's chunk is checked, then stepped by one step_segment
    call, which writes that phase's [n_pe, ACC_WIDTH] ledger.
    """
    st = _State(topo, params, dma)
    n_pe = topo.n_pes
    totals = np.zeros((n_pe, ACC_WIDTH), dtype=np.int64)
    phase_rows = []
    clock = 0
    for phase in phases:
        (chunk,) = phase.chunks
        _check_chunk(topo, chunk)
        acct = np.zeros((n_pe, ACC_WIDTH), dtype=np.int64)
        start = clock
        clock, fault = step_segment(chunk, acct, st, clock)
        if fault:
            code, pe, detail = fault
            raise SimulationFault(
                f"{_FAULT_TEXT[code].format(detail)} (PE {pe}, "
                f"phase {phase.name!r}, cycle {clock})")
        totals += acct
        st.t_free[:] = clock
        phase_rows.append(PhaseStats(phase.name, start, clock, *acct.sum(axis=0).tolist()))
        # idle fill so every PE's ledger covers the common phase end
        totals[:, ACC_WFI] += clock - start - acct.sum(axis=1)
    per_pe = {"cycles_total": np.full(n_pe, clock, dtype=np.int64),
              **{k: totals[:, i].copy() for i, k in enumerate(PE_KEYS)}}
    return SimReport(
        topology=asdict(topo), params=asdict(params),
        meta=meta or {}, cycles=clock, per_pe=per_pe, phases=phase_rows,
        alloc_events=alloc_events or [])
