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
from ._stepper import (ACC_WFI, ACC_WIDTH, DEP_RING, K_COMPUTE, K_DMA_WAIT, K_STORE,
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
    alloc_cost: int = ALLOC_COST    # reported only; PlanBuilder charges ALLOC_COST
    ins_stall_prob: float = 0.0
    ins_seed: int = 0

    def __post_init__(self):
        for name in ("window", "lat_alu", "lat_mac", "lat_div", "dma_words_per_cycle"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.l2_latency < 0:
            raise ValueError(f"l2_latency must be at least 0, got {self.l2_latency}")
        if self.out_ports < 1 or self.in_ports < 1:
            raise ValueError("port counts must be at least 1")
        if self.ins_stall_prob < 0 or self.ins_stall_prob > 1:
            raise ValueError("ins_stall_prob must be in [0, 1]")
        if self.ins_stall_prob > 0 and self.ins_seed == 0:
            raise ValueError("a nonzero ins_seed is required with ins_stall_prob > 0")

    def class_latency(self) -> np.ndarray:
        return np.array([self.lat_alu, self.lat_mac, self.lat_div], dtype=np.int64)


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

# the packed columns in step_segment's order, with the dtypes it reads
_COLS = {"kind": np.uint8, "cls": np.uint8, "arg": np.int32, "bank": np.int32,
         "level": np.uint8, "dep1": np.uint16, "dep2": np.uint16}


@dataclass
class PackedChunk:
    """Rectangular per-PE op arrays; rows padded to the longest stream.

    ``cols`` maps each _COLS name to a C-contiguous [n_pe, L] array of
    its dtype; ``n_ops`` is int64, one entry per PE.
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
    ``batches`` scattered into it.

    Each batch is ``(pe, pos, cols)``: for each op, its PE and its slot
    in that PE's row, and a dict of 1-D columns with every _COLS name.
    Each packed column is cast to its _COLS dtype; every slot no batch
    writes stays zero.
    """
    cap = max(1, int(n_ops.max()))
    cols = {name: np.zeros((len(n_ops), cap), dtype=dtype) for name, dtype in _COLS.items()}
    for pe, pos, batch in batches:
        at = pe * cap + pos         # one flat index: 3x faster than [pe, pos]
        for name, col in cols.items():
            col.reshape(-1)[at] = batch[name]
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
    """Reject a chunk the stepper would index memory out of bounds with.

    The stepper trusts its input: any chunk, packed by make_chunk or
    built by hand, passes here first.
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
    kind, cls, arg, level = cols["kind"], cols["cls"], cols["arg"], cols["level"]
    bank = cols["bank"].view(np.uint32)         # a negative bank reads as >= 2**31
    # whole columns first: make_chunk zeroes the padding and PlanBuilder
    # the fields an op does not use, so only a bad chunk needs the masked tests
    comp_at = np.flatnonzero(kind.ravel() == K_COMPUTE)
    if (kind.max() <= K_DMA_WAIT and bank.max() < topo.n_banks and level.max() <= 3
            and cls.max() <= 2 and arg.ravel()[comp_at].min(initial=1) >= 1):
        return
    live = np.arange(row) < n_ops[:, None]
    mem = live & (kind <= K_STORE)
    comp = live & (kind == K_COMPUTE)
    for name, bad, what in (
            ("kind", live & (kind > K_DMA_WAIT), f"op kind above {K_DMA_WAIT}"),
            ("bank", mem & (bank >= topo.n_banks),
             f"a load or store's bank outside [0, {topo.n_banks})"),
            ("level", mem & (level > 3), "a load or store's level above 3"),
            ("cls", comp & (cls > 2), "a compute class above 2"),
            ("arg", comp & (arg < 1), "a compute count below 1")):
        if bad.any():
            pe, i = np.argwhere(bad)[0]
            raise ValueError(f"chunk column {name!r}: {what} (PE {pe}, op {i})")


def _flat_segments(topo: ClusterTopology, dma: Sequence[DmaTransfer]) -> tuple:
    """The transfers' segments as (ptr, backend, words) int64 arrays.

    Transfer t's segments are entries ptr[t]:ptr[t + 1].
    """
    pairs = [seg for t in dma for seg in t.segments]
    backend, words = np.array(pairs, dtype=np.int64).reshape(-1, 2).T.copy()
    if ((backend < 0) | (backend >= topo.n_subgroups)).any():
        raise ValueError(f"DMA segment backend outside [0, {topo.n_subgroups})")
    if (words < 1).any():
        raise ValueError("DMA segment words must be at least 1")
    ptr = np.cumsum([0] + [len(t.segments) for t in dma], dtype=np.int64)
    return ptr, backend, words


class _State:
    """Stepper state carried from phase to phase, in numpy arrays.

    Per PE: the absolute index of its next op, the cycle it can next
    act, its dependence rings (each of its last DEP_RING ops' result
    cycle and kind), its window slots (the cycle each outstanding memory
    op retires) and the last op charged an INS stall. Shared: each
    bank's and port's next free cycle, each transfer's completion cycle
    (-1 until started) and each DMA backend's next free cycle. The
    stepper updates them in place.
    """

    def __init__(self, topo: ClusterTopology, params: EngineParams,
                 n_transfers: int):
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
        self.transfer_done = np.full(n_transfers, -1, dtype=np.int64)
        self.backend_next = np.zeros(topo.n_subgroups, dtype=np.int64)


def run_packed(topo: ClusterTopology, params: EngineParams,
               phases: Sequence[Phase], dma: Sequence[DmaTransfer] = (),
               meta: Optional[dict] = None,
               alloc_events: Optional[list] = None) -> SimReport:
    """Execute packed phases and assemble the report.

    ``dma`` lists the transfers; a transfer's id is its index there.
    Each phase's chunk is checked, then stepped by one step_segment
    call, which writes that phase's [n_pe, ACC_WIDTH] ledger.
    """
    seg_ptr, seg_backend, seg_words = _flat_segments(topo, dma)
    st = _State(topo, params, len(dma))
    n_pe = topo.n_pes
    level_lat = np.array(topo.level_latency, dtype=np.int64)
    class_lat = params.class_latency()
    totals = np.zeros((n_pe, ACC_WIDTH), dtype=np.int64)
    phase_rows = []
    clock = 0
    for phase in phases:
        (chunk,) = phase.chunks
        _check_chunk(topo, chunk)
        acct = np.zeros((n_pe, ACC_WIDTH), dtype=np.int64)
        start = clock
        clock, fault = step_segment(
            *(chunk.cols[c] for c in _COLS), chunk.n_ops,
            st.abs_idx, st.t_free, st.ready, st.ready_kind, st.win, acct, st.ins_done,
            st.bank_next, st.out_next, st.in_next,
            seg_ptr, seg_backend, seg_words, st.transfer_done, st.backend_next,
            level_lat, class_lat, params.out_ports, params.in_ports,
            topo.pes_per_tile, topo.banks_per_tile,
            params.l2_latency, params.dma_words_per_cycle,
            params.ins_stall_prob, params.ins_seed, clock,
        )
        if fault:
            code, pe, detail = fault
            raise SimulationFault(
                f"{_FAULT_TEXT[code].format(detail)} (PE {pe}, "
                f"phase {phase.name!r}, cycle {clock})")
        totals += acct
        st.t_free[:] = clock
        phase_rows.append(PhaseStats(phase.name, start, clock, *acct.sum(axis=0).tolist()))
        # idle fill so every PE's ledger covers the common phase end
        gap = clock - start - acct.sum(axis=1)
        totals[:, ACC_WFI] += gap
    per_pe = {"cycles_total": np.full(n_pe, clock, dtype=np.int64),
              **{k: totals[:, i].copy() for i, k in enumerate(PE_KEYS)}}
    return SimReport(
        topology=asdict(topo), params=asdict(params),
        meta=meta or {}, cycles=clock, per_pe=per_pe, phases=phase_rows,
        alloc_events=alloc_events or [])
