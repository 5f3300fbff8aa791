"""Execution of packed per-PE programs against the banked L1.

A program is a list of phases plus the DMA transfers its handshakes
name, a DmaTransfer list indexed by transfer id; the kernels'
PlanBuilder writes both. Each phase is one PackedChunk in template
form: the phase's op templates (loads, stores, compute bursts and DMA
handshakes, with dependences as back-distances), each PE's copies of
them in stream order, and one bank per load or store.
The stepper reads that form as it is; ``PackedChunk.cols`` expands it
into the flat per-PE layout, one column at a time, for tests and
reports. A compute burst's result latency is its class's, from
EngineParams. The engine issues at most one operation per PE per cycle
in order, tracks a bounded window of outstanding memory operations,
serializes bank access (one request per cycle per bank) and throttles
traffic at tile boundaries with a limited number of ports per hierarchy
level; an access's level follows from its PE and its bank
(topology.access_levels). Each bank and port keeps one next-free cycle,
so it serves requests in booking order (issue cycle, then PE id), not
arrival order: a request booked later waits behind every earlier
booking, even when it reaches an idle bank first. Every cycle of every
PE ends up in exactly one bucket of report.LEDGER.

A phase's barrier (``Phase.barrier``) books no bank, port or backend,
so run_packed applies it in closed form after the phase's ops: each PE
issues it once its window drains, at ``arrive = max(t_free, latest
window slot)``, as one op (an LSU stall until then), and all go on at
``max(arrive) + 1``. A phase without a barrier ends at its last PE's
next free cycle; its outstanding loads and stores retire in the next
phase, or in a plan's last phase never count. So a level-3 load at
cycle 0 beside a 2-cycle ALU burst ends such a phase at 2, though its
data returns at 7. Every kernel phase ends in a barrier.
"""

from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import _stepper
from ._stepper import (ACC_ISSUED, ACC_LSU, ACC_WFI, ACC_WIDTH, DEP_RING, K_COMPUTE,
                       K_DMA_WAIT, K_STORE, TEMPLATE_COLS, step_segment)
from .remap import MapConfig, resolve_array
from .report import PE_KEYS, PhaseStats, SimReport
from .topology import ClusterTopology, access_levels


ALLOC_COST = 64     # cycles charged per heap allocation

# report params of schema v1 that no knob sets: the allocation charge is
# fixed at plan time, and the model has no instruction-fetch (INS) stall
V1_PARAMS = {"alloc_cost": ALLOC_COST, "ins_stall_prob": 0.0, "ins_seed": 0}


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

    def __post_init__(self):
        for name in ("window", "lat_alu", "lat_mac", "lat_div", "out_ports", "in_ports",
                     "dma_words_per_cycle"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.l2_latency < 0:
            raise ValueError(f"l2_latency must be at least 0, got {self.l2_latency}")


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
    banks = resolve_array(topo, regions, np.arange(d0, d1, topo.word_bytes))
    words = np.bincount(banks // (topo.banks_per_tile * topo.tiles_per_subgroup))
    segments = [(backend, n) for backend, n in enumerate(words.tolist()) if n]
    return DmaTransfer(src=src, dst=dst, segments=segments)


# -- packed program representation --------------------------------------------

# the flat view's columns, each an [n_pe, L] array of its dtype (L the
# longest stream, at least 1): the template columns, plus each load's and
# store's bank and hierarchy level
FLAT_COLS = {"kind": np.uint8, "cls": np.uint8, "arg": np.int32, "bank": np.uint16,
             "level": np.uint8, "dep1": np.uint16, "dep2": np.uint16}
# ops the flat view expands at a time
VIEW_OPS = 8192


@dataclass
class PackedChunk:
    """One phase's ops in template form, as the stepper reads them.

    ``tpl`` maps each TEMPLATE_COLS name to the phase's op templates'
    columns, concatenated: template t's ops are ``tpl_ptr[t]`` to
    ``tpl_ptr[t + 1]``. PE pe's copies, in stream order, are
    ``copy_tpl[copy_ptr[pe]:copy_ptr[pe + 1]]``, each its template's
    index; ``n_ops[pe]`` counts its ops. Copy c's loads and stores take
    their banks from ``bank[copy_bank[c]]`` on, ``bank`` being in
    make_chunk's batch order, not PE by PE. The pointer arrays and
    copy_bank are int64, copy_tpl int32 and bank uint16. No access's
    level is stored: it follows from the PE and the bank on ``topo``. A
    template's ops are stored once however many copies it has, so the
    chunk holds a few bytes per memory op and per copy.
    """

    topo: ClusterTopology
    n_ops: np.ndarray
    tpl: dict
    tpl_ptr: np.ndarray
    copy_ptr: np.ndarray
    copy_tpl: np.ndarray
    copy_bank: np.ndarray
    bank: np.ndarray

    @property
    def cols(self) -> "FlatView":
        """The chunk in the flat per-PE layout, built one column at a time."""
        return FlatView(self)


class FlatView(Mapping):
    """A chunk's FLAT_COLS columns, each [n_pe, L], row pe holding PE pe's
    ops in stream order with the rest zero: ``view[name]`` builds that
    one column afresh, and neither the view nor the chunk keeps it.
    ``level`` is access_levels of each load's and store's PE and bank;
    ``bank`` and ``level`` are zero on every other op. A column is
    written a block of copies at a time, so beyond the column itself
    the view needs memory for about VIEW_OPS ops (or one longer copy).
    """

    def __init__(self, chunk: PackedChunk):
        self._chunk = chunk

    def __iter__(self):
        return iter(FLAT_COLS)

    def __len__(self):
        return len(FLAT_COLS)

    def __getitem__(self, name: str) -> np.ndarray:
        ch = self._chunk
        out = np.zeros((len(ch.n_ops), max(1, int(ch.n_ops.max()))), dtype=FLAT_COLS[name])
        flat = out.reshape(-1)
        # per copy, PE by PE in stream order: its PE, its ops, its first
        # op's number among the chunk's ops and its first op's flat slot
        pe = np.repeat(np.arange(len(ch.n_ops)), np.diff(ch.copy_ptr))
        lens = np.diff(ch.tpl_ptr)[ch.copy_tpl]
        first = np.cumsum(lens) - lens
        slot = pe * out.shape[1] + first - first[ch.copy_ptr[pe]]
        col = ch.tpl.get(name)
        if col is None:
            # bank or level: op j of copy c, a load or store, has bank base[c] + mem_at[j]
            is_mem = ch.tpl["kind"] <= K_STORE
            mem_at = np.cumsum(is_mem) - is_mem
            base = ch.copy_bank - mem_at[ch.tpl_ptr[:-1]][ch.copy_tpl]
        # blocks of the copies that start within VIEW_OPS ops of each other
        edges = np.unique(np.r_[0, np.searchsorted(first, np.arange(0, lens.sum(), VIEW_OPS)),
                                len(lens)])
        for c0, c1 in zip(edges[:-1].tolist(), edges[1:].tolist()):
            n = lens[c0:c1]
            j = np.arange(n.sum()) - np.repeat(first[c0:c1] - first[c0], n)   # op in its copy
            at = np.repeat(slot[c0:c1], n) + j
            src = np.repeat(ch.tpl_ptr[ch.copy_tpl[c0:c1]], n) + j
            if col is not None:
                flat[at] = col[src]
                continue
            mem = is_mem[src]
            bank = ch.bank[(np.repeat(base[c0:c1], n) + mem_at[src])[mem]]
            flat[at[mem]] = (bank if name == "bank" else
                             access_levels(ch.topo, np.repeat(pe[c0:c1], n)[mem], bank))
        return out


@dataclass
class Phase:
    """Segment of the run; it ends in a global barrier if ``barrier``.

    ``chunks`` holds exactly one PackedChunk.
    """

    name: str
    chunks: list
    barrier: bool = False


def make_chunk(n_ops: np.ndarray, batches, *, topo: ClusterTopology,
               n_copies: np.ndarray, n_mem: int) -> PackedChunk:
    """The chunk of ``batches`` on ``topo``, for per-PE counts of ops and
    copies (``n_ops``, ``n_copies``, int64 each) and ``n_mem`` loads plus
    stores in all.

    Each batch is ``(pes, copy_ix, template, banks)``: k copies of one op
    template, a dict of its TEMPLATE_COLS columns. Copy i is PE
    ``pes[i]``'s copy number ``copy_ix[i]`` of the phase; ``banks`` (1-D)
    holds the copies' banks, copy by copy, and goes into ``bank`` after
    the batch before's with one write. A template is stored once, however
    many batches carry it (the same dict). Every copy and bank must be
    written by some batch.
    """
    copy_ptr = np.concatenate(([0], np.cumsum(n_copies)))
    copy_tpl = np.zeros(copy_ptr[-1], dtype=np.int32)
    copy_bank = np.zeros(copy_ptr[-1], dtype=np.int64)
    bank = np.zeros(n_mem, dtype=np.uint16)
    index, templates, mems, at = {}, [], [], 0
    for pes, copy_ix, template, banks in batches:
        t = index.get(id(template))
        if t is None:
            t = index[id(template)] = len(templates)
            templates.append(template)
            mems.append(int(np.count_nonzero(template["kind"] <= K_STORE)))
        copy = copy_ptr[pes] + copy_ix
        copy_tpl[copy] = t
        copy_bank[copy] = at + mems[t] * np.arange(len(pes))
        bank[at:at + len(pes) * mems[t]] = banks
        at += len(pes) * mems[t]
    tpl_ptr = np.cumsum([0] + [len(t["kind"]) for t in templates], dtype=np.int64)
    tpl = {name: np.concatenate([np.zeros(0, dtype)] + [t[name] for t in templates]
                                ).astype(dtype, copy=False)
           for name, dtype in TEMPLATE_COLS.items()}
    return PackedChunk(topo=topo, n_ops=n_ops, tpl=tpl, tpl_ptr=tpl_ptr, copy_ptr=copy_ptr,
                       copy_tpl=copy_tpl, copy_bank=copy_bank, bank=bank)


# -- engine state and run ------------------------------------------------------

_FAULT_TEXT = {
    _stepper.FAULT_DMA_RESTART: "transfer {} started twice",
    _stepper.FAULT_DMA_UNKNOWN: "unknown transfer {}",
    _stepper.FAULT_DMA_NEVER_STARTED: "wait on transfer {}, which no PE starts",
}


def _check_chunk(topo: ClusterTopology, chunk: PackedChunk) -> None:
    """Reject a chunk that would lead the stepper out of bounds or to a wrong ring slot.

    The stepper trusts its input: any chunk, packed by make_chunk or
    built by hand, passes here first. Every array must be C-contiguous,
    1-D and of its dtype. The pointer arrays must start at 0, never fall
    and end at their array's length, and every template must hold an
    op; each PE's copies must hold its n_ops ops, and each copy's banks
    lie in ``bank``, which holds all copies' loads and stores. Each
    template op is range-checked once, however many copies it has, with
    a compute count checked on compute ops only; a failure names the
    template and the op. Every bank must lie below ``n_banks``. Nothing
    is read per slot of a flat row.
    """
    n_pe, tpl = topo.n_pes, chunk.tpl
    n_tpl_ops = len(tpl.get("kind", ()))
    # each array, its dtype and its length where that is fixed
    spec = {"n_ops": (chunk.n_ops, np.int64, n_pe),
            "copy_ptr": (chunk.copy_ptr, np.int64, n_pe + 1),
            "tpl_ptr": (chunk.tpl_ptr, np.int64, None),
            "copy_tpl": (chunk.copy_tpl, np.int32, None), "bank": (chunk.bank, np.uint16, None),
            "copy_bank": (chunk.copy_bank, np.int64, len(chunk.copy_tpl)),
            **{name: (tpl.get(name), dtype, n_tpl_ops) for name, dtype in TEMPLATE_COLS.items()}}
    for name, (a, dtype, length) in spec.items():
        if (not isinstance(a, np.ndarray) or a.dtype != dtype
                or not a.flags.c_contiguous or a.ndim != 1):
            raise ValueError(f"chunk array {name!r} must be a C-contiguous 1-D "
                             f"{np.dtype(dtype).name} array")
        if length is not None and len(a) != length:
            raise ValueError(f"chunk array {name!r} has {len(a)} entries, not {length}")
    for name, ptr, end, least in (("tpl_ptr", chunk.tpl_ptr, n_tpl_ops, 1),
                                  ("copy_ptr", chunk.copy_ptr, len(chunk.copy_tpl), 0)):
        if not len(ptr) or ptr[0] != 0 or ptr[-1] != end or (np.diff(ptr) < least).any():
            raise ValueError(f"chunk array {name!r} must start at 0, rise by at least "
                             f"{least} per entry and end at {end}")
    n_tpl = len(chunk.tpl_ptr) - 1
    copy_tpl = chunk.copy_tpl
    if len(copy_tpl) and (copy_tpl.min() < 0 or copy_tpl.max() >= n_tpl):
        raise ValueError(f"chunk array 'copy_tpl' names a template outside [0, {n_tpl})")
    kind = tpl["kind"]
    # per PE its copies' ops, and per copy its loads and stores
    ops = np.diff(np.cumsum(np.r_[0, np.diff(chunk.tpl_ptr)[copy_tpl]])[chunk.copy_ptr])
    mems = np.diff(np.cumsum(np.r_[0, kind <= K_STORE])[chunk.tpl_ptr])[copy_tpl]
    if not np.array_equal(ops, chunk.n_ops):
        raise ValueError(f"chunk array 'n_ops' disagrees with PE "
                         f"{int(np.argmax(ops != chunk.n_ops))}'s copies")
    # each copy's last bank, compared with no overflow
    out = (chunk.copy_bank < 0) | (chunk.copy_bank > len(chunk.bank) - mems)
    if out.any():
        raise ValueError(f"chunk array 'copy_bank': copy {np.argmax(out)} reads outside 'bank'")
    if mems.sum() != len(chunk.bank):
        raise ValueError(f"chunk array 'bank' holds {len(chunk.bank)} banks, not {mems.sum()}")
    comp_at = np.flatnonzero(kind == K_COMPUTE)
    # ~count > -2 is a count below 1, with no overflow
    for name, col, top, what in (
            ("kind", kind, K_DMA_WAIT, f"op kind above {K_DMA_WAIT}"),
            ("cls", tpl["cls"], 2, "a class above 2"),
            *((d, tpl[d], DEP_RING - 1, f"a dependence {DEP_RING} or more ops back")
              for d in ("dep1", "dep2")),
            ("arg", ~tpl["arg"][comp_at], -2, "a compute count below 1")):
        if col.max(initial=top) > top:
            at = int(np.argmax(col > top))
            op = int(comp_at[at]) if name == "arg" else at
            t = int(np.searchsorted(chunk.tpl_ptr, op, side="right")) - 1
            raise ValueError(f"chunk array {name!r}: {what} (template {t}, "
                             f"op {op - chunk.tpl_ptr[t]})")
    if chunk.bank.max(initial=0) >= topo.n_banks:
        raise ValueError(f"chunk array 'bank': a bank outside [0, {topo.n_banks})")


class _State:
    """One stepper run, in the arrays and integers step_segment passes to the C.

    Kept from phase to phase and updated in place by the stepper: per PE,
    the absolute index of its next op, the cycle it can next act, its
    dependence ring (one int64 record for each of its last DEP_RING ops,
    the result cycle << 1 | whether the op is a compute op), its window
    slots (the cycle each outstanding memory op retires); shared, each
    bank's and port's next free cycle, each transfer's completion cycle
    (-1 until started) and each DMA backend's next free cycle. Ports are
    [n_tiles, 4 levels, ports]: a tile-local access books its own tile's
    level-0 entries, scratch that no access reads for its timing, so that
    the stepper picks its serve cycle by a select, not by a mispredicted
    branch on the level. Fixed for the run: the transfers' (backend,
    words) segments, transfer t's at seg_ptr[t]:seg_ptr[t + 1]; the level
    and class latencies, port counts, tile geometry (PEs and banks per
    tile, tiles per subgroup and per group: an access's level follows from
    them), L2 latency and DMA rate.
    """

    def __init__(self, topo: ClusterTopology, params: EngineParams,
                 dma: Sequence[DmaTransfer]):
        n_pe = topo.n_pes
        self.abs_idx = np.zeros(n_pe, dtype=np.int64)
        self.t_free = np.zeros(n_pe, dtype=np.int64)
        self.ready = np.zeros((n_pe, DEP_RING), dtype=np.int64)
        self.win = np.zeros((n_pe, params.window), dtype=np.int64)
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
        self.tiles_per_subgroup = topo.tiles_per_subgroup
        self.tiles_per_group = topo.tiles_per_subgroup * topo.subgroups_per_group
        self.l2_lat, self.dma_wpc = params.l2_latency, params.dma_words_per_cycle


def run_packed(topo: ClusterTopology, params: EngineParams,
               phases: Sequence[Phase], dma: Sequence[DmaTransfer] = (),
               meta: Optional[dict] = None,
               alloc_events: Optional[list] = None) -> SimReport:
    """Execute packed phases and assemble the report.

    ``dma`` lists the transfers; a transfer's id is its index there.
    Each phase's chunk is checked and stepped by one step_segment call,
    which writes that phase's [n_pe, ACC_WIDTH] ledger; then its barrier
    is applied, if it has one (see the module docstring).
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
        if phase.barrier:
            # each PE's wait, issue and dependence ring slot, as an op's
            arrive = np.maximum(st.t_free, st.win.max(axis=1))
            acct[:, ACC_LSU] += arrive - st.t_free
            acct[:, ACC_ISSUED] += 1
            st.ready[np.arange(n_pe), st.abs_idx & (DEP_RING - 1)] = (arrive + 1) << 1
            st.abs_idx += 1
            clock = int(arrive.max()) + 1
        # idle fill so every PE's ledger covers the common phase end
        acct[:, ACC_WFI] += clock - start - acct.sum(axis=1)
        totals += acct
        st.t_free[:] = clock
        phase_rows.append(PhaseStats(phase.name, start, clock, *acct.sum(axis=0).tolist()))
    per_pe = {"cycles_total": np.full(n_pe, clock, dtype=np.int64),
              **{k: totals[:, i].copy() for i, k in enumerate(PE_KEYS)}}
    return SimReport(
        topology=asdict(topo), params={**asdict(params), **V1_PARAMS},
        meta=meta or {}, cycles=clock, per_pe=per_pe, phases=phase_rows,
        alloc_events=alloc_events or [])
