"""Shared machinery for building kernel plans: the one way to write a program.

A plan bundles the allocation sequence, per-PE operation streams split
into named phases, and the DMA transfers for one kernel under one
mapping scheme. Programs are written on one PeStream per PE, with byte
addresses: a kernel loop as emit_copies, one copy of an op template per
work item, and single ops one at a time (the ops pushed between two
copies form a template of their own, copied once). PlanBuilder.end_phase
closes a phase: it resolves the addresses against the regions live at
that moment (so a region freed in a later phase still resolves the
accesses emitted while it was live) and packs the phase's single chunk
in template form, one template group at a time, then adds the barrier
(one shared one-op template) to every stream (unless told not to). A
group is every copy of one template in the phase: walking each PE's
copies in stream order, end_phase notes each copy's number and its
first load's or store's number on its PE, so each block of a group's
copies resolves in one call and lands, copies and banks, with one write
each. Templates are stored once per phase, never expanded per copy.
emit_reduction writes a kernel's software-pipelined reductions and
their result stores, one copy per work item.
"""

from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from .._stepper import (DEP_RING, K_BARRIER, K_COMPUTE, K_DMA_START, K_DMA_WAIT,
                        K_LOAD, K_STORE, TEMPLATE_COLS)
from ..alloc import das_free, das_malloc, heap_init
from ..engine import (ALLOC_COST, EngineParams, Phase, SimulationFault,
                      build_transfer, make_chunk, run_packed)
from ..remap import MapConfig, das, interleaved, resolve_array
from ..topology import ClusterTopology

C_ALU, C_MAC, C_DIV = range(3)      # compute classes: EngineParams.lat_alu, lat_mac, lat_div

# the columns of an op record and their dtypes, from PeStream to end_phase,
# which resolves each load's and store's addr to its bank: an op
# template's columns (TEMPLATE_COLS), shared by its copies, and the
# address, which each copy takes from its own row
STREAM_COLS = {**TEMPLATE_COLS, "addr": np.int64}

# the barrier that ends a phase's streams: one template for every PE
BARRIER = {k: np.zeros(1, dtype=d) for k, d in TEMPLATE_COLS.items()}
BARRIER["kind"][0] = K_BARRIER
for _col in BARRIER.values():
    _col.flags.writeable = False

# ops of one template group that end_phase resolves and packs at a time
# (one copy, if a copy is longer): its temporaries stay near 1 MiB however
# large the phase (a whole phase at once raised desk gemm n_parallel 4's
# peak resident memory by 20%)
BATCH_OPS = 8192


class ShapeError(ValueError):
    """Workload shape violates the kernel's blocking rules."""


def ceil_log2(n: int) -> int:
    return max(0, (n - 1).bit_length())


def pow2_floor(n: int) -> int:
    return 1 << (n.bit_length() - 1)


def group_window_cfg(topo: ClusterTopology, tiles_per_group: int,
                     footprint_words: int) -> MapConfig:
    """Folding config spanning the banks of a contiguous tile group.

    With ``tiles_per_group`` 1 the partition is exactly one tile's banks.
    """
    banks = topo.banks_per_tile * tiles_per_group
    p = banks.bit_length() - 1
    s = max(0, ceil_log2(-(-footprint_words // banks)))
    if s > topo.row_bits:
        raise ShapeError(
            f"footprint of {footprint_words} words per {tiles_per_group}-tile "
            f"window needs s={s} > {topo.row_bits} row bits; shrink the slice "
            f"or use more tiles")
    return das(p, s)


@dataclass
class Operand:
    """An allocation plus the window arithmetic to address it."""

    name: str
    base: int
    win_bytes: int            # one block of the folding the kernel asked for
    word_bytes: int

    def addr(self, window_index, offset_words):
        """Byte address of offset_words within a window; numpy-friendly."""
        return self.base + window_index * self.win_bytes + offset_words * self.word_bytes


class PeStream:
    """Op accumulator for one PE: copies of op templates, in stream order.

    A copy is a template's TEMPLATE_COLS columns, shared with every other
    copy, and the copy's own addresses. Ops pushed one at a time gather
    column by column until the next copy or hand-over closes them into a
    template of their own.

    Each op method returns the op's absolute index in the stream. ``dep``
    names up to two earlier ops whose results the op consumes: waiting
    for a load is an LSU stall, waiting for a compute result a RAW stall.
    """

    __slots__ = ("n", "_segs", "_cur")

    def __init__(self):
        self.n = 0
        self._segs = []         # (template, addr) per copy, in stream order
        self._cur = None        # ops pushed since the last copy: a list per column

    def _push(self, kind, cls, arg, addr, dep):
        n = self.n
        if len(dep) > 2:
            raise ValueError(f"op {n}: at most two dependences, got {len(dep)}")
        dist = [0, 0]
        for slot, dep_ix in enumerate(dep):
            if not 0 <= dep_ix < n or n - dep_ix >= DEP_RING:
                raise ValueError(f"dep {dep_ix} out of ring range at op {n}")
            dist[slot] = n - dep_ix
        c = self._cur
        if c is None:
            c = self._cur = {k: [] for k in STREAM_COLS}
        c["kind"].append(kind)
        c["cls"].append(cls)
        c["arg"].append(arg)
        c["addr"].append(addr)
        c["dep1"].append(dist[0])
        c["dep2"].append(dist[1])
        self.n += 1
        return self.n - 1

    def load(self, addr, dep=()):
        return self._push(K_LOAD, 0, 0, addr, dep)

    def store(self, addr, dep=()):
        return self._push(K_STORE, 0, 0, addr, dep)

    def compute(self, cls, count=1, dep=()):
        """``count`` back-to-back issues of class ``cls``.

        The result is ready the class's latency (EngineParams.lat_alu,
        lat_mac or lat_div) after the last issue.
        """
        if count < 1:
            raise ValueError(f"compute count must be at least 1, got {count}")
        return self._push(K_COMPUTE, cls, count, 0, dep)

    def dma_start(self, tid):
        return self._push(K_DMA_START, 0, tid, 0, ())

    def dma_wait(self, tid):
        return self._push(K_DMA_WAIT, 0, tid, 0, ())

    def _append(self, template: dict, addr: np.ndarray):
        """Keep a checked, read-only template (its TEMPLATE_COLS columns,
        shared with other streams) and one copy's addresses as the stream's
        next ops."""
        self._flush()
        self._segs.append((template, addr))
        self.n += len(addr)

    def _flush(self):
        """Close the ops pushed one by one into a template of their own."""
        if self._cur is not None:
            cols = {k: np.array(v, dtype=STREAM_COLS[k]) for k, v in self._cur.items()}
            self._segs.append((cols, cols.pop("addr")))
            self._cur = None

    def touches(self, lo, hi) -> bool:
        """Whether a load or store not yet handed over lies in [lo, hi)."""
        self._flush()
        return any(((t["kind"] <= K_STORE) & (a >= lo) & (a < hi)).any()
                   for t, a in self._segs)

    def _take(self) -> list:
        """Hand over and clear the accumulated (template, addr) pairs, in
        stream order; the op counter keeps running."""
        self._flush()
        segs, self._segs = self._segs, []
        return segs

    def segments(self) -> list:
        """Hand over and clear the accumulated segments (op counter keeps running).

        Each segment is a dict of STREAM_COLS arrays, in stream order.
        """
        return [{**t, "addr": a} for t, a in self._take()]


def emit_copies(streams: list, template: dict, addr) -> None:
    """One copy of an op template per work item: item i's on ``streams[i]``.

    ``template`` holds the TEMPLATE_COLS columns of the ops, and row i of
    ``addr`` (n_items x ops) the byte addresses of item i's copy. Each
    dependence distance stays within one copy, so the template is checked
    once for every item. A stream listed for several items takes their
    copies in item order. The streams keep their own read-only copies:
    the template's columns, shared between them, and their rows of addr.
    """
    _copy_template(streams, template, np.array(addr, dtype=np.int64))


def _copy_template(streams: list, template: dict, addr: np.ndarray) -> None:
    """emit_copies with an int64 address matrix that no caller keeps: the
    streams take its rows as they are, not a copy of them."""
    cols = {k: np.asarray(template[k]) for k in TEMPLATE_COLS}
    n = cols["kind"].size
    if any(c.shape != (n,) for c in cols.values()) or np.shape(addr) != (len(streams), n):
        raise ValueError(f"template columns {[c.shape for c in cols.values()]} and "
                         f"addresses {np.shape(addr)} for {len(streams)} items do not agree")
    dist = np.asarray((cols["dep1"], cols["dep2"]), dtype=np.int64)
    bad = (dist < 0) | (dist >= DEP_RING) | (dist > np.arange(n))
    if bad.any():
        dep, j = np.argwhere(bad)[0]
        raise ValueError(f"dep{dep + 1} distance {dist[dep, j]} at template op {j} "
                         f"reaches outside its copy or the {DEP_RING}-op ring")
    for c, d in TEMPLATE_COLS.items():
        cols[c] = cols[c].astype(d)
        cols[c].flags.writeable = False
    addr.flags.writeable = False
    for st, row in zip(streams, addr):
        st._append(cols, row)


def emit_reduction(streams: list, loads: tuple, macs: int, dep_cols: tuple,
                   out_addr: np.ndarray, setup: bool) -> None:
    """Software-pipelined reductions, then the stores of their results.

    Work item i runs on ``streams[i]``. ``loads`` is a tuple of byte
    address arrays, each (items x steps x its own width), whose columns
    lie side by side: step k loads ``loads[0][i, k]``, then
    ``loads[1][i, k]`` and so on, under the burst of ``macs`` MACs that
    retires step k-1, so operand latency hides behind compute; that
    burst consumes step k-1's loads in columns ``dep_cols``. An entry of
    ``loads`` may also be a pair of arrays that sum to such an array by
    broadcasting, say a per-item and a per-step term. ``setup`` adds a
    one-ALU accumulator set-up after step 0's loads. A drain burst
    retires the last step, and each ``out_addr[i]`` store waits for it.
    Dependence distances come from the ops' positions in the item's
    copy. Each array, or each pair's sum, goes straight into the copies'
    address matrix: step 0's columns, then a view with one row of w + 1
    ops per later step. So a pair needs no array of its full size
    besides the matrix.
    """
    pairs = [part if isinstance(part, tuple) else (part, 0) for part in loads]
    shapes = [np.broadcast_shapes(*map(np.shape, pair)) for pair in pairs]
    widths = [shape[-1] for shape in shapes]
    n_items, n_steps, w = len(streams), shapes[0][-2], sum(widths)
    # step 0's loads (and set-up), then per later step its loads and the
    # burst of the step before, then the drain burst and the stores
    head = w + 1 if setup else w
    starts = np.r_[0, head + (w + 1) * np.arange(n_steps - 1)]
    load_pos = starts[:, None] + np.arange(w)
    drain = head + (n_steps - 1) * (w + 1)
    burst_pos = np.r_[starts[1:] + w, drain]        # the burst retiring each step
    store_pos = drain + 1 + np.arange(out_addr.shape[1])
    c = {k: np.zeros(store_pos[-1] + 1, dtype=d) for k, d in TEMPLATE_COLS.items()}
    c["kind"][:] = K_LOAD
    c["kind"][burst_pos] = K_COMPUTE
    c["cls"][burst_pos] = C_MAC
    c["arg"][burst_pos] = macs
    c["dep1"][burst_pos] = burst_pos - load_pos[:, dep_cols[0]]
    c["dep2"][burst_pos] = burst_pos - load_pos[:, dep_cols[1]]
    if setup:
        c["kind"][w], c["cls"][w], c["arg"][w] = K_COMPUTE, C_ALU, 1
    c["kind"][store_pos] = K_STORE
    c["dep1"][store_pos] = store_pos - drain
    addr = np.zeros((n_items, len(c["kind"])), dtype=np.int64)
    # step 0's loads, and from op ``head`` on a row per later step: its
    # loads, then the burst retiring the step before
    later = addr[:, head:drain].reshape(n_items, n_steps - 1, w + 1)
    col = 0
    for pair, width in zip(pairs, widths):
        a, b = (np.broadcast_to(t, (n_items, n_steps, width)) for t in pair)
        # one sum per destination, never in place: an in-place add into a
        # strided view may buffer a copy of the whole view
        np.add(a[:, 0], b[:, 0], out=addr[:, col:col + width])
        np.add(a[:, 1:], b[:, 1:], out=later[:, :, col:col + width])
        col += width
    addr[:, drain + 1:] = out_addr
    _copy_template(streams, c, addr)


@dataclass
class KernelPlan:
    topo: ClusterTopology
    scheme: str
    name: str
    workload: str
    n_parallel: int
    phases: list
    dma: list                 # DmaTransfers; a transfer's id is its index
    expected_ops: dict
    counted_ops: dict
    alloc_events: list
    references: dict = field(default_factory=dict)


class PlanBuilder:
    """Accumulates allocations, streams and phases into a KernelPlan."""

    def __init__(self, topo: ClusterTopology, scheme: str):
        if scheme not in ("das", "interleaved"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.topo = topo
        self.scheme = scheme
        self.heap = heap_init(0, topo.total_bytes, topo.word_bytes)
        self.streams = [PeStream() for _ in range(topo.n_pes)]
        self._packed = np.zeros(topo.n_pes, dtype=np.int64)   # each stream's n at the last pack
        self.phases = []
        self.transfers = []
        self.alloc_log = []
        self._owners = {}           # live region base -> the Operand allocated there
        self._phase_name = None
        self._counts = {"macs": 0, "loads": 0, "stores": 0}

    # -- allocation ----------------------------------------------------------

    def alloc(self, name: str, size_bytes: int, folding: MapConfig) -> Operand:
        """Allocate an operand region; folding applies under 'das' only.

        Charges the allocator's configuration cost to PE 0 as ALU work
        inside the current phase.
        """
        if self._phase_name is None:
            raise RuntimeError("alloc must happen inside a phase")
        folding.validate(self.topo)
        req = folding if self.scheme == "das" else interleaved()
        base = das_malloc(self.heap, size_bytes, req)
        cfg = self.heap.regions[base]
        wb = self.topo.word_bytes
        op = Operand(name=name, base=base, win_bytes=folding.block_bytes(wb), word_bytes=wb)
        self.alloc_log.append({"phase": self._phase_name, "operand": name,
                               "size_bytes": cfg.size_bytes,
                               "mapping": cfg.to_json()})
        self.streams[0].compute(C_ALU, count=ALLOC_COST)
        self._owners[base] = op
        return op

    def free(self, operand: Operand) -> None:
        """Free an operand's region, unless a load or store emitted in the
        open phase lies in it: end_phase places those against the regions
        live when the phase closes, so the free would move them.

        Only the operand its alloc returned frees a region: a stale handle
        (its region freed, perhaps re-allocated to another operand) or one
        from another builder is rejected.
        """
        if self._owners.get(operand.base) is not operand:
            raise RuntimeError(f"free of {operand.name!r}: the region at 0x{operand.base:x} "
                               f"is not its own (freed already or never allocated here)")
        cfg = self.heap.regions[operand.base]
        for pe, stream in enumerate(self.streams):
            if stream.touches(cfg.base_addr, cfg.base_addr + cfg.size_bytes):
                raise RuntimeError(f"free of {operand.name!r} in phase "
                                   f"{self._phase_name!r} after PE {pe} accessed it")
        del self._owners[operand.base]
        das_free(self.heap, operand.base)

    def transfer(self, src: tuple, dst: tuple) -> int:
        """Register an L2-to-L1 transfer into one live allocation.

        The destination words resolve against the regions live now. The
        returned id is the transfer's index in ``transfers``.
        """
        d0, d1 = dst
        if not any(c.base_addr <= d0 and d1 <= c.base_addr + c.size_bytes
                   for c in self.heap.regions.values()):
            raise ValueError(f"transfer dst [0x{d0:x}, 0x{d1:x}) is not inside one live allocation")
        self.transfers.append(build_transfer(self.topo, self.heap.das_regions(), src, dst))
        return len(self.transfers) - 1

    # -- phases ---------------------------------------------------------------

    def begin_phase(self, name: str) -> None:
        if self._phase_name is not None:
            raise RuntimeError("previous phase still open")
        self._phase_name = name

    def end_phase(self, barrier: bool = True) -> None:
        name = self._phase_name
        if name is None:
            raise RuntimeError("no phase open")
        self._phase_name = None
        n_pe = len(self.streams)
        n = np.fromiter((stream.n for stream in self.streams), np.int64, n_pe)
        n_ops = n - self._packed
        n_copies = np.zeros(n_pe, dtype=np.int64)
        n_mem = np.zeros(n_pe, dtype=np.int64)
        # every copy of one template, PE by PE in stream order: (template,
        # its loads' and stores' positions, and per copy its PE, its number
        # and its first load's or store's number on that PE, its addresses)
        groups = {}
        for pe in np.flatnonzero(n_ops).tolist():
            copies = mems = 0
            for template, addr in self.streams[pe]._take():
                if not len(addr):
                    continue            # a copy of no ops adds nothing
                g = groups.get(id(template))
                if g is None:
                    g = groups[id(template)] = (
                        template, np.flatnonzero(template["kind"] <= K_STORE), [], [], [], [])
                g[2].append(pe)
                g[3].append(copies)
                g[4].append(mems)
                g[5].append(addr)
                copies += 1
                mems += len(g[1])
            n_copies[pe], n_mem[pe] = copies, mems
        batches = self._pack_groups(name, list(groups.values()))
        if barrier:
            batches = chain(batches, [(np.arange(n_pe), n_copies, n_mem, BARRIER,
                                       np.zeros((n_pe, 0), dtype=np.int64))])
        chunk = make_chunk(n_ops + barrier, batches, topo=self.topo,
                           n_copies=n_copies + barrier, n_mem=n_mem)
        if barrier:
            for stream in self.streams:
                stream.n += 1
        self._packed = n + barrier
        self.phases.append(Phase(name=name, chunks=[chunk]))

    def _pack_groups(self, name: str, groups: list):
        """Yield each template group as make_chunk batches, counted into the
        closed-form totals: runs of its copies holding at most BATCH_OPS ops
        (or one copy holding more), with addresses resolved to banks.
        """
        regions = self.heap.das_regions()
        for template, mem, pes, copy_ix, mem_ix, rows in groups:
            kind = template["kind"]
            n = len(kind)
            is_mac = (kind == K_COMPUTE) & (template["cls"] == C_MAC)
            self._counts["macs"] += len(pes) * int(template["arg"][is_mac].sum())
            self._counts["loads"] += len(pes) * int((kind == K_LOAD).sum())
            self._counts["stores"] += len(pes) * int((kind == K_STORE).sum())
            pes, copy_ix, mem_ix = np.array(pes), np.array(copy_ix), np.array(mem_ix)
            step = max(1, BATCH_OPS // n)
            for lo in range(0, len(pes), step):
                at = slice(lo, lo + step)
                bank = np.zeros((len(pes[at]), 0), dtype=np.int64)
                if len(mem):
                    addr = np.concatenate(rows[at]).reshape(-1, n)[:, mem]
                    try:
                        bank = resolve_array(self.topo, regions, addr.reshape(-1))
                    except ValueError as e:
                        raise self._fault(name, regions, groups) from e
                    bank = bank.reshape(addr.shape)
                yield pes[at], copy_ix[at], mem_ix[at], template, bank

    def _fault(self, name: str, regions: list, groups: list) -> SimulationFault:
        """The fault of a phase whose loads and stores do not all resolve:
        it names the lowest PE whose own accesses, in stream order, fail
        to (a bad address is some PE's, a bad region list fails every PE
        with an access), with that PE's error."""
        own = {}
        for _, mem, pes, copy_ix, _, rows in groups:
            if len(mem):
                for pe, copy, addr in zip(pes, copy_ix, rows):
                    own.setdefault(pe, []).append((copy, addr[mem]))
        for pe in sorted(own):
            try:
                resolve_array(self.topo, regions, np.concatenate([a for _, a in sorted(
                    own[pe], key=lambda seg: seg[0])]))
            except ValueError as e:
                return SimulationFault(f"PE {pe}, phase {name!r}: {e}")

    # -- finish ----------------------------------------------------------------

    def build(self, name: str, workload: str, n_parallel: int,
              expected_ops: dict) -> KernelPlan:
        if self._phase_name is not None:
            raise RuntimeError(f"phase {self._phase_name!r} left open")
        for key, want in expected_ops.items():
            got = self._counts.get(key)
            if got != want:
                raise AssertionError(
                    f"{name}: generated {key}={got} but the closed form says {want}")
        return KernelPlan(
            topo=self.topo, scheme=self.scheme, name=name, workload=workload,
            n_parallel=n_parallel, phases=self.phases,
            dma=self.transfers, expected_ops=expected_ops,
            counted_ops=dict(self._counts), alloc_events=self.alloc_log)


def run_plan(plan: KernelPlan, params: Optional[EngineParams] = None):
    """Simulate a plan; the report carries kernel metadata for tables."""
    params = params or EngineParams()
    meta = {"kernel": plan.name, "scheme": plan.scheme,
            "workload": plan.workload, "n_parallel": plan.n_parallel,
            "expected_ops": plan.expected_ops, "references": plan.references}
    rep = run_packed(plan.topo, params, plan.phases, plan.dma, meta=meta,
                     alloc_events=plan.alloc_events)
    rep.check_conservation()
    return rep
