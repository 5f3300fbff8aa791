"""Shared machinery for building kernel plans: the one way to write a program.

A plan bundles the allocation sequence, per-PE operation streams split
into named phases, and the DMA transfers for one kernel under one
mapping scheme. A PlanBuilder holds its open phase as one copy table,
with byte addresses: an entry (template, pes, addr) per emit_copies or
emit_reduction call, in call order, holding one copy of an op template
per work item, item i's on PE pes[i] with addresses addr[i], one per
load and store. A PE's stream is its copies in table order, then item
order within an entry. Ops pushed one at a time on ``pb.streams[pe]``
close into a one-copy entry of their own before the next entry is added.
Per PE the builder keeps only an op counter, which runs on across phases.

PlanBuilder.end_phase closes a phase. A stable sort of the table's PEs
numbers each copy on its PE. Each entry's blocks of rows then resolve
their addresses against the regions live at that moment (so a region
freed in a later phase still resolves the accesses emitted while it was
live), a call per block, and land in the phase's single chunk in
template form, copies and banks with one write each. The phase ends in
a barrier, which the engine applies, unless told not to. Templates are
stored once per phase, never expanded per copy.
emit_reduction writes a kernel's software-pipelined reductions and
their result stores, one copy per work item.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._stepper import (DEP_RING, K_COMPUTE, K_DMA_START, K_DMA_WAIT, K_LOAD, K_STORE,
                        TEMPLATE_COLS)
from ..alloc import das_free, das_malloc, heap_init
from ..engine import (ALLOC_COST, EngineParams, Phase, SimulationFault,
                      build_transfer, make_chunk, run_packed)
from ..remap import MapConfig, das, interleaved, resolve_array
from ..topology import ClusterTopology

C_ALU, C_MAC, C_DIV = range(3)      # compute classes: EngineParams.lat_alu, lat_mac, lat_div

# the columns of an op record and their dtypes: an op template's columns
# (TEMPLATE_COLS), shared by its copies, and the address, which a table
# entry keeps for loads and stores only, a row per copy
STREAM_COLS = {**TEMPLATE_COLS, "addr": np.int64}

# addresses of one table entry that end_phase resolves and packs at a time
# (one copy's, if a copy has more): its temporaries stay small however
# large the phase (a whole phase at once raised desk gemm n_parallel 4's
# peak resident memory by 20%)
BATCH_OPS = 8192


class ShapeError(ValueError):
    """Workload shape violates the kernel's blocking rules."""


def pow2_floor(n: int) -> int:
    return 1 << (n.bit_length() - 1)


@dataclass
class Operand:
    """An allocation plus the window arithmetic to address it.

    Group g of ``tiles`` consecutive tiles has the window ``g * win_bytes``
    past ``base``: the stride is one block of the folding under both schemes,
    the padded layout. addr assumes that a folded region's window g sits on
    group g's banks, which holds only if ``base`` is a multiple of a whole
    cluster's windows; das_malloc aligns a region to one block.
    """

    name: str
    base: int
    win_bytes: int            # window stride: one block of the folding
    word_bytes: int
    tiles: int = 1            # consecutive tiles sharing one window

    def addr(self, tile, offset_words):
        """Byte address of offset_words in tile's window; numpy-friendly."""
        return self.base + tile // self.tiles * self.win_bytes + offset_words * self.word_bytes


class PeStream:
    """One PE's stream on a PlanBuilder, for ops pushed one at a time.

    A handle that ``pb.streams[pe]`` makes when asked: the ops it pushes
    gather in the builder, column by column, until the next table entry,
    end_phase or free closes them into a one-copy entry of their own.

    Each op method returns the op's absolute index in the stream, the
    PE's op counter before it. ``dep`` names up to two earlier ops whose
    results the op consumes: waiting for a load is an LSU stall, waiting
    for a compute result a RAW stall.
    """

    __slots__ = ("_pb", "pe")

    def __init__(self, pb: "PlanBuilder", pe: int):
        self._pb, self.pe = pb, pe

    @property
    def n(self) -> int:
        """Ops in the stream so far, every phase's."""
        return int(self._pb._n[self.pe])

    def _push(self, kind, cls, arg, addr, dep):
        n = self.n
        if len(dep) > 2:
            raise ValueError(f"op {n}: at most two dependences, got {len(dep)}")
        dist = [0, 0]
        for slot, dep_ix in enumerate(dep):
            if not 0 <= dep_ix < n or n - dep_ix >= DEP_RING:
                raise ValueError(f"dep {dep_ix} out of ring range at op {n}")
            dist[slot] = n - dep_ix
        c = self._pb._singles.get(self.pe)
        if c is None:
            c = self._pb._singles[self.pe] = {k: [] for k in STREAM_COLS}
        c["kind"].append(kind)
        c["cls"].append(cls)
        c["arg"].append(arg)
        c["addr"].append(addr)
        c["dep1"].append(dist[0])
        c["dep2"].append(dist[1])
        self._pb._n[self.pe] += 1
        return n

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


class _Streams:
    """A builder's ``streams``: PE pe's PeStream, made when indexed."""

    __slots__ = ("_pb",)

    def __init__(self, pb: "PlanBuilder"):
        self._pb = pb

    def __len__(self) -> int:
        return self._pb.topo.n_pes

    def __getitem__(self, pe) -> PeStream:
        if not 0 <= pe < len(self):
            raise IndexError(f"PE {pe} of {len(self)}")
        return PeStream(self._pb, int(pe))


def emit_copies(pb: "PlanBuilder", pes, template: dict, addr) -> None:
    """One copy of an op template per work item: item i's on PE ``pes[i]``.

    ``template`` holds the TEMPLATE_COLS columns of the ops, and row i of
    ``addr`` (n_items x the template's loads and stores) the byte
    addresses of item i's loads and stores, in op order. Each dependence
    distance stays within one copy, so the template is checked once for
    every item. A PE listed for several items takes their copies in item
    order. The call adds one entry to ``pb``'s copy table, which keeps
    its own read-only copies of the template's columns, ``pes`` and
    ``addr``; an int64 ``addr`` that owns its memory and is read-only
    already (emit_reduction's) is kept as it is.
    """
    pes = np.array(pes, dtype=np.int64)
    addr = np.asarray(addr, dtype=np.int64)
    addr = addr.copy() if addr.flags.writeable or not addr.flags.owndata else addr
    cols = {k: np.asarray(template[k]) for k in TEMPLATE_COLS}
    n = cols["kind"].size
    width = np.count_nonzero(cols["kind"].astype(TEMPLATE_COLS["kind"]) <= K_STORE)
    if any(c.shape != (n,) for c in cols.values()) or addr.shape != (len(pes), width):
        raise ValueError(f"template columns {[c.shape for c in cols.values()]} and "
                         f"addresses {np.shape(addr)} for {len(pes)} items do not agree")
    n_pe = pb.topo.n_pes
    if pes.ndim != 1 or pes.size and not 0 <= pes.min() <= pes.max() < n_pe:
        raise ValueError(f"work items' PEs must be a row of PE numbers below {n_pe}")
    dist = np.asarray((cols["dep1"], cols["dep2"]), dtype=np.int64)
    bad = (dist < 0) | (dist >= DEP_RING) | (dist > np.arange(n))
    if bad.any():
        dep, j = np.argwhere(bad)[0]
        raise ValueError(f"dep{dep + 1} distance {dist[dep, j]} at template op {j} "
                         f"reaches outside its copy or the {DEP_RING}-op ring")
    for c, d in TEMPLATE_COLS.items():
        cols[c] = cols[c].astype(d)
        cols[c].flags.writeable = False
    pes.flags.writeable = addr.flags.writeable = False
    pb._add(cols, pes, addr)


def emit_reduction(pb: "PlanBuilder", pes, loads: tuple, macs: int, dep_cols: tuple,
                   out_addr: np.ndarray, setup: bool) -> None:
    """Software-pipelined reductions, then the stores of their results.

    Work item i runs on PE ``pes[i]``, as one copy of a template in one
    entry of ``pb``'s copy table. ``loads`` is a tuple of byte
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
    address matrix, which holds the loads step by step, then the stores:
    a view of its loads as items x steps x w takes each with one write.
    So a pair needs no array of its full size besides the matrix, which
    goes to the copy table read-only, without a copy.
    """
    pairs = [part if isinstance(part, tuple) else (part, 0) for part in loads]
    shapes = [np.broadcast_shapes(*map(np.shape, pair)) for pair in pairs]
    widths = [shape[-1] for shape in shapes]
    n_items, n_steps, w = len(pes), shapes[0][-2], sum(widths)
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
    addr = np.empty((n_items, n_steps * w + out_addr.shape[1]), dtype=np.int64)
    loaded = addr[:, :n_steps * w].reshape(n_items, n_steps, w)
    col = 0
    for pair, width in zip(pairs, widths):
        a, b = (np.broadcast_to(t, (n_items, n_steps, width)) for t in pair)
        # one sum into the view, never in place: an in-place add into a
        # strided view may buffer a copy of the whole view
        np.add(a, b, out=loaded[:, :, col:col + width])
        col += width
    addr[:, n_steps * w:] = out_addr
    addr.flags.writeable = False
    emit_copies(pb, pes, c, addr)


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


class PlanBuilder:
    """Accumulates allocations, streams and phases into a KernelPlan.

    The open phase is a copy table, ``(template, pes, addr)`` per entry
    in call order (see the module docstring), plus the ops pushed one at
    a time since the last entry, per PE that pushed any. Per PE the
    builder holds only its op counter, an int64 that runs on across
    phases; ``streams[pe]`` makes PE pe's PeStream when asked.
    """

    def __init__(self, topo: ClusterTopology, scheme: str):
        if scheme not in ("das", "interleaved"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.topo = topo
        self.scheme = scheme
        self.heap = heap_init(0, topo.total_bytes, topo.word_bytes)
        self._n = np.zeros(topo.n_pes, dtype=np.int64)    # each PE's ops, every phase's
        self._table = []            # the open phase's (template, pes, addr) entries
        self._singles = {}          # PE -> the ops it pushed since the last entry, per column
        self.phases = []
        self.transfers = []
        self.alloc_log = []
        self._owners = {}           # live region base -> the Operand allocated there
        self._phase_name = None
        self._counts = {"macs": 0, "loads": 0, "stores": 0}

    @property
    def streams(self) -> _Streams:
        """``streams[pe]`` is PE pe's PeStream, for ops pushed one at a time
        (made when asked, so that no builder refers to itself)."""
        return _Streams(self)

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

    def alloc_windows(self, name: str, tiles: int, words: int) -> Operand:
        """A ``words``-word window per group of ``tiles`` consecutive tiles,
        folded over the group's banks under 'das' (Operand has the stride).
        A window over every tile is one interleaved region of ``words`` words:
        folded over every bank, each word would sit on the same bank.
        """
        topo, wb = self.topo, self.topo.word_bytes
        if tiles < 1 or tiles & (tiles - 1) or topo.n_tiles % tiles:
            raise ValueError(f"{tiles} tiles per window is not a power of two "
                             f"dividing {topo.n_tiles} tiles")
        if tiles == topo.n_tiles:
            folding, stride = interleaved(), words * wb
        else:
            banks = topo.banks_per_tile * tiles
            s = (max(words - 1, 0) // banks).bit_length()
            if s > topo.row_bits:
                raise ShapeError(f"footprint of {words} words per {tiles}-tile window needs s={s}"
                                 f" > {topo.row_bits} row bits; shrink the slice or use more tiles")
            folding = das(banks.bit_length() - 1, s)
            stride = folding.block_bytes(wb)
        op = self.alloc(name, topo.n_tiles // tiles * stride, folding)
        op.tiles, op.win_bytes = tiles, stride
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
        lo, hi = cfg.base_addr, cfg.base_addr + cfg.size_bytes
        self._flush()
        hit = [pes[((a >= lo) & (a < hi)).any(axis=1)] for _, pes, a in self._table]
        pe = min((int(h.min()) for h in hit if h.size), default=None)
        if pe is not None:
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

    def _add(self, template: dict, pes: np.ndarray, addr: np.ndarray) -> None:
        """Add a checked, read-only entry to the copy table, after the ops
        pushed one at a time before it. An entry of no copies or of a
        template without ops adds nothing."""
        self._flush()
        n = len(template["kind"])
        if len(pes) and n:
            self._table.append((template, pes, addr))
            self._n += np.bincount(pes, minlength=self.topo.n_pes) * n

    def _flush(self) -> None:
        """Close the ops each PE pushed one at a time into a one-copy entry."""
        for pe, c in self._singles.items():
            cols = {k: np.array(v, dtype=STREAM_COLS[k]) for k, v in c.items()}
            addr = cols.pop("addr")[cols["kind"] <= K_STORE]
            self._table.append((cols, np.array([pe]), addr[None]))
        self._singles = {}

    def end_phase(self, barrier: bool = True) -> None:
        """Close the open phase into one chunk, its copies numbered per PE
        with numpy, ending in a barrier unless told not to."""
        name = self._phase_name
        if name is None:
            raise RuntimeError("no phase open")
        self._phase_name = None
        self._flush()
        table, self._table = self._table, []
        n_pe = self.topo.n_pes
        # per copy its PE and ops, in table order
        items = [len(pes) for _, pes, _ in table]
        pes = np.concatenate([np.zeros(0, dtype=np.int64)] + [pes for _, pes, _ in table])
        copy_ops = np.repeat([len(t["kind"]) for t, _, _ in table], items).astype(np.int64)
        n_ops = np.bincount(pes, copy_ops, n_pe).astype(np.int64)
        n_copies = np.bincount(pes, minlength=n_pe)
        # the copies in stream order, PE by PE: each one's number on its PE
        # is its place in that order less its PE's first copy's
        order = np.argsort(pes, kind="stable")
        copy_ix = np.empty(len(pes), dtype=np.int64)
        copy_ix[order] = np.arange(len(pes)) - (np.cumsum(n_copies) - n_copies)[pes[order]]
        batches = self._pack_table(name, table, np.split(copy_ix, np.cumsum(items)[:-1]))
        chunk = make_chunk(n_ops, batches, topo=self.topo, n_copies=n_copies,
                           n_mem=sum(a.size for _, _, a in table))
        self._n += barrier
        self.phases.append(Phase(name=name, chunks=[chunk], barrier=barrier))

    def _pack_table(self, name: str, table: list, copy_ixs: list):
        """Yield each table entry as make_chunk batches, counted into the
        closed-form totals: row slices of its address matrix holding at
        most BATCH_OPS addresses (or one copy holding more), resolved to
        banks by one resolve_array call each."""
        regions = self.heap.das_regions()
        for (template, pes, addr), copy_ix in zip(table, copy_ixs):
            kind = template["kind"]
            is_mac = (kind == K_COMPUTE) & (template["cls"] == C_MAC)
            self._counts["macs"] += len(pes) * int(template["arg"][is_mac].sum())
            self._counts["loads"] += len(pes) * int((kind == K_LOAD).sum())
            self._counts["stores"] += len(pes) * int((kind == K_STORE).sum())
            width = addr.shape[1]
            step = max(1, BATCH_OPS // width) if width else len(pes)
            for lo in range(0, len(pes), step):
                block = addr[lo:lo + step].reshape(-1)      # its addresses, then their banks
                if width:
                    try:
                        block = resolve_array(self.topo, regions, block)
                    except ValueError as e:
                        raise self._fault(name, regions, table) from e
                yield pes[lo:lo + step], copy_ix[lo:lo + step], template, block

    def _fault(self, name: str, regions: list, table: list) -> SimulationFault:
        """The fault of a phase whose loads and stores do not all resolve:
        it names the lowest PE whose own accesses, in stream order, fail
        to (a bad address is some PE's, a bad region list fails every PE
        with an access), with that PE's error."""
        for pe in np.unique(np.concatenate([pes for _, pes, a in table if a.size])).tolist():
            own = np.concatenate([a[pes == pe].reshape(-1) for _, pes, a in table])
            try:
                resolve_array(self.topo, regions, own)
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
    """Simulate a plan; the report carries kernel metadata (and schema v1's empty references)."""
    params = params or EngineParams()
    meta = {"kernel": plan.name, "scheme": plan.scheme,
            "workload": plan.workload, "n_parallel": plan.n_parallel,
            "expected_ops": plan.expected_ops, "references": {}}
    rep = run_packed(plan.topo, params, plan.phases, plan.dma, meta=meta,
                     alloc_events=plan.alloc_events)
    rep.check_conservation()
    return rep
