"""Shared machinery for building kernel plans: the one way to write a program.

A plan bundles the allocation sequence, per-PE operation streams split
into named phases, and the DMA transfers for one kernel under one
mapping scheme. Programs are written op by op (or in bulk) on one
PeStream per PE, with byte addresses. PlanBuilder.end_phase closes a
phase: it appends the phase barrier, resolves the addresses against the
regions live at that moment (so a region freed in a later phase still
resolves the accesses emitted while it was live) and packs every PE's
ops into the phase's single chunk.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .._stepper import (DEP_RING, K_BARRIER, K_COMPUTE, K_DMA_START, K_DMA_WAIT,
                        K_LOAD, K_STORE)
from ..alloc import das_free, das_malloc, heap_init
from ..engine import (ALLOC_COST, EngineParams, Phase, SimulationFault,
                      build_transfer, make_chunk, run_packed)
from ..remap import MapConfig, das, interleaved, resolve_array
from ..topology import ClusterTopology, access_levels

C_ALU, C_MAC, C_DIV = range(3)      # compute classes, indexing EngineParams.class_latency

# the columns of an op record and their dtypes, from PeStream to end_phase,
# which resolves addr into the packed chunk's bank and level columns
STREAM_COLS = {"kind": np.uint8, "cls": np.uint8, "arg": np.int32,
               "addr": np.int64, "dep1": np.uint16, "dep2": np.uint16}


class ShapeError(ValueError):
    """Workload shape violates the kernel's blocking rules."""


def ceil_log2(n: int) -> int:
    return max(0, (n - 1).bit_length())


def pow2_floor(n: int) -> int:
    return 1 << (n.bit_length() - 1)


def group_window_cfg(topo: ClusterTopology, tiles_per_group: int,
                     per_window_words: int) -> MapConfig:
    """Folding config spanning the banks of a contiguous tile group.

    With ``tiles_per_group`` 1 the partition is exactly one tile's banks.
    """
    banks = topo.banks_per_tile * tiles_per_group
    p = banks.bit_length() - 1
    s = max(0, ceil_log2(-(-per_window_words // banks)))
    if s > topo.row_bits:
        raise ShapeError(
            f"footprint of {per_window_words} words per {tiles_per_group}-tile "
            f"window needs s={s} > {topo.row_bits} row bits; shrink the slice "
            f"or use more tiles")
    return das(p, s)


def window_words(cfg: MapConfig) -> int:
    return 1 << (cfg.p + cfg.s)


@dataclass
class Operand:
    """A named allocation plus the window arithmetic to address it."""

    name: str
    base: int
    win_words: int            # window of the folding the kernel asked for
    word_bytes: int

    def addr(self, window_index, offset_words):
        """Byte address of offset_words within a window; numpy-friendly."""
        return self.base + (window_index * self.win_words + offset_words) * self.word_bytes


class PeStream:
    """Columnar op accumulator for one PE.

    Each op method returns the op's absolute index in the stream. ``dep``
    names up to two earlier ops whose results the op consumes: waiting
    for a load is an LSU stall, waiting for a compute result a RAW stall.
    """

    __slots__ = ("n", "_segs", "_cur")

    def __init__(self):
        self.n = 0
        self._segs = []
        self._cur = {k: [] for k in STREAM_COLS}

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

        The result is ready the class latency (EngineParams.class_latency)
        after the last issue.
        """
        if count < 1:
            raise ValueError(f"compute count must be at least 1, got {count}")
        return self._push(K_COMPUTE, cls, count, 0, dep)

    def dma_start(self, tid):
        return self._push(K_DMA_START, 0, tid, 0, ())

    def dma_wait(self, tid):
        return self._push(K_DMA_WAIT, 0, tid, 0, ())

    def barrier(self, phase):
        """The global barrier that ends phase number ``phase``."""
        return self._push(K_BARRIER, 0, phase, 0, ())

    def extend(self, kind, cls, arg, addr, dep1, dep2):
        """Bulk append of parallel arrays; deps are back-distances."""
        n = len(kind)
        if n == 0:
            return
        own = np.arange(self.n, self.n + n)
        dist = np.asarray((dep1, dep2), dtype=np.int64)
        if dist.min() < 0 or dist.max() >= DEP_RING or (own - dist).min() < 0:
            dep, j = np.argwhere((dist < 0) | (dist >= DEP_RING) | (dist > own))[0]
            raise ValueError(f"dep{dep + 1} distance {dist[dep, j]} out of ring range "
                             f"at op {own[j]}")
        self._flush()
        self._segs.append({k: np.asarray(v, dtype=d) for (k, d), v in
                           zip(STREAM_COLS.items(), (kind, cls, arg, addr, dep1, dep2))})
        self.n += n

    def _flush(self):
        if self._cur["kind"]:
            self._segs.append({k: np.array(v, dtype=STREAM_COLS[k])
                               for k, v in self._cur.items()})
            self._cur = {k: [] for k in STREAM_COLS}

    def take(self) -> dict:
        """Concatenate and clear accumulated ops (op counter keeps running)."""
        self._flush()
        if not self._segs:
            return {k: np.zeros(0, dtype=d) for k, d in STREAM_COLS.items()}
        cols = {k: np.concatenate([s[k] for s in self._segs])
                for k in self._segs[0]}
        self._segs = []
        return cols


@dataclass
class KernelPlan:
    topo: ClusterTopology
    scheme: str
    name: str
    workload: str
    n_parallel: int
    phases: list
    dma: list                 # DmaTransfers, in id order
    expected_ops: dict
    counted_ops: dict
    alloc_events: list
    references: dict = field(default_factory=dict)


class PlanBuilder:
    """Accumulates allocations, streams and phases into a KernelPlan."""

    def __init__(self, topo: ClusterTopology, scheme: str, heap_base: int,
                 heap_size: int):
        if scheme not in ("das", "interleaved"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.topo = topo
        self.scheme = scheme
        self.heap = heap_init(heap_base, heap_size, topo.word_bytes)
        self.streams = [PeStream() for _ in range(topo.n_pes)]
        self.phases = []
        self.transfers = []
        self.alloc_log = []
        self._phase_name = None
        self._counts = {"macs": 0, "loads": 0, "stores": 0}

    # -- allocation ----------------------------------------------------------

    def alloc(self, name: str, size_bytes: int, folding: MapConfig,
              charge_pe: int = 0) -> Operand:
        """Allocate an operand region; folding applies under 'das' only.

        Charges the allocator's configuration cost to ``charge_pe`` as
        issued work inside the current phase.
        """
        if self._phase_name is None:
            raise RuntimeError("alloc must happen inside a phase")
        req = folding if self.scheme == "das" else interleaved()
        base = das_malloc(self.heap, size_bytes, req)
        cfg = self.heap.regions[base]
        op = Operand(name=name, base=base, win_words=window_words(folding),
                     word_bytes=self.topo.word_bytes)
        self.alloc_log.append({"phase": self._phase_name, "operand": name,
                               "size_bytes": cfg.size_bytes,
                               "mapping": cfg.to_json()})
        self.streams[charge_pe].compute(C_ALU, count=ALLOC_COST)
        return op

    def free(self, operand: Operand) -> None:
        das_free(self.heap, operand.base)

    def transfer(self, src: tuple, dst: tuple) -> int:
        """Register an L2-to-L1 transfer segmented on current regions."""
        tid = len(self.transfers)
        self.transfers.append(build_transfer(
            self.topo, self.heap.das_regions(), tid, src, dst))
        return tid

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
        regions = self.heap.das_regions()
        columns = []
        for pe, stream in enumerate(self.streams):
            if barrier:
                stream.barrier(len(self.phases))
            col = stream.take()
            addr = col.pop("addr")
            kind = col["kind"]
            mem = (kind == K_LOAD) | (kind == K_STORE)
            col["bank"] = np.zeros(len(kind), dtype=np.int32)
            col["level"] = np.zeros(len(kind), dtype=np.uint8)
            if mem.any():
                try:
                    b, _ = resolve_array(self.topo, regions, addr[mem])
                except ValueError as e:
                    raise SimulationFault(f"PE {pe}, phase {name!r}: {e}") from e
                col["bank"][mem] = b
                col["level"][mem] = access_levels(self.topo, pe, b)
            is_comp = kind == K_COMPUTE
            self._counts["macs"] += int(col["arg"][is_comp & (col["cls"] == C_MAC)].sum())
            self._counts["loads"] += int((kind == K_LOAD).sum())
            self._counts["stores"] += int((kind == K_STORE).sum())
            columns.append(col)
        chunk = make_chunk(columns, self.topo.n_pes)
        self.phases.append(Phase(name=name, chunks=[chunk], barrier=barrier))

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
