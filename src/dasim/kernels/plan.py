"""Shared machinery for building kernel plans: the one way to write a program.

A plan bundles the allocation sequence, per-PE operation streams split
into named phases, and the DMA transfer table for one kernel under one
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
from ..alloc import Heap, das_free, das_malloc, heap_init
from ..engine import (ALLOC_COST, DmaTable, EngineParams, Phase, SimulationFault,
                      build_transfer, make_chunk, run_packed)
from ..remap import MapConfig, das, interleaved, resolve_array
from ..topology import ClusterTopology, access_levels

C_ALU, C_MAC, C_DIV = range(3)      # compute classes, indexing EngineParams.class_latency


class ShapeError(ValueError):
    """Workload shape violates the kernel's blocking rules."""


def ceil_log2(n: int) -> int:
    return max(0, (n - 1).bit_length())


def pow2_floor(n: int) -> int:
    return 1 << (n.bit_length() - 1)


def tile_window_cfg(topo: ClusterTopology, per_window_words: int) -> MapConfig:
    """Folding config whose partition is exactly one tile's banks."""
    p = topo.banks_per_tile.bit_length() - 1
    s = max(0, ceil_log2(-(-per_window_words // topo.banks_per_tile)))
    if s > topo.row_bits:
        raise ShapeError(
            f"per-tile footprint of {per_window_words} words needs s={s} > "
            f"{topo.row_bits} row bits; shrink the per-tile slice or use more tiles")
    return das(p, s)


def group_window_cfg(topo: ClusterTopology, tiles_per_group: int,
                     per_window_words: int) -> MapConfig:
    """Folding config spanning the banks of a contiguous tile group."""
    banks = topo.banks_per_tile * tiles_per_group
    p = banks.bit_length() - 1
    s = max(0, ceil_log2(-(-per_window_words // banks)))
    if s > topo.row_bits:
        raise ShapeError(
            f"per-group footprint of {per_window_words} words needs s={s} > "
            f"{topo.row_bits} row bits; shrink the group slice")
    return das(p, s)


def window_words(cfg: MapConfig) -> int:
    return 1 << (cfg.p + cfg.s)


@dataclass
class Operand:
    """A named allocation plus the window arithmetic to address it."""

    name: str
    base: int
    cfg: MapConfig            # config actually registered (scheme-dependent)
    requested: MapConfig      # folding the kernel asked for
    word_bytes: int

    @property
    def win_words(self) -> int:
        return window_words(self.requested)

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
        self._reset()

    def _reset(self):
        self._cur = {"kind": [], "cls": [], "lat": [], "arg": [], "addr": [],
                     "dep1": [], "dep2": []}

    def _push(self, kind, cls, lat, arg, addr, dep):
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
        c["lat"].append(lat)
        c["arg"].append(arg)
        c["addr"].append(addr)
        c["dep1"].append(dist[0])
        c["dep2"].append(dist[1])
        self.n += 1
        return self.n - 1

    def load(self, addr, dep=()):
        return self._push(K_LOAD, 0, -1, 0, addr, dep)

    def store(self, addr, dep=()):
        return self._push(K_STORE, 0, -1, 0, addr, dep)

    def compute(self, cls, count=1, dep=(), lat=-1):
        """``count`` back-to-back issues, result ready ``lat`` after the last.

        ``lat=-1`` takes the latency of class ``cls``.
        """
        if count < 1:
            raise ValueError(f"compute count must be at least 1, got {count}")
        return self._push(K_COMPUTE, cls, lat, count, 0, dep)

    def dma_start(self, tid):
        return self._push(K_DMA_START, 0, -1, tid, 0, ())

    def dma_wait(self, tid):
        return self._push(K_DMA_WAIT, 0, -1, tid, 0, ())

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
        lat = np.full(n, -1, dtype=np.int16)
        self._segs.append({"kind": np.asarray(kind, dtype=np.uint8),
                           "cls": np.asarray(cls, dtype=np.uint8),
                           "lat": lat,
                           "arg": np.asarray(arg, dtype=np.int32),
                           "addr": np.asarray(addr, dtype=np.int64),
                           "dep1": np.asarray(dep1, dtype=np.uint16),
                           "dep2": np.asarray(dep2, dtype=np.uint16)})
        self.n += n

    def _flush(self):
        if self._cur["kind"]:
            c = self._cur
            self._segs.append({
                "kind": np.array(c["kind"], dtype=np.uint8),
                "cls": np.array(c["cls"], dtype=np.uint8),
                "lat": np.array(c["lat"], dtype=np.int16),
                "arg": np.array(c["arg"], dtype=np.int32),
                "addr": np.array(c["addr"], dtype=np.int64),
                "dep1": np.array(c["dep1"], dtype=np.uint16),
                "dep2": np.array(c["dep2"], dtype=np.uint16)})
            self._reset()

    def take(self) -> dict:
        """Concatenate and clear accumulated ops (op counter keeps running)."""
        self._flush()
        if not self._segs:
            cols = {k: np.zeros(0, dtype=d) for k, d in
                    (("kind", np.uint8), ("cls", np.uint8), ("lat", np.int16),
                     ("arg", np.int32), ("addr", np.int64),
                     ("dep1", np.uint16), ("dep2", np.uint16))}
            return cols
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
    dma: DmaTable
    heap: Heap
    operands: list
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
        self.operands = []
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
        op = Operand(name=name, base=base, cfg=cfg, requested=folding,
                     word_bytes=self.topo.word_bytes)
        self.operands.append(op)
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
        n_pe = self.topo.n_pes
        columns = []
        for pe in range(n_pe):
            col = self.streams[pe].take()
            if barrier:
                bar = {k: np.zeros(1, dtype=v.dtype) for k, v in col.items()}
                bar["kind"][0] = K_BARRIER
                bar["lat"][0] = -1
                bar["arg"][0] = len(self.phases)
                col = {k: np.concatenate([col[k], bar[k]]) for k in col}
                self.streams[pe].n += 1
            mem = (col["kind"] == K_LOAD) | (col["kind"] == K_STORE)
            banks = np.zeros(len(col["kind"]), dtype=np.int32)
            levels = np.zeros(len(col["kind"]), dtype=np.uint8)
            if mem.any():
                try:
                    b, _ = resolve_array(self.topo, regions, col["addr"][mem])
                except ValueError as e:
                    raise SimulationFault(f"PE {pe}, phase {name!r}: {e}") from e
                banks[mem] = b
                levels[mem] = access_levels(self.topo, pe, b)
            is_comp = col["kind"] == K_COMPUTE
            self._counts["macs"] += int(col["arg"][is_comp & (col["cls"] == C_MAC)].sum())
            self._counts["loads"] += int((col["kind"] == K_LOAD).sum())
            self._counts["stores"] += int((col["kind"] == K_STORE).sum())
            columns.append({"kind": col["kind"], "cls": col["cls"], "lat": col["lat"],
                            "arg": col["arg"], "bank": banks, "level": levels,
                            "dep1": col["dep1"], "dep2": col["dep2"]})
        chunk = make_chunk(columns, n_pe)
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
            dma=DmaTable.from_transfers(self.transfers), heap=self.heap,
            operands=self.operands, expected_ops=expected_ops,
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
