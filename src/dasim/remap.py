"""Address mapping between the linear L1 space and (bank, row) locations.

Two schemes exist. The baseline interleaves consecutive words across all
banks of the cluster, one row at a time. A partitioned region instead
folds consecutive words across the 2^p banks of one partition and 2^s
rows before moving to the next partition, so that a contiguous block of
2^(p+s) words lands entirely in one group of physically adjacent banks.

The remapping is a pure permutation of the word-address bits: the s row
bits are inserted right after the p partition-local bank bits. Byte
offsets within a word are never touched. Because only bits below
b+s ever move, the permutation acts within aligned 2^(b+s)-word blocks
of the address space and two regions with the same (p, s) can never
collide physically.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .topology import ClusterTopology


class MapKind(str, Enum):
    INTERLEAVED = "interleaved"
    DAS = "das"


class PhysicalLocation(NamedTuple):
    bank: int
    row: int


@dataclass(frozen=True)
class MapConfig:
    """One address-mapping scheme.

    For the partitioned kind, ``p`` is the log2 bank count of a
    partition and ``s`` the log2 row count folded per partition.
    ``base_addr``/``size_bytes`` are unset on an allocation request and
    assigned by the allocator.
    """

    kind: MapKind
    p: int = 0
    s: int = 0
    base_addr: Optional[int] = None
    size_bytes: Optional[int] = None

    def __post_init__(self):
        if self.kind == MapKind.DAS:
            if self.p < 0 or self.s < 0:
                raise ValueError(f"p and s must be non-negative, got p={self.p} s={self.s}")

    @property
    def bound(self) -> bool:
        return self.base_addr is not None and self.size_bytes is not None

    def block_bytes(self, word_bytes: int) -> int:
        """Alignment unit: one partition block for DAS, one word otherwise."""
        if self.kind == MapKind.DAS:
            return word_bytes << (self.p + self.s)
        return word_bytes

    def validate(self, topo: ClusterTopology) -> None:
        if self.kind == MapKind.DAS:
            if self.p > topo.bank_bits:
                raise ValueError(f"p={self.p} exceeds bank bits b={topo.bank_bits}")
            if self.s > topo.row_bits:
                raise ValueError(f"s={self.s} exceeds row bits r={topo.row_bits}")
        if self.bound:
            align = self.block_bytes(topo.word_bytes)
            if self.base_addr % align:
                raise ValueError(
                    f"region base 0x{self.base_addr:x} not aligned to {align}-byte blocks")
            if self.size_bytes % topo.word_bytes:
                raise ValueError(f"region size {self.size_bytes} not a word multiple")

    def contains(self, addr: int) -> bool:
        return self.bound and self.base_addr <= addr < self.base_addr + self.size_bytes

    def to_json(self) -> dict:
        d = {"kind": self.kind.value}
        if self.kind == MapKind.DAS:
            d["p"] = self.p
            d["s"] = self.s
        if self.bound:
            d["base_addr"] = self.base_addr
            d["size_bytes"] = self.size_bytes
        return d


def interleaved() -> MapConfig:
    return MapConfig(kind=MapKind.INTERLEAVED)


def das(p: int, s: int) -> MapConfig:
    return MapConfig(kind=MapKind.DAS, p=p, s=s)


# -- scalar mapping ----------------------------------------------------------

def _resolve_one(topo: ClusterTopology, regions: Sequence[MapConfig],
                 addr: int) -> PhysicalLocation:
    banks, rows = resolve_array(topo, regions, np.array([addr]))
    return PhysicalLocation(bank=int(banks[0]), row=int(rows[0]))


def interleaved_map(topo: ClusterTopology, addr: int) -> PhysicalLocation:
    """Baseline word-interleaved placement: bank cycles fastest."""
    return _resolve_one(topo, [], addr)


def das_map(topo: ClusterTopology, cfg: MapConfig, addr: int) -> PhysicalLocation:
    """Partitioned placement of an address inside a bound DAS region."""
    if cfg.kind != MapKind.DAS:
        raise ValueError("das_map requires a DAS config")
    if not cfg.bound:
        raise ValueError("das_map requires a bound region (base/size assigned)")
    if not cfg.contains(addr):
        raise ValueError(
            f"address 0x{addr:x} outside region [0x{cfg.base_addr:x}, "
            f"0x{cfg.base_addr + cfg.size_bytes:x})")
    return _resolve_one(topo, [cfg], addr)


def das_inverse(topo: ClusterTopology, cfg: MapConfig, loc: PhysicalLocation) -> int:
    """Word-aligned address that das_map sends to ``loc``.

    Raises if that address falls outside the region, i.e. the location
    is not part of the region's physical footprint.
    """
    if cfg.kind != MapKind.DAS or not cfg.bound:
        raise ValueError("das_inverse requires a bound DAS config")
    b = topo.bank_bits
    p, s = cfg.p, cfg.s
    bank_lo = loc.bank & ((1 << p) - 1)
    bank_hi = loc.bank >> p
    row_lo = loc.row & ((1 << s) - 1)
    row_hi = loc.row >> s
    u = bank_lo | (row_lo << p) | (bank_hi << (p + s)) | (row_hi << (b + s))
    addr = u * topo.word_bytes
    if not cfg.contains(addr):
        raise ValueError(f"location {loc} not in the region's footprint")
    return addr


def resolve(topo: ClusterTopology, regions: Sequence[MapConfig], addr: int) -> PhysicalLocation:
    """Map an address through the region registry.

    Addresses inside a live DAS region use that region's folding;
    everything else falls back to the interleaved baseline. Regions must
    be pairwise disjoint.
    """
    return _resolve_one(topo, regions, addr)


def region_of(regions: Iterable[MapConfig], addr: int) -> Optional[MapConfig]:
    """The bound DAS region among ``regions`` that contains ``addr``, if any."""
    for cfg in regions:
        if cfg.kind == MapKind.DAS and cfg.contains(addr):
            return cfg
    return None


def _check_disjoint(regions: Sequence[MapConfig]) -> None:
    spans = sorted((c.base_addr, c.base_addr + c.size_bytes) for c in regions if c.bound)
    for (_, prev_end), (start, _) in zip(spans, spans[1:]):
        if start < prev_end:
            raise ValueError("mapping regions overlap")


def resolve_array(topo: ClusterTopology, regions: Sequence[MapConfig],
                  addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized resolve over an address array; returns (banks, rows).

    Raises on any address outside L1. Used to pre-resolve whole traces
    before simulation.
    """
    _check_disjoint(regions)
    addrs = np.asarray(addrs, dtype=np.int64)
    if addrs.size and (addrs.min() < 0 or addrs.max() >= topo.total_bytes):
        bad = addrs[(addrs < 0) | (addrs >= topo.total_bytes)][0]
        raise ValueError(f"address 0x{int(bad):x} outside L1")
    u = addrs // topo.word_bytes
    banks = (u % topo.n_banks).astype(np.int64)
    rows = (u // topo.n_banks).astype(np.int64)
    b = topo.bank_bits
    for cfg in regions:
        if cfg.kind != MapKind.DAS or not cfg.bound:
            continue
        cfg.validate(topo)
        sel = (addrs >= cfg.base_addr) & (addrs < cfg.base_addr + cfg.size_bytes)
        if not sel.any():
            continue
        p, s = cfg.p, cfg.s
        ur = u[sel]
        bank_lo = ur & ((1 << p) - 1)
        row_lo = (ur >> p) & ((1 << s) - 1)
        bank_hi = (ur >> (p + s)) & ((1 << (b - p)) - 1)
        row_hi = ur >> (b + s)
        banks[sel] = (bank_hi << p) | bank_lo
        rows[sel] = (row_hi << s) | row_lo
    return banks, rows


# -- DMA segmentation --------------------------------------------------------

def segment_transfer(topo: ClusterTopology, cfg: MapConfig,
                     src: tuple[int, int], dst: tuple[int, int]
                     ) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Cut a transfer at the destination's memory-layout boundaries.

    ``src``/``dst`` are half-open byte ranges of equal length. The dst
    side is split at partition-block boundaries for a DAS region and at
    L1-line boundaries for the interleaved map, so every sub-request
    lands in one contiguous stretch of physical banks. Returns ordered
    (src_sub, dst_sub) pairs whose concatenation is the input.
    """
    src_start, src_stop = src
    dst_start, dst_stop = dst
    if src_stop - src_start != dst_stop - dst_start:
        raise ValueError(
            f"length mismatch: src {src_stop - src_start} vs dst {dst_stop - dst_start}")
    if dst_stop <= dst_start:
        return []
    if cfg.kind == MapKind.DAS:
        if not cfg.bound:
            raise ValueError("segment_transfer needs a bound DAS region")
        if dst_start < cfg.base_addr or dst_stop > cfg.base_addr + cfg.size_bytes:
            raise ValueError("dst range not contained in the mapping region")
        unit = cfg.block_bytes(topo.word_bytes)
        origin = cfg.base_addr
    else:
        unit = topo.line_bytes
        origin = 0
    out = []
    d = dst_start
    s = src_start
    while d < dst_stop:
        nxt = origin + ((d - origin) // unit + 1) * unit
        end = min(nxt, dst_stop)
        n = end - d
        out.append(((s, s + n), (d, end)))
        d = end
        s += n
    return out
