"""Address mapping between the linear L1 space and (bank, row) locations.

There is one mapping: a permutation of the word-address bits set by two
numbers per region. It folds consecutive words across the 2^p banks of
one partition and 2^s rows before moving to the next partition, so that
a contiguous block of 2^(p+s) words lands entirely in one group of
physically adjacent banks. The interleaved baseline is the same
permutation at p = s = 0: consecutive words cycle across all banks of
the cluster, one row at a time.

The permutation inserts the s row bits right after the p partition-local
bank bits. Byte offsets within a word are never touched. Because only
bits below b+s ever move, the permutation acts within aligned
2^(b+s)-word blocks of the address space and two regions with the same
(p, s) can never collide physically.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .topology import ClusterTopology


@dataclass(frozen=True)
class MapConfig:
    """One setting of the address-bit permutation.

    ``p`` is the log2 bank count of a partition and ``s`` the log2 row
    count folded per partition; p = s = 0 is word interleaving.
    ``base_addr``/``size_bytes`` are unset on an allocation request and
    assigned by the allocator.
    """

    p: int = 0
    s: int = 0
    base_addr: Optional[int] = None
    size_bytes: Optional[int] = None

    def __post_init__(self):
        if self.p < 0 or self.s < 0:
            raise ValueError(f"p and s must be non-negative, got p={self.p} s={self.s}")

    @property
    def bound(self) -> bool:
        return self.base_addr is not None and self.size_bytes is not None

    @property
    def folds(self) -> bool:
        """Whether the permutation differs from word interleaving."""
        return self.p > 0 or self.s > 0

    def block_bytes(self, word_bytes: int) -> int:
        """Alignment unit: one partition block of 2^(p+s) words."""
        return word_bytes << (self.p + self.s)

    def validate(self, topo: ClusterTopology) -> None:
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

    def to_json(self) -> dict:
        d = {"kind": "das", "p": self.p, "s": self.s} if self.folds else {"kind": "interleaved"}
        if self.bound:
            d["base_addr"] = self.base_addr
            d["size_bytes"] = self.size_bytes
        return d


def interleaved() -> MapConfig:
    return MapConfig()


def das(p: int, s: int) -> MapConfig:
    return MapConfig(p=p, s=s)


# -- address mapping ---------------------------------------------------------

def _check_disjoint(regions: Sequence[MapConfig]) -> None:
    spans = sorted((c.base_addr, c.base_addr + c.size_bytes) for c in regions if c.bound)
    for (_, prev_end), (start, _) in zip(spans, spans[1:]):
        if start < prev_end:
            raise ValueError("mapping regions overlap")


def resolve_array(topo: ClusterTopology, regions: Sequence[MapConfig],
                  addrs: np.ndarray) -> np.ndarray:
    """Map addresses through the region registry to their banks (int64).

    Addresses inside a bound folded region use that region's (p, s);
    everything else uses p = s = 0, the interleaved baseline. Raises on
    any address outside L1, a misaligned region or overlapping regions.
    Used to pre-resolve whole traces and DMA destinations before
    simulation. A word's row is not computed: no caller reads it.

    One pass places every address: a search over the folded regions'
    edges gives each address its own (p, s), and the permutation is
    shifts and masks of its word address.
    """
    _check_disjoint(regions)
    addrs = np.asarray(addrs, dtype=np.int64)
    # a negative address reads as 2**63 or more unsigned
    if addrs.size and addrs.view(np.uint64).max() >= topo.total_bytes:
        bad = addrs[(addrs < 0) | (addrs >= topo.total_bytes)][0]
        raise ValueError(f"address 0x{int(bad):x} outside L1")
    folded = [cfg for cfg in regions if cfg.folds and cfg.bound]
    for cfg in folded:
        cfg.validate(topo)
    p = s = 0
    if folded:
        folded.sort(key=lambda c: c.base_addr)
        edges = np.array([e for c in folded for e in (c.base_addr, c.base_addr + c.size_bytes)])
        # the gap between edges 2i and 2i + 1 is region i; every other gap
        # lies outside all folded regions, at p = s = 0
        p_at, s_at = np.zeros((2, len(edges) + 1), dtype=np.int64)
        p_at[1::2] = [c.p for c in folded]
        s_at[1::2] = [c.s for c in folded]
        at = np.searchsorted(edges, addrs, side="right")
        p, s = p_at[at], s_at[at]
    u = addrs >> (topo.word_bytes.bit_length() - 1)
    # the bank keeps the p low bits and takes bits p+s .. b+s-1 above them
    p_mask = (1 << p) - 1
    return (u & p_mask) | ((u >> s) & (((1 << topo.bank_bits) - 1) ^ p_mask))
