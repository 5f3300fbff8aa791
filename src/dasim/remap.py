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
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import _stepper
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

    One pass in C (``resolve`` in the stepper's library) places every
    address: a search over the folded regions' edges gives each its own
    (p, s), and the permutation is shifts and masks of its word address.
    """
    table, invalid = _folded_table(topo, tuple(regions))
    addrs = np.asarray(addrs, dtype=np.int64)
    src, banks = np.ascontiguousarray(addrs), np.empty(addrs.shape, dtype=np.int64)
    bad = _stepper._lib.resolve(src.ctypes.data, src.size, table.ctypes.data, len(table),
                                topo.word_bytes.bit_length() - 1, topo.bank_bits,
                                topo.total_bytes, banks.ctypes.data)
    if bad >= 0 or invalid:
        raise ValueError(invalid if bad < 0 else f"address 0x{int(addrs.flat[bad]):x} outside L1")
    return banks


@lru_cache(maxsize=16)
def _folded_table(topo: ClusterTopology, regions: tuple) -> tuple:
    """The bound folded regions as read-only int64 rows (base, end, p, s) by
    base and None, or no rows and the error of the first one not valid on
    ``topo``; raises if regions overlap. Cached: a phase's blocks share one list."""
    _check_disjoint(regions)
    folded = [cfg for cfg in regions if cfg.folds and cfg.bound]
    try:
        for cfg in folded:
            cfg.validate(topo)
    except ValueError as e:
        return np.zeros((0, 4), dtype=np.int64), str(e)
    table = np.array(sorted((c.base_addr, c.base_addr + c.size_bytes, c.p, c.s)
                            for c in folded), dtype=np.int64).reshape(-1, 4)
    table.flags.writeable = False       # every caller of a region list shares it
    return table, None
