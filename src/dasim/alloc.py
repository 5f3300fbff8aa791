"""Dynamic heap allocator with a per-region mapping registry.

Free space is tracked as a list of (start, size) blocks ordered by start
address, mirroring the runtime's software list. Every allocation
registers the mapping configuration chosen for the new region; the set
of live regions is what the address mapper consults (see
remap.resolve_array).
"""

from bisect import bisect_left
from dataclasses import dataclass, field, replace

from .remap import MapConfig


class AllocationError(Exception):
    """No free block can hold the request."""


class FreeError(Exception):
    """Freed address is not the base of a live region."""


def _round_up(x: int, unit: int) -> int:
    return -(-x // unit) * unit


@dataclass
class Heap:
    base: int
    size: int
    word_bytes: int = 4
    free: list = field(default_factory=list)      # (start, size) blocks by start
    regions: dict = field(default_factory=dict)   # base addr -> bound MapConfig

    @property
    def end(self) -> int:
        return self.base + self.size

    def free_blocks(self) -> list[tuple[int, int]]:
        return list(self.free)

    def free_bytes(self) -> int:
        return sum(sz for _, sz in self.free)

    def das_regions(self) -> list[MapConfig]:
        """Live folded regions by base address."""
        return sorted((c for c in self.regions.values() if c.folds),
                      key=lambda c: c.base_addr)


def heap_init(base: int, size: int, word_bytes: int = 4) -> Heap:
    """Create a heap whose free list is one block covering everything."""
    if size <= 0:
        raise ValueError(f"heap size must be positive, got {size}")
    if base % word_bytes:
        raise ValueError(f"heap base 0x{base:x} not word-aligned")
    return Heap(base=base, size=size, word_bytes=word_bytes, free=[(base, size)])


def das_malloc(heap: Heap, size: int, cfg_request: MapConfig) -> int:
    """First-fit allocation honoring the request's alignment.

    The effective size is rounded up to a partition-block multiple for
    partitioned requests and to a word multiple otherwise. Blocks whose
    aligned start no longer fits the rounded size are skipped. Returns
    the region start and registers the bound config.
    """
    if size <= 0:
        raise ValueError(f"allocation size must be positive, got {size}")
    if cfg_request.bound:
        raise ValueError("allocation request must not carry base/size")
    unit = cfg_request.block_bytes(heap.word_bytes)
    eff = _round_up(size, unit)

    for i, (blk_start, blk_size) in enumerate(heap.free):
        start = _round_up(blk_start, unit)
        blk_end = blk_start + blk_size
        if start + eff <= blk_end:
            # the block gives way to its leading and trailing slack
            heap.free[i:i + 1] = [(lo, hi - lo) for lo, hi in
                                  ((blk_start, start), (start + eff, blk_end)) if hi > lo]
            cfg = replace(cfg_request, base_addr=start, size_bytes=eff)
            heap.regions[start] = cfg
            return start
    raise AllocationError(
        f"no free block fits {eff} bytes at {unit}-byte alignment "
        f"(free: {heap.free_blocks()})")


def das_free(heap: Heap, addr: int) -> None:
    """Return a region's bytes to the free list and drop its config."""
    cfg = heap.regions.pop(addr, None)
    if cfg is None:
        raise FreeError(f"0x{addr:x} is not the base of a live region")
    free = heap.free
    lo = hi = bisect_left(free, (addr,))
    start, end = addr, addr + cfg.size_bytes
    # merge with successor, then with predecessor
    if hi < len(free) and free[hi][0] == end:
        end += free[hi][1]
        hi += 1
    if lo and sum(free[lo - 1]) == start:
        lo -= 1
        start = free[lo][0]
    free[lo:hi] = [(start, end - start)]
