"""Dynamic heap allocator with a per-region mapping registry.

Free space is tracked as a unidirectional chain of blocks ordered by
start address, mirroring the runtime's software list. Every allocation
registers the mapping configuration chosen for the new region; the set
of live regions is what the address mapper consults (see remap.resolve).
"""

from dataclasses import dataclass, field
from typing import Optional

from .remap import MapConfig, MapKind, region_of


class AllocationError(Exception):
    """No free block can hold the request."""


class FreeError(Exception):
    """Freed address is not the base of a live region."""


@dataclass
class FreeBlock:
    start: int
    size: int
    next: Optional["FreeBlock"] = None

    @property
    def end(self) -> int:
        return self.start + self.size


def _round_up(x: int, unit: int) -> int:
    return -(-x // unit) * unit


@dataclass
class Heap:
    base: int
    size: int
    word_bytes: int = 4
    head: Optional[FreeBlock] = None
    regions: dict = field(default_factory=dict)   # base addr -> bound MapConfig

    @property
    def end(self) -> int:
        return self.base + self.size

    def free_blocks(self) -> list[tuple[int, int]]:
        out = []
        blk = self.head
        while blk is not None:
            out.append((blk.start, blk.size))
            blk = blk.next
        return out

    def free_bytes(self) -> int:
        return sum(sz for _, sz in self.free_blocks())

    def live_regions(self) -> list[MapConfig]:
        return sorted(self.regions.values(), key=lambda c: c.base_addr)

    def das_regions(self) -> list[MapConfig]:
        return [c for c in self.live_regions() if c.kind == MapKind.DAS]


def heap_init(base: int, size: int, word_bytes: int = 4) -> Heap:
    """Create a heap whose free list is one block covering everything."""
    if size <= 0:
        raise ValueError(f"heap size must be positive, got {size}")
    if base % word_bytes:
        raise ValueError(f"heap base 0x{base:x} not word-aligned")
    heap = Heap(base=base, size=size, word_bytes=word_bytes)
    heap.head = FreeBlock(base, size)
    return heap


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

    prev = None
    blk = heap.head
    while blk is not None:
        start = _round_up(blk.start, unit)
        if start + eff <= blk.end:
            _carve(heap, prev, blk, start, eff)
            cfg = MapConfig(kind=cfg_request.kind, p=cfg_request.p, s=cfg_request.s,
                            base_addr=start, size_bytes=eff)
            heap.regions[start] = cfg
            return start
        prev = blk
        blk = blk.next
    raise AllocationError(
        f"no free block fits {eff} bytes at {unit}-byte alignment "
        f"(free: {heap.free_blocks()})")


def _carve(heap: Heap, prev: Optional[FreeBlock], blk: FreeBlock,
           start: int, eff: int) -> None:
    """Remove [start, start+eff) from blk, keeping any leading/trailing slack."""
    pieces = []
    if start > blk.start:
        pieces.append(FreeBlock(blk.start, start - blk.start))
    if start + eff < blk.end:
        pieces.append(FreeBlock(start + eff, blk.end - (start + eff)))
    for a, b in zip(pieces, pieces[1:]):
        a.next = b
    tail = blk.next
    if pieces:
        pieces[-1].next = tail
        repl = pieces[0]
    else:
        repl = tail
    if prev is None:
        heap.head = repl
    else:
        prev.next = repl


def das_free(heap: Heap, addr: int) -> None:
    """Return a region's bytes to the free list and drop its config."""
    cfg = heap.regions.pop(addr, None)
    if cfg is None:
        raise FreeError(f"0x{addr:x} is not the base of a live region")
    _insert_free(heap, addr, cfg.size_bytes)


def _insert_free(heap: Heap, start: int, size: int) -> None:
    prev = None
    blk = heap.head
    while blk is not None and blk.start < start:
        prev = blk
        blk = blk.next
    node = FreeBlock(start, size, next=blk)
    if prev is None:
        heap.head = node
    else:
        prev.next = node
    # merge with successor, then with predecessor
    if node.next is not None and node.end == node.next.start:
        node.size += node.next.size
        node.next = node.next.next
    if prev is not None and prev.end == node.start:
        prev.size += node.size
        prev.next = node.next


def region_lookup(heap: Heap, addr: int) -> Optional[MapConfig]:
    """Live partitioned region containing addr, if any."""
    return region_of(heap.regions.values(), addr)
