import random

import pytest

from dasim import (AllocationError, FreeError, MapConfig, das, das_free, das_malloc,
                   heap_init, interleaved)
from reference_alloc import ReferenceAllocator


def check_canonical(heap):
    """Sorted, non-overlapping, fully coalesced free list; conservation."""
    blocks = heap.free_blocks()
    for (s0, z0), (s1, _) in zip(blocks, blocks[1:]):
        assert s0 + z0 < s1, f"not coalesced or out of order: {blocks}"
    for start, size in blocks:
        assert heap.base <= start and start + size <= heap.end
    live = sum(c.size_bytes for c in heap.regions.values())
    assert heap.free_bytes() + live == heap.size
    # live regions disjoint from free blocks and from each other
    spans = sorted([(c.base_addr, c.base_addr + c.size_bytes)
                    for c in heap.regions.values()] +
                   [(s, s + z) for s, z in blocks])
    for (_, e0), (s1, _) in zip(spans, spans[1:]):
        assert e0 <= s1


def test_heap_init():
    h = heap_init(0x1000, 4096)
    assert h.free_blocks() == [(0x1000, 4096)]
    assert h.regions == {}
    h2 = heap_init(0, 4 * 1024 * 1024)
    assert h2.free_blocks() == [(0, 4 * 1024 * 1024)]
    with pytest.raises(ValueError):
        heap_init(0x1002, 16)
    with pytest.raises(ValueError):
        heap_init(0x1000, 0)


def test_first_fit_single_block():
    h = heap_init(0x1000, 4096)
    addr = das_malloc(h, 256, interleaved())
    assert addr == 0x1000
    assert h.free_blocks() == [(0x1100, 3840)]
    check_canonical(h)


def test_das_rounding_and_alignment():
    # toy b=4: p=2, s=1 -> 32 B partition blocks
    h = heap_init(0x1000, 4096)
    a = das_malloc(h, 100, das(2, 1))
    cfg = h.regions[a]
    assert cfg.size_bytes == 128
    assert a % 32 == 0
    check_canonical(h)


def test_aligned_start_skips_snug_blocks():
    h = heap_init(0, 4096)
    a = das_malloc(h, 4, interleaved())      # [0, 4)
    b = das_malloc(h, 60, interleaved())     # [4, 64)
    das_free(h, a)                           # 4-byte hole at 0
    c = das_malloc(h, 128, das(3, 2))        # needs 128-byte alignment
    assert c == 128
    assert (0, 4) in h.free_blocks()
    check_canonical(h)


def test_free_coalesces_both_sides():
    h = heap_init(0, 4096)
    a = das_malloc(h, 256, interleaved())
    b = das_malloc(h, 256, interleaved())
    c = das_malloc(h, 256, interleaved())
    das_free(h, b)
    das_free(h, a)
    assert (a, 512) in h.free_blocks()
    das_free(h, c)
    assert h.free_blocks() == [(0, 4096)]
    check_canonical(h)


def test_teardown_restores_init():
    h = heap_init(0x2000, 8192)
    addrs = [das_malloc(h, sz, cfg) for sz, cfg in
             [(100, das(2, 1)), (64, interleaved()), (700, das(3, 0)),
              (4, interleaved())]]
    random.Random(7).shuffle(addrs)
    for a in addrs:
        das_free(h, a)
    assert h.free_blocks() == [(0x2000, 8192)]
    assert h.regions == {}


def test_free_errors():
    h = heap_init(0, 4096)
    a = das_malloc(h, 64, interleaved())
    with pytest.raises(FreeError):
        das_free(h, a + 4)
    das_free(h, a)
    with pytest.raises(FreeError):
        das_free(h, a)


def test_allocation_failure_is_distinct():
    h = heap_init(0, 256)
    das_malloc(h, 200, interleaved())
    with pytest.raises(AllocationError):
        das_malloc(h, 100, interleaved())
    with pytest.raises(ValueError):
        das_malloc(h, 0, interleaved())
    with pytest.raises(ValueError, match="must not carry base/size"):
        das_malloc(h, 4, MapConfig(base_addr=0, size_bytes=4))


def test_kv_reuse_returns_same_block():
    # freeing a region and allocating the same size/config again must
    # land on the same bytes (first fit), enabling in-place streaming
    h = heap_init(0, 65536)
    q = das_malloc(h, 4096, das(2, 2))
    k = das_malloc(h, 8192, das(2, 2))
    o = das_malloc(h, 4096, das(2, 2))
    das_free(h, k)
    v = das_malloc(h, 8192, das(2, 2))
    assert v == k
    check_canonical(h)


def test_oracle_equivalence_randomized():
    rng = random.Random(12345)
    h = heap_init(0, 1 << 20)
    ref = ReferenceAllocator(0, 1 << 20)
    live = []
    for step in range(10_000):
        if live and (rng.random() < 0.45 or len(live) > 400):
            addr = live.pop(rng.randrange(len(live)))
            das_free(h, addr)
            ref.free(addr)
        else:
            size = rng.randrange(4, 64 * 1024)
            if rng.random() < 0.5:
                cfg = das(rng.randrange(0, 5), rng.randrange(0, 3))
            else:
                cfg = interleaved()
            unit = cfg.block_bytes(4)
            want = ref.malloc(size, unit)
            if want is None:
                with pytest.raises(AllocationError):
                    das_malloc(h, size, cfg)
            else:
                got = das_malloc(h, size, cfg)
                assert got == want, f"step {step}: {got:#x} != {want:#x}"
                live.append(got)
        if step % 37 == 0:
            check_canonical(h)
            assert h.free_bytes() == ref.free_bytes()
    check_canonical(h)
