import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dasim import (ClusterTopology, das, desk_default, interleaved, resolve_array,
                   terapool_default)
from dasim.engine import build_transfer
import reference_remap


def toy_topology(b=4, r=4):
    """Smallest parametric cluster with 2^b banks and 2^r rows."""
    # one tile of 2^b banks keeps the geometry legal for any b
    return ClusterTopology(pes_per_tile=4, banks_per_tile=2 ** b,
                           tiles_per_subgroup=1, subgroups_per_group=1,
                           groups=1, rows_per_bank=2 ** r, word_bytes=4)


def fold_reference(b, p, s, u):
    """Independent folding oracle using div/mod arithmetic only."""
    bank_lo = u % 2 ** p
    u //= 2 ** p
    row_lo = u % 2 ** s
    u //= 2 ** s
    bank_hi = u % 2 ** (b - p)
    u //= 2 ** (b - p)
    row_hi = u
    return bank_hi * 2 ** p + bank_lo, row_hi * 2 ** s + row_lo


def interleaved_reference(topo, u):
    """Word u of the interleaved baseline: bank cycles fastest."""
    return u % topo.n_banks, u // topo.n_banks


def das_inverse(topo, cfg, bank, row):
    """Byte address that cfg's folding sends to (bank, row).

    A second, inverse implementation of the bit permutation, the oracle
    that the mapping is a bijection with this inverse.
    """
    b = topo.bank_bits
    p, s = cfg.p, cfg.s
    bank_lo = bank & ((1 << p) - 1)
    bank_hi = bank >> p
    row_lo = row & ((1 << s) - 1)
    row_hi = row >> s
    u = bank_lo | (row_lo << p) | (bank_hi << (p + s)) | (row_hi << (b + s))
    return u * topo.word_bytes


def bound(cfg, base, size):
    return dataclasses.replace(cfg, base_addr=base, size_bytes=size)


def places(topo, regions, addrs):
    """(bank, row) of each address, as Python ints: resolve_array's bank
    and the permutation's row by its shifts and masks."""
    banks = resolve_array(topo, regions, np.asarray(addrs))
    rows = reference_remap.shift_rows(topo, regions, addrs)
    return list(zip(banks.tolist(), rows.tolist()))


# -- interleaved baseline -----------------------------------------------------

def test_interleaved_examples():
    t = toy_topology()
    assert places(t, [], [0x00, 0x44, 0x40]) == [(0, 0), (1, 1), (0, 1)]


def test_interleaved_out_of_range():
    t = toy_topology()
    for addr in (t.total_bytes, -4):
        with pytest.raises(ValueError, match="outside L1"):
            resolve_array(t, [], np.array([addr]))


# -- partitioned mapping ------------------------------------------------------

def test_das_toy_examples():
    t = toy_topology()
    cfg = bound(das(2, 1), 0, t.total_bytes)
    assert places(t, [cfg], [0x14, 0x20]) == [(1, 1), (4, 0)]


def test_das_terapool_folding():
    # frozen from the div/mod oracle over the first 2^16 words
    t = terapool_default()
    cfg = bound(das(5, 2), 0, t.total_bytes)
    assert places(t, [cfg], [0x200]) == [(32, 0)]
    words = range(0, 2 ** 16, 97)
    assert places(t, [cfg], [u * 4 for u in words]) == [
        fold_reference(t.bank_bits, 5, 2, u) for u in words]


def test_das_region_gating():
    # addresses outside the region keep the interleaved placement
    t = toy_topology()
    cfg = bound(das(2, 1), 0x40, 0x40)
    assert places(t, [cfg], [0x20, 0x3C, 0x80]) == [
        interleaved_reference(t, u) for u in (0x8, 0xF, 0x20)]
    assert places(t, [cfg], [0x40, 0x7C]) == [
        fold_reference(t.bank_bits, 2, 1, u) for u in (0x10, 0x1F)]


def test_das_misaligned_region_rejected():
    t = toy_topology()
    cfg = bound(das(2, 1), 0x10, 0x40)  # block is 32 B, base is 16
    with pytest.raises(ValueError, match="not aligned"):
        resolve_array(t, [cfg], np.array([0x10]))
    cfg = bound(das(2, 1), 0x20, 0x42)  # ends mid-word
    with pytest.raises(ValueError, match="not a word multiple"):
        resolve_array(t, [cfg], np.array([0x20]))


@pytest.mark.parametrize("p,s", [(-1, 0), (0, -2)])
def test_negative_folding_rejected(p, s):
    with pytest.raises(ValueError, match="must be non-negative"):
        das(p, s)


def test_identity_when_p_is_b():
    t = toy_topology()
    cfg = bound(das(t.bank_bits, 0), 0, t.total_bytes)
    n_words = t.total_bytes // 4
    assert places(t, [cfg], np.arange(n_words) * 4) == [
        interleaved_reference(t, u) for u in range(n_words)]


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 6), r=st.integers(1, 6), data=st.data())
def test_bijectivity_and_inverse(b, r, data):
    t = toy_topology(b, r)
    p = data.draw(st.integers(0, b))
    s = data.draw(st.integers(0, r))
    block = 4 * 2 ** (p + s)
    n_blocks = t.total_bytes // block
    base_blk = data.draw(st.integers(0, n_blocks - 1))
    size = data.draw(st.integers(1, n_blocks - base_blk)) * block
    cfg = bound(das(p, s), base_blk * block, size)
    addrs = range(cfg.base_addr, cfg.base_addr + size, 4)
    locs = places(t, [cfg], addrs)
    assert len(set(locs)) == len(locs)
    for addr, (bank, row) in zip(addrs, locs):
        assert 0 <= bank < t.n_banks
        assert 0 <= row < t.rows_per_bank
        assert das_inverse(t, cfg, bank, row) == addr


def test_locality_one_tile_per_block():
    # 2^(p+s) consecutive words stay in one tile when p covers its banks
    t = ClusterTopology(pes_per_tile=4, banks_per_tile=8, tiles_per_subgroup=2,
                        subgroups_per_group=2, groups=2, rows_per_bank=16)
    p = 3  # log2(banks_per_tile)
    for s in (0, 1, 2):
        cfg = bound(das(p, s), 0, t.total_bytes)
        banks = resolve_array(t, [cfg], np.arange(0, t.total_bytes, 4))
        tiles = (banks // t.banks_per_tile).reshape(-1, 2 ** (p + s))
        assert (tiles == tiles[:, :1]).all()


def test_resolve_registry():
    t = toy_topology()
    r1 = bound(das(2, 1), 0x40, 0x40)
    assert places(t, [], [0x14]) == [interleaved_reference(t, 0x5)]
    assert places(t, [r1], [0x50]) == [fold_reference(t.bank_bits, 2, 1, 0x14)]
    assert places(t, [r1], [0x3F]) == [interleaved_reference(t, 0xF)]
    r2 = bound(das(2, 1), 0x60, 0x40)
    with pytest.raises(ValueError, match="overlap"):
        resolve_array(t, [r1, r2], np.array([0x0]))


def test_resolve_array_matches_scalar():
    # folded inside the DAS region; an interleaved region maps as the baseline
    t = toy_topology()
    r1 = bound(das(2, 1), 0x40, 0x40)
    r2 = bound(interleaved(), 0x100, 0x40)
    words = range(t.total_bytes // 4)
    assert places(t, [r1, r2], [u * 4 for u in words]) == [
        fold_reference(t.bank_bits, 2, 1, u) if 0x40 <= u * 4 < 0x80
        else interleaved_reference(t, u) for u in words]


def test_resolve_array_rejects_out_of_l1():
    t = toy_topology()
    with pytest.raises(ValueError):
        resolve_array(t, [], np.array([t.total_bytes]))


# -- against the division-based oracle ---------------------------------------

TOPOLOGIES = {"toy": toy_topology(), "desk": desk_default(), "terapool": terapool_default()}


def random_regions(rng, topo, n):
    """Up to ``n`` disjoint bound regions in random order: each one folded
    at a random (p, s), p or s or both possibly 0, or interleaved. A base
    is aligned to its region's block; an end is any word."""
    regions, at = [], 0
    for _ in range(n):
        cfg = das(int(rng.integers(0, topo.bank_bits + 1)),
                  int(rng.integers(0, topo.row_bits + 1)))
        if rng.random() < 0.2:
            cfg = interleaved()
        block = cfg.block_bytes(topo.word_bytes)
        base = -(-at // block) * block + block * int(rng.integers(0, 3))
        size = topo.word_bytes * int(rng.integers(1, 3 * (block // topo.word_bytes) + 2))
        if base + size > topo.total_bytes:
            break
        regions.append(bound(cfg, base, size))
        at = base + size + topo.word_bytes * int(rng.integers(0, 3))
    return [regions[i] for i in rng.permutation(len(regions))]


def edge_addresses(topo, regions):
    """The words on both sides of every region edge and of L1's own."""
    wb = topo.word_bytes
    edges = [e for c in regions for e in (c.base_addr, c.base_addr + c.size_bytes)]
    near = np.array([0, topo.total_bytes] + edges)[:, None] + np.array([-2, -1, 0, 1]) * wb
    return near[(near >= 0) & (near < topo.total_bytes)]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("name", TOPOLOGIES)
def test_resolve_array_matches_the_division_oracle(name, seed):
    t = TOPOLOGIES[name]
    rng = np.random.default_rng(seed)
    regions = random_regions(rng, t, int(rng.integers(0, 6)))
    words = [rng.integers(0, t.total_bytes // t.word_bytes, 2000)]
    words += [rng.integers(c.base_addr, c.base_addr + c.size_bytes, 50) // t.word_bytes
              for c in regions]
    addrs = np.concatenate([np.concatenate(words) * t.word_bytes, edge_addresses(t, regions)])
    for regs in (regions, [c for c in regions if not c.folds], []):
        got = resolve_array(t, regs, addrs), reference_remap.shift_rows(t, regs, addrs)
        want = reference_remap.resolve_array(t, regs, addrs)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("name", ["desk", "terapool"])
def test_resolve_array_matches_the_division_oracle_over_many_adjacent_regions(name):
    # 40 folded regions end to end, listed out of address order: far more
    # than random_regions draws, so the search over region edges takes
    # many steps, and every word at an edge is checked on both sides
    t = TOPOLOGIES[name]
    rng = np.random.default_rng(40)
    regions, at = [], 64 * t.word_bytes
    for _ in range(40):
        p = int(rng.integers(0, 4))
        cfg = das(p, int(rng.integers(0 if p else 1, 4)))
        size = 64 * t.word_bytes * int(rng.integers(1, 5))      # whole 64-word blocks
        regions.append(bound(cfg, at, size))
        at += size
    regions = [regions[i] for i in rng.permutation(len(regions))]
    inside = [rng.integers(c.base_addr, c.base_addr + c.size_bytes, 20) // t.word_bytes
              for c in regions]
    addrs = np.concatenate([np.concatenate(inside) * t.word_bytes,
                            edge_addresses(t, regions),
                            rng.integers(0, t.total_bytes // t.word_bytes, 500) * t.word_bytes])
    got = resolve_array(t, regions, addrs), reference_remap.shift_rows(t, regions, addrs)
    for g, w in zip(got, reference_remap.resolve_array(t, regions, addrs)):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def test_resolve_array_places_adjacent_regions_at_their_edge():
    # the word at the shared edge of two folded regions takes the upper
    # one's folding, the word before it the lower one's
    t = toy_topology()
    lo, hi = bound(das(2, 1), 0x40, 0x40), bound(das(1, 2), 0x80, 0x40)
    addrs = np.array([0x3C, 0x40, 0x7C, 0x80, 0xBC, 0xC0])
    assert places(t, [hi, lo], addrs) == [
        interleaved_reference(t, 0xF), fold_reference(t.bank_bits, 2, 1, 0x10),
        fold_reference(t.bank_bits, 2, 1, 0x1F), fold_reference(t.bank_bits, 1, 2, 0x20),
        fold_reference(t.bank_bits, 1, 2, 0x2F), interleaved_reference(t, 0x30)]
    got = resolve_array(t, [hi, lo], addrs), reference_remap.shift_rows(t, [hi, lo], addrs)
    for g, w in zip(got, reference_remap.resolve_array(t, [hi, lo], addrs)):
        np.testing.assert_array_equal(g, w)


# regions and addresses that resolve_array rejects; where several faults
# meet, overlap is reported before an address outside L1, and that before
# a misaligned region
REJECTED = {
    "outside-high": ([], [0, 1 << 30, 4]),
    "outside-negative": ([], [4, -4, 1 << 30]),
    "outside-first-of-two": ([bound(das(2, 1), 0x40, 0x40)], [0x40, 1 << 30, -8]),
    "misaligned-base": ([bound(das(2, 1), 0x10, 0x40)], [0x10]),
    "size-not-words": ([bound(das(2, 1), 0x20, 0x42)], [0x20]),
    "misaligned-no-access": ([bound(das(2, 1), 0x10, 0x40)], [0x100]),
    "misaligned-second": ([bound(das(1, 0), 0x0, 0x8), bound(das(2, 2), 0x90, 0x40)], []),
    "overlap": ([bound(das(2, 1), 0x40, 0x40), bound(das(2, 1), 0x60, 0x40)], [0x0]),
    "overlap-interleaved": ([bound(das(2, 1), 0x40, 0x40), bound(interleaved(), 0x7C, 8)], []),
    "overlap-and-outside": ([bound(das(2, 1), 0x40, 0x40), bound(das(2, 1), 0x60, 0x40)],
                            [1 << 30]),
    "outside-and-misaligned": ([bound(das(2, 1), 0x10, 0x40)], [0x10, 1 << 30]),
}


@pytest.mark.parametrize("case", REJECTED)
def test_resolve_array_rejects_like_the_division_oracle(case):
    t = toy_topology()
    regions, addrs = REJECTED[case]
    with pytest.raises(ValueError) as want:
        reference_remap.resolve_array(t, regions, np.array(addrs, dtype=np.int64))
    with pytest.raises(ValueError) as got:
        resolve_array(t, regions, np.array(addrs, dtype=np.int64))
    assert str(got.value) == str(want.value)


# -- transfer segmentation ----------------------------------------------------

def test_segment_length_mismatch():
    t = toy_topology()
    with pytest.raises(ValueError, match="length mismatch"):
        build_transfer(t, [], (0, 63), (0, 64))


@pytest.mark.parametrize("src,dst", [((0, 6), (0, 6)), ((0, 4), (2, 6))])
def test_segment_rejects_partial_words(src, dst):
    with pytest.raises(ValueError, match="not word-aligned"):
        build_transfer(desk_default(), [], src, dst)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_segment_words_per_backend(data):
    # p reaches bank_bits, so a block can span several subgroups
    t = desk_default()
    p = data.draw(st.integers(0, t.bank_bits))
    s = data.draw(st.integers(0, 4))
    block = 4 * 2 ** (p + s)
    n_blocks = t.total_bytes // block
    base = data.draw(st.integers(0, n_blocks - 1)) * block
    size = data.draw(st.integers(1, min(4, n_blocks - base // block))) * block
    cfg = bound(das(p, s), base, size)
    lo = data.draw(st.integers(0, size // 4 - 1))
    hi = data.draw(st.integers(lo + 1, min(size // 4, lo + 1024)))
    dst = (base + 4 * lo, base + 4 * hi)
    tr = build_transfer(t, [cfg], (1024, 1024 + dst[1] - dst[0]), dst)
    banks_per_sub = t.banks_per_tile * t.tiles_per_subgroup
    want = Counter(fold_reference(t.bank_bits, p, s, u)[0] // banks_per_sub
                   for u in range(dst[0] // 4, dst[1] // 4))
    assert tr.segments == sorted(want.items())
