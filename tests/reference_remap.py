"""Division-based address placement, the oracle for ``remap.resolve_array``
and ``topology.access_levels``, and the rows of the permutation.

``resolve_array`` here starts every word at the interleaved placement
(``u % n_banks``, ``u // n_banks``) and then re-places, region by region
under one boolean mask each, the words inside every bound folded region;
it returns (banks, rows). ``access_levels`` compares tile ids under
integer division by the subgroup and group sizes. Both raise the same
errors, in the same order, as the functions they check.
``remap.resolve_array`` returns banks only, since no simulator code
reads a word's row; ``shift_rows`` keeps its row expression, shifts and
masks of the word address, so the tests still check it.
"""

import numpy as np

from dasim.remap import _check_disjoint
from dasim.topology import HierarchyLevel


def resolve_array(topo, regions, addrs):
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
        if not (cfg.folds and cfg.bound):
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


def access_levels(topo, pes, banks):
    pt = np.asarray(pes) // topo.pes_per_tile
    bt = np.asarray(banks) // topo.banks_per_tile
    sg = topo.tiles_per_subgroup
    gr = sg * topo.subgroups_per_group
    shared = (pt // gr == bt // gr).astype(np.uint8) + (pt // sg == bt // sg) + (pt == bt)
    return np.uint8(HierarchyLevel.REMOTE) - shared


def shift_rows(topo, regions, addrs):
    """Each address's row by the permutation's shifts and masks: the s
    bits above the p low ones, then the bits from b+s up. Regions are
    taken as valid; ``resolve_array`` checks them."""
    addrs = np.asarray(addrs, dtype=np.int64)
    p, s = np.zeros((2, addrs.size), dtype=np.int64)
    for cfg in regions:
        if cfg.folds and cfg.bound:
            sel = (addrs >= cfg.base_addr) & (addrs < cfg.base_addr + cfg.size_bytes)
            p[sel], s[sel] = cfg.p, cfg.s
    u = addrs >> (topo.word_bytes.bit_length() - 1)
    s_mask = (1 << s) - 1
    return ((u >> p) & s_mask) | ((u >> topo.bank_bits) & ~s_mask)
