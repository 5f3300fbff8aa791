import numpy as np
import pytest

from dasim import (ClusterTopology, HierarchyLevel, access_levels,
                   desk_default, terapool_default)
import reference_remap


def level_reference(t, pe, bank):
    """Hierarchy level from tile, subgroup and group ids, one pair at a time."""
    pe_tile, bank_tile = pe // t.pes_per_tile, bank // t.banks_per_tile
    sg, gr = t.tiles_per_subgroup, t.tiles_per_subgroup * t.subgroups_per_group
    if pe_tile == bank_tile:
        return HierarchyLevel.TILE_LOCAL
    if pe_tile // sg == bank_tile // sg:
        return HierarchyLevel.SUBGROUP_LOCAL
    if pe_tile // gr == bank_tile // gr:
        return HierarchyLevel.GROUP_LOCAL
    return HierarchyLevel.REMOTE


def test_terapool_shape():
    t = terapool_default()
    assert t.n_pes == 1024
    assert t.n_banks == 4096
    assert t.total_bytes == 4 * 1024 * 1024
    assert (t.bank_bits, t.row_bits) == (12, 8)
    assert t.pes_per_tile == 8
    assert t.banks_per_tile == 32
    assert t.n_tiles == 128
    assert t.rows_per_bank == 256
    assert t.level_latency == (1, 3, 5, 7)


def test_desk_shape():
    t = desk_default()
    assert t.n_tiles == 16
    assert t.pes_per_tile == 4
    assert t.n_pes == 64


def test_access_levels_terapool():
    t = terapool_default()
    # pe in tile 0 throughout; tiles are 32 banks wide; tile 3 shares
    # its subgroup, tile 8 is in subgroup 1 of group 0, tile 40 in group 1
    levels = access_levels(t, 0, np.array([0, 3, 8, 40]) * 32)
    assert levels.tolist() == [HierarchyLevel.TILE_LOCAL, HierarchyLevel.SUBGROUP_LOCAL,
                               HierarchyLevel.GROUP_LOCAL, HierarchyLevel.REMOTE]
    assert [t.level_latency[lv] for lv in levels] == [1, 3, 5, 7]


def test_access_levels_broadcasts_like_scalar():
    t = desk_default()
    grid = access_levels(t, np.arange(t.n_pes)[:, None], np.arange(t.n_banks)[None, :])
    assert grid.dtype == np.uint8
    assert grid.tolist() == [[level_reference(t, pe, b) for b in range(t.n_banks)]
                             for pe in range(t.n_pes)]
    assert access_levels(t, 5, 200) == grid[5, 200]


@pytest.mark.parametrize("topo,levels", [
    (desk_default(), {0, 1, 2, 3}),
    (terapool_default(), {0, 1, 2, 3}),
    # one tile per subgroup, one group: a tile shares only its group
    (ClusterTopology(tiles_per_subgroup=1, groups=1), {0, 2}),
], ids=["desk", "terapool", "one-group"])
def test_access_levels_match_the_division_oracle(topo, levels):
    # every (PE, bank) pair on desk; on the others every bank from the
    # first and last PE of each tile, and random pairs at full broadcast
    rng = np.random.default_rng(0)
    ends = np.arange(topo.n_tiles) * topo.pes_per_tile
    pes = np.unique(np.r_[ends, ends + topo.pes_per_tile - 1])
    if topo.n_pes <= 64:
        pes = np.arange(topo.n_pes)
    cases = [(pes[:, None], np.arange(topo.n_banks)[None, :]),
             (rng.integers(0, topo.n_pes, (50, 1)), rng.integers(0, topo.n_banks, (50, 200)))]
    seen = set()
    for pe, bank in cases:
        got = access_levels(topo, pe, bank)
        want = reference_remap.access_levels(topo, pe, bank)
        assert got.dtype == want.dtype == np.uint8
        np.testing.assert_array_equal(got, want)
        seen |= set(np.unique(got).tolist())
    assert seen == levels


def test_level_multiset_per_pe():
    # every PE sees exactly banks_per_tile tile-local banks
    t = desk_default()
    for pe in range(0, t.n_pes, 7):
        levels = access_levels(t, pe, np.arange(t.n_banks))
        assert (levels == HierarchyLevel.TILE_LOCAL).sum() == t.banks_per_tile


def test_tile_symmetry():
    # PEs of one tile classify every bank identically
    t = desk_default()
    for tile in (0, 5, 15):
        pes = np.arange(tile * t.pes_per_tile, (tile + 1) * t.pes_per_tile)
        for bank in range(0, t.n_banks, 13):
            assert len(set(access_levels(t, pes, bank).tolist())) == 1


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        ClusterTopology(pes_per_tile=6)
    with pytest.raises(ValueError):
        ClusterTopology(level_latency=(1, 3, 3, 7))
    with pytest.raises(ValueError, match="start at 1"):
        ClusterTopology(level_latency=(0, 1, 2, 3))
    with pytest.raises(ValueError, match="one entry per hierarchy level"):
        ClusterTopology(level_latency=(1, 3, 5))


def test_more_banks_than_a_uint16_holds_rejected():
    # packed chunks store each load's and store's bank as a uint16: 65,536
    # banks fit, twice as many do not
    fits = ClusterTopology(banks_per_tile=256, groups=8)
    assert fits.n_banks == 1 << 16
    with pytest.raises(ValueError, match="131072 banks: a packed bank id is a uint16"):
        ClusterTopology(banks_per_tile=512, groups=8)
