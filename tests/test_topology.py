import numpy as np
import pytest

from dasim import (ClusterTopology, HierarchyLevel, access_level,
                   desk_default, local_fraction, terapool_default)
from dasim.topology import access_levels


def test_terapool_shape():
    t = terapool_default()
    assert t.n_pes == 1024
    assert t.n_banks == 4096
    assert t.total_bytes == 4 * 1024 * 1024
    assert t.addr_bits == 22
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
    # pe in tile 0 throughout; tiles are 32 banks wide
    assert access_level(t, 0, 0) == HierarchyLevel.TILE_LOCAL
    assert t.latency(access_level(t, 0, 0)) == 1
    assert access_level(t, 0, 3 * 32) == HierarchyLevel.SUBGROUP_LOCAL
    assert t.latency(access_level(t, 0, 3 * 32)) == 3
    # tile 8 is in subgroup 1 of group 0
    assert access_level(t, 0, 8 * 32) == HierarchyLevel.GROUP_LOCAL
    assert t.latency(access_level(t, 0, 8 * 32)) == 5
    # tile 40 is in group 1
    assert access_level(t, 0, 40 * 32) == HierarchyLevel.REMOTE
    assert t.latency(access_level(t, 0, 40 * 32)) == 7


def test_access_levels_broadcasts_like_scalar():
    t = desk_default()
    grid = access_levels(t, np.arange(t.n_pes)[:, None], np.arange(t.n_banks)[None, :])
    assert grid.dtype == np.uint8
    assert grid.tolist() == [[access_level(t, pe, b) for b in range(t.n_banks)]
                             for pe in range(t.n_pes)]


def test_access_level_range_checks():
    t = desk_default()
    with pytest.raises(ValueError):
        access_level(t, t.n_pes, 0)
    with pytest.raises(ValueError):
        access_level(t, 0, t.n_banks)


def test_local_fraction():
    assert local_fraction(terapool_default()) == 32 / 4096
    single = ClusterTopology(pes_per_tile=8, banks_per_tile=32,
                             tiles_per_subgroup=1, subgroups_per_group=1, groups=1)
    assert local_fraction(single) == 1.0
    two = ClusterTopology(pes_per_tile=8, banks_per_tile=16,
                          tiles_per_subgroup=2, subgroups_per_group=1, groups=1)
    assert local_fraction(two) == 0.5


def test_level_multiset_per_pe():
    # every PE sees exactly banks_per_tile tile-local banks
    t = desk_default()
    for pe in range(0, t.n_pes, 7):
        local = sum(1 for b in range(t.n_banks)
                    if access_level(t, pe, b) == HierarchyLevel.TILE_LOCAL)
        assert local == t.banks_per_tile


def test_tile_symmetry():
    # PEs of one tile classify every bank identically
    t = desk_default()
    for tile in (0, 5, 15):
        pes = range(tile * t.pes_per_tile, (tile + 1) * t.pes_per_tile)
        for bank in range(0, t.n_banks, 13):
            levels = {access_level(t, pe, bank) for pe in pes}
            assert len(levels) == 1


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        ClusterTopology(pes_per_tile=6)
    with pytest.raises(ValueError):
        ClusterTopology(level_latency=(1, 3, 3, 7))
