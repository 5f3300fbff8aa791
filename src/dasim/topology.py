"""Cluster geometry and the PE-to-bank access hierarchy.

The cluster is organized as tiles of PEs sharing banks through a
fully-connected crossbar, tiles grouped into subgroups, subgroups into
groups. Every PE-to-bank access falls into one of four latency classes
depending on how far up the hierarchy the request has to travel.
"""

from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class HierarchyLevel(IntEnum):
    TILE_LOCAL = 0
    SUBGROUP_LOCAL = 1
    GROUP_LOCAL = 2
    REMOTE = 3


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class ClusterTopology:
    """Geometry and per-level base latency of the PE/bank hierarchy.

    All counts must be powers of two so that addresses decompose into
    bit fields. Latencies are end-to-end contention-free load latencies
    per level and must increase strictly from tile-local to remote.
    """

    pes_per_tile: int = 8
    banks_per_tile: int = 32
    tiles_per_subgroup: int = 8
    subgroups_per_group: int = 4
    groups: int = 4
    rows_per_bank: int = 256
    word_bytes: int = 4
    level_latency: tuple[int, int, int, int] = (1, 3, 5, 7)

    def __post_init__(self):
        for name in ("pes_per_tile", "banks_per_tile", "tiles_per_subgroup",
                     "subgroups_per_group", "groups", "rows_per_bank",
                     "word_bytes"):
            v = getattr(self, name)
            if not _is_pow2(v):
                raise ValueError(f"{name} must be a power of two, got {v}")
        if len(self.level_latency) != 4:
            raise ValueError("level_latency needs one entry per hierarchy level")
        lat = self.level_latency
        if not (lat[0] < lat[1] < lat[2] < lat[3]):
            raise ValueError(f"level_latency must increase strictly, got {lat}")

    # -- derived geometry ---------------------------------------------------

    @property
    def n_tiles(self) -> int:
        return self.tiles_per_subgroup * self.subgroups_per_group * self.groups

    @property
    def n_subgroups(self) -> int:
        return self.subgroups_per_group * self.groups

    @property
    def n_pes(self) -> int:
        return self.pes_per_tile * self.n_tiles

    @property
    def n_banks(self) -> int:
        return self.banks_per_tile * self.n_tiles

    @property
    def total_bytes(self) -> int:
        return self.n_banks * self.rows_per_bank * self.word_bytes

    @property
    def bank_bits(self) -> int:
        return self.n_banks.bit_length() - 1

    @property
    def row_bits(self) -> int:
        return self.rows_per_bank.bit_length() - 1

    @property
    def addr_bits(self) -> int:
        return (self.total_bytes - 1).bit_length()

    @property
    def line_bytes(self) -> int:
        """One row across all banks."""
        return self.n_banks * self.word_bytes

    def latency(self, level: HierarchyLevel) -> int:
        return self.level_latency[level]


def terapool_default() -> ClusterTopology:
    """The 1024-PE reference cluster: 4 MiB of L1 in 4096 banks.

    8 PEs and 32 banks per tile, 8 tiles per subgroup, 4 subgroups per
    group, 4 groups; 256 rows per bank of 4-byte words; latencies
    1/3/5/7 cycles per hierarchy level.
    """
    return ClusterTopology()


def desk_default() -> ClusterTopology:
    """Reduced 64-PE cluster for fast experiments: 16 tiles x 4 PEs.

    Keeps the tile bank factor (4 banks per PE) and the remote traffic
    share (3/4 of banks in other groups) of the full-size cluster.
    """
    return ClusterTopology(
        pes_per_tile=4,
        banks_per_tile=16,
        tiles_per_subgroup=2,
        subgroups_per_group=2,
        groups=4,
    )


def access_level(topo: ClusterTopology, pe_id: int, bank_id: int) -> HierarchyLevel:
    """Classify a PE-to-bank access into its hierarchy level."""
    if not 0 <= pe_id < topo.n_pes:
        raise ValueError(f"pe_id {pe_id} out of range [0, {topo.n_pes})")
    if not 0 <= bank_id < topo.n_banks:
        raise ValueError(f"bank_id {bank_id} out of range [0, {topo.n_banks})")
    return HierarchyLevel(int(access_levels(topo, pe_id, bank_id)))


def access_levels(topo: ClusterTopology, pes, banks) -> np.ndarray:
    """Hierarchy level of each (pe, bank) pair, as uint8; broadcasts.

    Counts down from REMOTE once for each of group, subgroup and tile
    that the PE and the bank share (a shared tile implies a shared
    subgroup, which implies a shared group).
    """
    pt = np.asarray(pes) // topo.pes_per_tile
    bt = np.asarray(banks) // topo.banks_per_tile
    sg = topo.tiles_per_subgroup
    gr = sg * topo.subgroups_per_group
    shared = (pt // gr == bt // gr).astype(np.uint8) + (pt // sg == bt // sg) + (pt == bt)
    return np.uint8(HierarchyLevel.REMOTE) - shared


def local_fraction(topo: ClusterTopology) -> float:
    """Share of banks a PE reaches through its own tile's crossbar."""
    return topo.banks_per_tile / topo.n_banks
