"""Cycle-approximate simulator of a shared-L1 manycore cluster.

Models how data placement across the multi-banked L1 scratchpad of a
hierarchically interconnected PE cluster turns into stalls, and how a
runtime-programmable remapping of heap regions onto physically adjacent
banks recovers PE utilization on transformer kernels.
"""

from .topology import (ClusterTopology, HierarchyLevel, access_levels,
                       desk_default, terapool_default)
from .remap import MapConfig, das, interleaved, resolve_array
from .alloc import (AllocationError, FreeError, Heap, das_free, das_malloc,
                    heap_init)
