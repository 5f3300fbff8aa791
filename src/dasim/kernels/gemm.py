"""Matrix-matrix product: three loops, 4x4 output windows.

Row blocks of 4 A-rows rotate round-robin over the tiles of a problem;
within a tile, the PEs split the 4-column output windows. Per reduction
step a PE fetches 4 A elements and 4 B elements and retires 16 MACs, so
A and C traffic is private to the owning tile (folded there under the
remapped scheme) while B is shared: interleaved across the whole
cluster for a single problem, or folded across a problem's tile group
when several problems run side by side.
"""

import numpy as np

from ..remap import interleaved
from ..topology import ClusterTopology
from .plan import (C_ALU, C_MAC, K_COMPUTE, K_LOAD, K_STORE, KernelPlan,
                   PeStream, PlanBuilder, ShapeError, group_window_cfg,
                   window_words)

# software-pipelined reduction: the loads of step k issue during the MAC
# burst of step k-1, so operand latency hides behind compute.
# prologue: loads(0) + accumulator setup; body step: loads(k) then MAC(k-1)
_PRO_KIND = np.array([K_LOAD] * 8 + [K_COMPUTE])
_PRO_CLS = np.array([0] * 8 + [C_ALU])
_PRO_ARG = np.array([0] * 8 + [1])
_BODY_KIND = _PRO_KIND
_BODY_CLS = np.array([0] * 8 + [C_MAC])
_BODY_ARG = np.array([0] * 8 + [16])
_BODY_DEP1 = np.array([0] * 8 + [10])  # B3 of step k-1
_BODY_DEP2 = np.array([0] * 8 + [14])  # A3 of step k-1
_ZDEP = np.array([0] * 9)


def emit_block_window(st: PeStream, a_addr: np.ndarray, b_addr: np.ndarray,
                      c_addr: np.ndarray) -> None:
    """One 4x4 output window: full reduction sweep plus the result stores.

    ``a_addr``/``b_addr`` are (N, 4) byte-address arrays per reduction
    step, ``c_addr`` the 16 output addresses.
    """
    n = a_addr.shape[0]
    addr = np.empty((n, 9), dtype=np.int64)
    addr[:, 0:4] = a_addr
    addr[:, 4:8] = b_addr
    addr[:, 8] = 0
    kind = np.concatenate([_PRO_KIND, np.tile(_BODY_KIND, n - 1)])
    cls = np.concatenate([_PRO_CLS, np.tile(_BODY_CLS, n - 1)])
    arg = np.concatenate([_PRO_ARG, np.tile(_BODY_ARG, n - 1)])
    dep1 = np.concatenate([_ZDEP, np.tile(_BODY_DEP1, n - 1)])
    dep2 = np.concatenate([_ZDEP, np.tile(_BODY_DEP2, n - 1)])
    st.extend(kind, cls, arg, addr.ravel(), dep1, dep2)
    # drain: MAC of the last step, then the window's stores
    st.compute(C_MAC, count=16, dep=(st.n - 2, st.n - 6))
    n_out = len(c_addr)
    zero = np.zeros(n_out, dtype=np.int64)
    st.extend(np.full(n_out, K_STORE), zero, zero, c_addr,
              np.arange(1, n_out + 1), zero)              # dep on the MAC burst


def pad_odd(words: int) -> int:
    """Leading-dimension padding: an odd word stride touches every bank."""
    return words | 1


def gemm_geometry(topo: ClusterTopology, M: int, N: int, P: int,
                  n_parallel: int) -> dict:
    if M % 4 or P % 4:
        raise ShapeError(f"M={M} and P={P} must be multiples of 4 (4x4 windows)")
    if n_parallel < 1 or n_parallel & (n_parallel - 1):
        raise ShapeError(f"n_parallel={n_parallel} must be a power of two")
    if n_parallel > topo.n_tiles:
        raise ShapeError(f"n_parallel={n_parallel} exceeds {topo.n_tiles} tiles")
    tiles_per_prob = topo.n_tiles // n_parallel
    return {"tiles_per_prob": tiles_per_prob, "blocks": M // 4,
            "windows": P // 4}


def pe_work_items(topo: ClusterTopology, geom: dict, pe: int) -> list:
    """(local_block, window) pairs this PE computes for its problem.

    Each tile starts its window sweep at a different point so lockstep
    tiles pull B columns from disjoint bank groups instead of hammering
    the same ones.
    """
    tiles_per_prob = geom["tiles_per_prob"]
    tile = pe // topo.pes_per_tile
    ti = tile % tiles_per_prob
    slot = pe % topo.pes_per_tile
    wins = list(range(slot, geom["windows"], topo.pes_per_tile))
    if wins:
        rot = ti % len(wins)
        wins = wins[rot:] + wins[:rot]
    items = []
    for lb, blk in enumerate(range(ti, geom["blocks"], tiles_per_prob)):
        for win in wins:
            items.append((lb, blk, win))
    return items


def gen_gemm(topo: ClusterTopology, M: int, N: int, P: int, n_parallel: int,
             scheme: str, heap_base: int = 0, heap_size: int = None) -> KernelPlan:
    heap_size = heap_size if heap_size is not None else topo.total_bytes
    geom = gemm_geometry(topo, M, N, P, n_parallel)
    tiles_per_prob = geom["tiles_per_prob"]
    wb = topo.word_bytes
    blocks_per_tile = -(-geom["blocks"] // tiles_per_prob)

    pb = PlanBuilder(topo, scheme, heap_base, heap_size)

    a_ld = pad_odd(N)
    b_ld = pad_odd(P)
    c_ld = pad_odd(P)

    pb.begin_phase("config")
    a_cfg = group_window_cfg(topo, 1, blocks_per_tile * 4 * a_ld)
    a_op = pb.alloc("a_rows", topo.n_tiles * window_words(a_cfg) * wb, a_cfg)
    c_cfg = group_window_cfg(topo, 1, blocks_per_tile * 4 * c_ld)
    c_op = pb.alloc("c_rows", topo.n_tiles * window_words(c_cfg) * wb, c_cfg)
    if n_parallel == 1:
        b_op = pb.alloc("b_cols", N * b_ld * wb, interleaved())
    else:
        b_cfg = group_window_cfg(topo, tiles_per_prob, N * b_ld)
        b_op = pb.alloc("b_cols", n_parallel * window_words(b_cfg) * wb, b_cfg)
    pb.end_phase()

    pb.begin_phase("compute")
    ks = np.arange(N, dtype=np.int64)
    for pe in range(topo.n_pes):
        st = pb.streams[pe]
        tile = pe // topo.pes_per_tile
        pr = tile // tiles_per_prob
        for lb, _blk, win in pe_work_items(topo, geom, pe):
            rows = (lb * 4 + np.arange(4, dtype=np.int64)) * a_ld
            a_addr = a_op.addr(tile, rows[None, :] + ks[:, None])
            cols = win * 4 + np.arange(4, dtype=np.int64)
            b_off = ks[:, None] * b_ld + cols[None, :]
            if n_parallel == 1:
                b_addr = b_op.base + b_off * wb
            else:
                b_addr = b_op.addr(pr, b_off)
            c_off = ((lb * 4 + np.arange(4, dtype=np.int64))[:, None] * c_ld
                     + cols[None, :]).ravel()
            emit_block_window(st, a_addr, b_addr, c_op.addr(tile, c_off))
    pb.end_phase()

    done_blocks = sum(len(range(ti, geom["blocks"], tiles_per_prob))
                      for ti in range(tiles_per_prob))
    assert done_blocks == geom["blocks"]
    macs = n_parallel * M * N * P
    expected = {
        "macs": macs,
        "loads": macs // 2,
        "stores": n_parallel * M * P,
    }
    return pb.build("gemm", f"{M}x{N}x{P}", n_parallel, expected)
