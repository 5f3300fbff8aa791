"""Matrix-matrix product: three loops, 4x4 output windows.

Row blocks of 4 A-rows rotate round-robin over the tiles of a problem;
within a tile, the PEs split the 4-column output windows. Per reduction
step a PE fetches 4 A elements and 4 B elements and retires 16 MACs, so
A and C traffic is private to the owning tile (folded there under the
remapped scheme) while B is shared: interleaved across the whole
cluster for a single problem, or folded across a problem's tile group
when several problems run side by side. Each window's reduction is one
plan.emit_reduction, after a one-ALU accumulator set-up.
"""

import numpy as np

from ..topology import ClusterTopology
from .plan import KernelPlan, PlanBuilder, ShapeError, emit_reduction


def pad_odd(words: int) -> int:
    """Leading-dimension padding: an odd word stride touches every bank."""
    return words | 1


def gemm_geometry(topo: ClusterTopology, M: int, N: int, P: int,
                  n_parallel: int) -> dict:
    for name, n in (("M", M), ("N", N), ("P", P)):
        if n < 1:
            raise ShapeError(f"{name}={n} must be at least 1")
    if M % 4 or P % 4:
        raise ShapeError(f"M={M} and P={P} must be multiples of 4 (4x4 windows)")
    if n_parallel < 1 or n_parallel & (n_parallel - 1):
        raise ShapeError(f"n_parallel={n_parallel} must be a power of two")
    if n_parallel > topo.n_tiles:
        raise ShapeError(f"n_parallel={n_parallel} exceeds {topo.n_tiles} tiles")
    tiles_per_prob = topo.n_tiles // n_parallel
    return {"tiles_per_prob": tiles_per_prob, "blocks": M // 4,
            "windows": P // 4}


def work_items(topo: ClusterTopology, geom: dict) -> tuple:
    """(pe, local_block, window) arrays of every work item, PE by PE.

    A PE takes every pes_per_tile-th window from its slot, for each block
    its tile holds in its problem, block-major. Each tile starts its
    window sweep at a different point so lockstep tiles pull B columns
    from disjoint bank groups instead of hammering the same ones.
    """
    ppt, tiles_per_prob = topo.pes_per_tile, geom["tiles_per_prob"]
    pes = np.arange(topo.n_pes)
    ti = pes // ppt % tiles_per_prob
    slot = pes % ppt
    n_win = np.maximum(0, -((slot - geom["windows"]) // ppt))
    n_local = np.maximum(0, -((ti - geom["blocks"]) // tiles_per_prob))
    count = n_win * n_local
    pe = np.repeat(pes, count)
    j = np.arange(len(pe)) - np.repeat(np.cumsum(count) - count, count)
    nw = n_win[pe]
    win = slot[pe] + (j + ti[pe]) % nw * ppt
    return pe, j // nw, win


def gen_gemm(topo: ClusterTopology, M: int, N: int, P: int, n_parallel: int,
             scheme: str) -> KernelPlan:
    geom = gemm_geometry(topo, M, N, P, n_parallel)
    tiles_per_prob = geom["tiles_per_prob"]
    wb = topo.word_bytes
    blocks_per_tile = -(-geom["blocks"] // tiles_per_prob)

    pb = PlanBuilder(topo, scheme)

    a_ld = pad_odd(N)
    b_ld = pad_odd(P)
    c_ld = pad_odd(P)

    pb.begin_phase("config")
    a_op = pb.alloc_windows("a_rows", 1, blocks_per_tile * 4 * a_ld)
    c_op = pb.alloc_windows("c_rows", 1, blocks_per_tile * 4 * c_ld)
    b_op = pb.alloc_windows("b_cols", tiles_per_prob, N * b_ld)
    pb.end_phase()

    pb.begin_phase("compute")
    pe, lb, win = work_items(topo, geom)
    tile = pe[:, None] // topo.pes_per_tile
    rows = lb[:, None] * 4 + np.arange(4)
    cols = win[:, None] * 4 + np.arange(4)
    ks = np.arange(N)[:, None]
    c_off = rows[:, :, None] * c_ld + cols[:, None, :]
    # per step: A0-A3, B0-B3; each burst consumes B3 and A3 of its step.
    # Each load address is a work item's term plus a step's, summed into
    # the copies' address matrix, so no (items x steps) array is built
    emit_reduction(pb, pe,
                   ((a_op.addr(tile[:, :, None], rows[:, None, :] * a_ld), ks * wb),
                    (b_op.addr(tile[:, :, None], cols[:, None, :]), ks * (b_ld * wb))),
                   16, (7, 3), c_op.addr(tile, c_off.reshape(len(pe), 16)), setup=True)
    pb.end_phase()

    macs = n_parallel * M * N * P
    expected = {
        "macs": macs,
        "loads": macs // 2,
        "stores": n_parallel * M * P,
    }
    return pb.build("gemm", f"{M}x{N}x{P}", n_parallel, expected)
