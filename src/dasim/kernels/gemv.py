"""Matrix-vector product: two-loop, 4-row blocks per PE.

Outputs split across PEs; each PE sweeps 4 rows of the matrix at a time
against the shared vector. When the row count cannot feed every PE, the
cluster splits into contiguous PE groups: parallel problems map onto
groups, and a single problem's reduction dimension is sliced across its
groups, each accumulating partials for all rows over its column slice.
A final pass on the owner group sums the partials.

Row slices and output elements are private to one PE, so the folded
scheme pins them to that PE's tile banks; the input vector is shared by
everyone and stays word-interleaved across the cluster. Every block's
reduction is one copy of plan.emit_reduction's template, and every
row's sum of partials one copy of the reduce phase's chain template.
"""

import numpy as np

from ..topology import ClusterTopology
from .._stepper import K_COMPUTE, K_LOAD, K_STORE
from .plan import (C_ALU, KernelPlan, Operand, PlanBuilder, ShapeError, emit_copies,
                   emit_reduction, pow2_floor)


def _two_adic(n: int) -> int:
    return n & -n


def gemv_geometry(topo: ClusterTopology, M: int, N: int, n_parallel: int) -> dict:
    for name, n in (("M", M), ("N", N)):
        if n < 1:
            raise ShapeError(f"{name}={n} must be at least 1")
    if M % 4:
        raise ShapeError(f"M={M} must be a multiple of 4 (4-row blocks); pad the output")
    if n_parallel < 1 or n_parallel & (n_parallel - 1):
        raise ShapeError(f"n_parallel={n_parallel} must be a power of two")
    if n_parallel > topo.n_pes:
        raise ShapeError(f"n_parallel={n_parallel} exceeds {topo.n_pes} PEs")
    ppg = min(_two_adic(M // 4), pow2_floor(topo.n_pes // n_parallel))
    groups = topo.n_pes // ppg
    gpp = groups // n_parallel
    if N % gpp:
        raise ShapeError(
            f"N={N} must divide across {gpp} groups per problem; "
            f"use N a multiple of {gpp} or raise n_parallel")
    return {"ppg": ppg, "gpp": gpp, "rows_per_pe": M // ppg, "n_chunk": N // gpp}


def reduce_partials(pb: PlanBuilder, g: dict, n_parallel: int, c_part: Operand,
                    c_final: Operand) -> None:
    """The reduce phase's ops: each PE of a problem's owner group sums, row
    by row, the partials its lane's peers in the other groups hold.

    A row is one chain: per peer a load, then an ALU add on it (and on
    the previous add), then the store of the sum.
    """
    ppg, gpp, rows_per_pe = g["ppg"], g["gpp"], g["rows_per_pe"]
    ppt = pb.topo.pes_per_tile
    n_peer = gpp - 1
    chain = {"kind": [K_LOAD, K_COMPUTE] * n_peer + [K_STORE],
             "cls": [0, C_ALU] * n_peer + [0],
             "arg": [0, 1] * n_peer + [0],
             "dep1": [0, 1] * n_peer + [1],
             "dep2": [0, 0] + [0, 2] * (n_peer - 1) + [0]}
    pr, lane, row = np.indices((n_parallel, ppg, rows_per_pe)).reshape(3, -1, 1)
    pe = pr * gpp * ppg + lane
    peer = (pr * gpp + np.arange(1, gpp)) * ppg + lane
    # per row its loads from the peers, then its store
    addr = np.empty((len(pe), n_peer + 1), dtype=np.int64)
    addr[:, :-1] = c_part.addr(peer // ppt, peer % ppt * rows_per_pe + row)
    addr[:, -1:] = c_final.addr(pe // ppt, pe % ppt * rows_per_pe + row)
    emit_copies(pb, pe[:, 0], chain, addr)


def gen_gemv(topo: ClusterTopology, M: int, N: int, n_parallel: int,
             scheme: str) -> KernelPlan:
    g = gemv_geometry(topo, M, N, n_parallel)
    ppg, gpp, rows_per_pe, n_chunk = g["ppg"], g["gpp"], g["rows_per_pe"], g["n_chunk"]
    ppt = topo.pes_per_tile

    pb = PlanBuilder(topo, scheme)

    pb.begin_phase("config")
    a_op = pb.alloc_windows("a_rows", 1, ppt * rows_per_pe * n_chunk)
    b_op = pb.alloc_windows("b_vec", topo.n_tiles, n_parallel * N)
    c_part = pb.alloc_windows("c_partial", 1, ppt * rows_per_pe)
    if gpp > 1:
        c_final = pb.alloc_windows("c_out", 1, ppt * rows_per_pe)
    pb.end_phase()

    pb.begin_phase("compute")
    n_blk = rows_per_pe // 4
    pe = np.repeat(np.arange(topo.n_pes), n_blk)[:, None]
    blk4 = np.tile(np.arange(n_blk), topo.n_pes)[:, None] * 4 + np.arange(4)
    tile, slot = pe // ppt, pe % ppt * rows_per_pe
    gg = pe // ppg
    ks = np.arange(n_chunk)
    b_addr = b_op.addr(0, gg // gpp * N + gg % gpp * n_chunk + ks)
    a_addr = a_op.addr(tile[:, :, None], (slot + blk4)[:, None, :] * n_chunk + ks[:, None])
    # per step: b, a0-a3; each burst consumes a3 and b of its step
    emit_reduction(pb, pe[:, 0], (b_addr[:, :, None], a_addr), 4, (4, 0),
                   c_part.addr(tile, slot + blk4), setup=False)
    pb.end_phase()

    if gpp > 1:
        pb.begin_phase("reduce")
        reduce_partials(pb, g, n_parallel, c_part, c_final)
        pb.end_phase()

    macs = n_parallel * M * N
    expected = {
        "macs": macs,
        "loads": macs + n_parallel * (M // 4) * N
                 + (n_parallel * M * (gpp - 1) if gpp > 1 else 0),
        "stores": n_parallel * gpp * M + (n_parallel * M if gpp > 1 else 0),
    }
    return pb.build("gemv", f"{M}x{N}", n_parallel, expected)
