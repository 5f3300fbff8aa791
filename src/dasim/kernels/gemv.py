"""Matrix-vector product: two-loop, 4-row blocks per PE.

Outputs split across PEs; each PE sweeps 4 rows of the matrix at a time
against the shared vector. When the row count cannot feed every PE, the
cluster splits into contiguous PE groups: parallel problems map onto
groups, and a single problem's reduction dimension is sliced across its
groups, each accumulating partials for all rows over its column slice.
A final pass on the owner group sums the partials.

Row slices and output elements are private to one PE, so the folded
scheme pins them to that PE's tile banks; the input vector is shared by
everyone and stays word-interleaved across the cluster.
"""

from ..remap import interleaved
from ..topology import ClusterTopology
from .plan import (C_ALU, C_MAC, KernelPlan, PlanBuilder, ShapeError,
                   group_window_cfg, pow2_floor, window_words)


def _two_adic(n: int) -> int:
    return n & -n


def gemv_geometry(topo: ClusterTopology, M: int, N: int, n_parallel: int) -> dict:
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
    return {"ppg": ppg, "groups": groups, "gpp": gpp,
            "rows_per_pe": M // ppg, "n_chunk": N // gpp}


def gen_gemv(topo: ClusterTopology, M: int, N: int, n_parallel: int,
             scheme: str, heap_base: int = 0, heap_size: int = None) -> KernelPlan:
    heap_size = heap_size if heap_size is not None else topo.total_bytes
    g = gemv_geometry(topo, M, N, n_parallel)
    ppg, gpp, rows_per_pe, n_chunk = g["ppg"], g["gpp"], g["rows_per_pe"], g["n_chunk"]
    ppt = topo.pes_per_tile
    wb = topo.word_bytes

    pb = PlanBuilder(topo, scheme, heap_base, heap_size)

    pb.begin_phase("config")
    a_cfg = group_window_cfg(topo, 1, ppt * rows_per_pe * n_chunk)
    a_op = pb.alloc("a_rows", topo.n_tiles * window_words(a_cfg) * wb, a_cfg)
    b_op = pb.alloc("b_vec", n_parallel * N * wb, interleaved())
    c_cfg = group_window_cfg(topo, 1, ppt * rows_per_pe)
    c_part = pb.alloc("c_partial", topo.n_tiles * window_words(c_cfg) * wb, c_cfg)
    if gpp > 1:
        c_final = pb.alloc("c_out", topo.n_tiles * window_words(c_cfg) * wb, c_cfg)
    pb.end_phase()

    pb.begin_phase("compute")
    for pe in range(topo.n_pes):
        st = pb.streams[pe]
        tile = pe // ppt
        slot = (pe % ppt) * rows_per_pe * n_chunk
        gg = pe // ppg
        pr = gg // gpp
        gi = gg % gpp
        k0 = gi * n_chunk
        for blk in range(rows_per_pe // 4):
            # loads of step k issue under the MAC burst of step k-1
            prev = None
            for k in range(n_chunk):
                b_ix = st.load(b_op.base + (pr * N + k0 + k) * wb)
                for r in range(3):
                    st.load(a_op.addr(tile, slot + (blk * 4 + r) * n_chunk + k))
                a3 = st.load(a_op.addr(tile, slot + (blk * 4 + 3) * n_chunk + k))
                if prev is not None:
                    st.compute(C_MAC, count=4, dep=prev)
                prev = (a3, b_ix)
            last_mac = st.compute(C_MAC, count=4, dep=prev)
            cslot = (pe % ppt) * rows_per_pe
            for r in range(4):
                st.store(c_part.addr(tile, cslot + blk * 4 + r), dep=(last_mac,))
    pb.end_phase()

    if gpp > 1:
        pb.begin_phase("reduce")
        for pr in range(n_parallel):
            owner = pr * gpp * ppg
            for lane in range(ppg):
                pe = owner + lane
                st = pb.streams[pe]
                cslot = (pe % ppt) * rows_per_pe
                for row in range(rows_per_pe):
                    prev = None
                    for gi in range(1, gpp):
                        peer = (pr * gpp + gi) * ppg + lane
                        ptile = peer // ppt
                        poff = (peer % ppt) * rows_per_pe + row
                        ld = st.load(c_part.addr(ptile, poff))
                        dep = (ld,) if prev is None else (ld, prev)
                        prev = st.compute(C_ALU, dep=dep)
                    st.store(c_final.addr(pe // ppt, cslot + row), dep=(prev,))
        pb.end_phase()

    macs = n_parallel * M * N
    expected = {
        "macs": macs,
        "loads": macs + n_parallel * (M // 4) * N
                 + (n_parallel * M * (gpp - 1) if gpp > 1 else 0),
        "stores": n_parallel * gpp * M + (n_parallel * M if gpp > 1 else 0),
    }
    return pb.build("gemv", f"{M}x{N}", n_parallel, expected)
