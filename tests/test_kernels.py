"""Kernel generators: shape rules and the plans they pack."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dasim import das, desk_default, resolve_array, terapool_default
from dasim._stepper import DEP_RING, K_COMPUTE, K_LOAD, K_STORE
from dasim.kernels import gemv
from dasim.kernels.gemm import gemm_geometry, gen_gemm, work_items
from dasim.kernels.gemv import gen_gemv
from dasim.kernels.plan import (C_ALU, C_MAC, STREAM_COLS, PeStream, PlanBuilder, ShapeError,
                                emit_copies, emit_reduction)
from reference_pack import stream_ops

DESK = desk_default()   # 64 PEs in 16 tiles of 16 banks, 256 rows per bank
TERAPOOL = terapool_default()


@pytest.mark.parametrize("shape,n_parallel,match", [
    ((30, 32, 32), 1, "multiples of 4"),        # M
    ((32, 32, 30), 1, "multiples of 4"),        # P
    ((32, 32, 32), 3, "power of two"),
    ((32, 32, 32), 0, "power of two"),
    ((32, 32, 32), 32, "exceeds 16 tiles"),
    ((4, 64, 260), 4, "row bits"),              # B's folded group window
    ((64, 1100, 4), 1, "row bits"),             # A's folded tile window
    ((0, 8, 8), 1, "M=0 must be at least 1"),
    ((8, 0, 8), 1, "N=0 must be at least 1"),
    ((8, 8, 0), 1, "P=0 must be at least 1"),
    ((-4, 8, 8), 1, "M=-4 must be at least 1"),
    ((8, -1, 8), 1, "N=-1 must be at least 1"),
    ((8, 8, -4), 1, "P=-4 must be at least 1"),
])
def test_gemm_shape_errors(shape, n_parallel, match):
    with pytest.raises(ShapeError, match=match):
        gen_gemm(DESK, *shape, n_parallel, "das")


@pytest.mark.parametrize("shape,n_parallel,match", [
    ((30, 64), 1, "multiple of 4"),
    ((64, 64), 3, "power of two"),
    ((64, 64), 128, "exceeds 64 PEs"),
    ((4, 32), 1, "divide across 64 groups"),    # one PE per group: N=32 over 64
    ((0, 64), 1, "M=0 must be at least 1"),
    ((64, 0), 1, "N=0 must be at least 1"),
    ((-4, 64), 1, "M=-4 must be at least 1"),
    ((64, -64), 1, "N=-64 must be at least 1"),
])
def test_gemv_shape_errors(shape, n_parallel, match):
    with pytest.raises(ShapeError, match=match):
        gen_gemv(DESK, *shape, n_parallel, "das")


def _in_phase(scheme="das"):
    pb = PlanBuilder(DESK, scheme)
    pb.begin_phase("config")
    return pb


@pytest.mark.parametrize("tiles", [1, 4])
def test_window_footprint_limit(tiles):
    # a group of `tiles` tiles folds at most 256 rows of its banks
    words = tiles * DESK.banks_per_tile * DESK.rows_per_bank
    pb = _in_phase()
    with pytest.raises(ShapeError, match="row bits"):
        pb.alloc_windows("over", tiles, words + 1)
    pb.alloc_windows("full", tiles, words)
    (event,) = pb.alloc_log
    assert event["mapping"]["s"] == DESK.row_bits


@pytest.mark.parametrize("tiles", [0, 3, 32])
def test_windows_need_a_power_of_two_tile_group(tiles):
    with pytest.raises(ValueError, match="power of two dividing 16 tiles"):
        _in_phase().alloc_windows("w", tiles, 20)


@pytest.mark.parametrize("scheme", ["das", "interleaved"])
def test_a_window_over_every_tile_is_one_interleaved_region(scheme):
    # exactly its words, word-aligned behind an odd-sized region
    pb = _in_phase(scheme)
    pb.alloc_windows("odd", DESK.n_tiles, 3)
    op = pb.alloc_windows("v", DESK.n_tiles, 5)
    assert op.base == 12
    assert pb.alloc_log[-1]["mapping"] == {"kind": "interleaved", "base_addr": 12,
                                           "size_bytes": 5 * DESK.word_bytes}
    assert (op.addr(np.arange(DESK.n_tiles), 4) == 28).all()
    # folded over every bank, each word would sit where interleaving puts it
    addrs = np.arange(0, 4 * DESK.n_banks, DESK.word_bytes)
    folded = replace(das(DESK.bank_bits, 2), base_addr=0, size_bytes=4 * DESK.n_banks)
    np.testing.assert_array_equal(resolve_array(DESK, [folded], addrs),
                                  resolve_array(DESK, [], addrs))


# 20 words per window: 2 rows of one tile's 16 banks, or 1 row of four tiles' 64
@pytest.mark.parametrize("tiles,folding,stride", [(1, (4, 1), 128), (4, (6, 0), 256)])
@pytest.mark.parametrize("scheme", ["das", "interleaved"])
def test_each_tile_group_has_its_own_window(scheme, tiles, folding, stride):
    pb = _in_phase(scheme)
    op = pb.alloc_windows("w", tiles, 20)
    event = pb.alloc_log[-1]
    assert event["size_bytes"] == DESK.n_tiles // tiles * stride
    if scheme == "das":
        assert (event["mapping"]["p"], event["mapping"]["s"]) == folding
    # every tile of group g reaches the window g strides from the base
    tile = np.arange(DESK.n_tiles)
    np.testing.assert_array_equal(op.addr(tile, 3), op.base + tile // tiles * stride + 12)


def test_free_takes_a_window_operand():
    pb = _in_phase()
    for tiles in (1, 4, DESK.n_tiles):
        pb.free(pb.alloc_windows("w", tiles, 20))
    assert not pb.heap.regions


@pytest.mark.parametrize("gen,shape", [
    (gen_gemm, (32, 32, 32)),
    pytest.param(gen_gemv, (64, 64), marks=pytest.mark.xfail(strict=True, reason=(
        "c_partial's base is 260 blocks into L1, so its window 0 sits on tile 4: "
        "Operand.addr assumes that window w sits on tile w"))),
], ids=["gemm-32x32x32", "gemv-64x64"])
def test_compute_stores_are_tile_local_under_das(gen, shape):
    # each PE stores its results into its own tile's folded window
    plan = gen(DESK, *shape, 1, "das")
    (chunk,) = next(p for p in plan.phases if p.name == "compute").chunks
    cols = chunk.cols
    stores = cols["kind"] == K_STORE
    assert stores.any()
    assert (cols["level"][stores] == 0).all()


def _reduction_op_by_op(st, loads, macs, dep_cols, out_addr, setup):
    """emit_reduction's schedule written one op at a time: its reference."""
    prev = None
    for k, row in enumerate(loads):
        ix = [st.load(int(a)) for a in row]
        if k == 0 and setup:
            st.compute(C_ALU)
        if prev is not None:
            st.compute(C_MAC, count=macs, dep=prev)
        prev = (ix[dep_cols[0]], ix[dep_cols[1]])
    last = st.compute(C_MAC, count=macs, dep=prev)
    for a in out_addr:
        st.store(int(a), dep=(last,))


@pytest.mark.parametrize("n_steps", [1, 2, 5])
@pytest.mark.parametrize("width,macs,dep_cols,setup", [(8, 16, (7, 3), True),
                                                       (5, 4, (4, 0), False)],
                         ids=["gemm", "gemv"])
def test_emit_reduction_matches_op_by_op(n_steps, width, macs, dep_cols, setup):
    # three work items with their own addresses; items 0 and 2 share a stream
    on = (0, 1, 0)
    loads = 4 * np.arange(len(on) * n_steps * width).reshape(len(on), n_steps, width)
    out_addr = 4096 + 4 * np.arange(len(on) * 4).reshape(len(on), 4)
    bulk, ref = PlanBuilder(DESK, "das"), PlanBuilder(DESK, "das")
    for pb in (bulk, ref):
        for pe in range(2):
            pb.streams[pe].compute(C_ALU)       # the reduction need not open the stream
    # the loads come in two arrays, laid side by side
    pes = np.array(on)
    emit_reduction(bulk, pes, (loads[..., :1], loads[..., 1:]), macs, dep_cols,
                   out_addr, setup)
    for item, i in enumerate(on):
        _reduction_op_by_op(ref.streams[i], loads[item], macs, dep_cols, out_addr[item], setup)
    loads[:], out_addr[:], pes[:] = 0, 0, 1     # the table holds none of the caller's arrays
    assert [s.n for s in bulk.streams] == [s.n for s in ref.streams]
    for got, want in zip(stream_ops(bulk), stream_ops(ref)):
        for name in STREAM_COLS:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)


@pytest.mark.parametrize("n_steps", [1, 2, 5])
def test_emit_reduction_sums_each_pair_of_terms_into_its_loads(n_steps):
    # each part of the loads given as a per-item term plus a per-step term
    # writes the same streams as the parts given as their sums
    on, width = (0, 1, 0), 8
    item = 4 * n_steps * width * np.arange(len(on))[:, None, None] + 4 * np.arange(width)
    step = 4 * width * np.arange(n_steps)[:, None]
    out_addr = 4096 + 4 * np.arange(len(on) * 3).reshape(len(on), 3)
    builders = {split: PlanBuilder(DESK, "das") for split in (True, False)}
    for split, pb in builders.items():
        loads = ((item[..., :3], step), (item[..., 3:], step)) if split else (
            (item + step)[..., :3], (item + step)[..., 3:])
        emit_reduction(pb, on, loads, 16, (7, 3), out_addr, True)
    a, b = builders[True], builders[False]
    assert [s.n for s in a.streams] == [s.n for s in b.streams]
    for got, want in zip(stream_ops(a), stream_ops(b)):
        for name in STREAM_COLS:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)


def test_emit_reduction_sums_into_its_matrix_without_a_copy_of_a_view():
    # each pair's sum goes through one strided view of the address matrix
    # (items x steps x the pair's width); numpy buffers such an add in
    # blocks of a fixed size (about 0.45 MiB beyond the matrix here),
    # never in a copy of the view, which is 1.5 MiB for the first pair
    on, n_steps, width = np.arange(64), 1024, 8
    item = 4 * n_steps * width * on[:, None, None] + 4 * np.arange(width)
    step = 4 * width * np.arange(n_steps)[:, None]
    out_addr = 4096 + 4 * np.arange(len(on) * 4).reshape(len(on), 4)
    pb = PlanBuilder(DESK, "das")
    tracemalloc.start()
    try:
        emit_reduction(pb, on, ((item[..., :3], step), (item[..., 3:], step)), 16, (7, 3),
                       out_addr, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (_, _, addr), = pb._table
    assert addr.shape == (len(on), n_steps * width + 4)
    assert peak - addr.nbytes < 1 << 20, peak - addr.nbytes


def _template(n_ops, dep1=(), dep2=()):
    """``n_ops`` one-ALU ops; ``dep1``/``dep2`` name (op, distance) pairs."""
    t = {"kind": [K_COMPUTE] * n_ops, "cls": [C_ALU] * n_ops, "arg": [1] * n_ops,
         "dep1": [0] * n_ops, "dep2": [0] * n_ops}
    for col, deps in (("dep1", dep1), ("dep2", dep2)):
        for op, dist in deps:
            t[col][op] = dist
    return t


# templates and address shapes emit_copies rejects, for two items on
# PEs whose streams already hold 3 ops
COPIES_REJECTED = {
    "dep-before-copy": (_template(2, dep1=[(1, 2)]), (2, 0)),
    "dep-ring": (_template(DEP_RING + 1, dep2=[(DEP_RING, DEP_RING)]), (2, 0)),
    "dep-negative": (_template(2, dep2=[(1, -1)]), (2, 0)),
    "addr-items": (_template(2), (1, 0)),
    "addr-ops": (_template(2), (2, 2)),
    "addr-flat": (_template(2), (0,)),
    "column-length": ({**_template(2), "arg": [1]}, (2, 0)),
    "column-scalar": ({**_template(2), "arg": 1}, (2, 0)),
}


@pytest.mark.parametrize("case", COPIES_REJECTED)
def test_emit_copies_rejects_bad_templates(case):
    template, addr_shape = COPIES_REJECTED[case]
    pb = PlanBuilder(DESK, "das")
    for pe in range(2):
        for _ in range(3):
            pb.streams[pe].compute(C_ALU)
    with pytest.raises(ValueError):
        emit_copies(pb, [0, 1], template, np.zeros(addr_shape, dtype=np.int64))
    assert [st.n for st in pb.streams] == [3, 3] + [0] * (DESK.n_pes - 2)
    assert [len(ops["kind"]) for ops in stream_ops(pb)[:2]] == [3, 3]


@pytest.mark.parametrize("pes", [[-1, 0], [0, 64], [[0], [1]]],
                         ids=["negative", "past-the-last", "not-a-row"])
def test_emit_copies_rejects_work_items_off_the_cluster(pes):
    pb = PlanBuilder(DESK, "das")
    with pytest.raises(ValueError, match="PE numbers below 64"):
        emit_copies(pb, pes, _template(2), np.zeros((2, 0), dtype=np.int64))
    assert [st.n for st in pb.streams] == [0] * DESK.n_pes


def test_emit_copies_keeps_its_own_copy():
    # a load and an ALU op on it
    template = {"kind": np.array([K_LOAD, K_COMPUTE], dtype=np.uint8),
                "cls": np.array([0, C_ALU], dtype=np.uint8),
                "arg": np.array([0, 1], dtype=np.int32),
                "dep1": np.array([0, 1], dtype=np.uint16),
                "dep2": np.zeros(2, dtype=np.uint16)}
    addr = np.array([[8], [12], [16]], dtype=np.int64)
    pes = np.array([0, 1, 0])       # PE 0 takes two copies, PE 1 one
    # and from a read-only view of addr, which writes to addr still change
    view = addr.view()
    view.flags.writeable = False
    builders = [PlanBuilder(DESK, "das") for _ in range(2)]
    for pb, a in zip(builders, (addr, view)):
        emit_copies(pb, pes, template, a)
    for col in (*template.values(), addr, pes):
        col[:] = 3
    for pb, (pe, addrs) in itertools.product(builders, ((0, [8, 0, 16, 0]), (1, [12, 0]))):
        got = stream_ops(pb)[pe]
        k = len(addrs) // 2
        assert got["kind"].tolist() == [K_LOAD, K_COMPUTE] * k
        assert got["cls"].tolist() == [0, C_ALU] * k
        assert got["arg"].tolist() == [0, 1] * k
        assert got["dep1"].tolist() == [0, 1] * k
        assert got["dep2"].tolist() == [0, 0] * k
        assert got["addr"].tolist() == addrs


def _pe_work_items(topo, geom, pe):
    """gemm's work items of one PE as a loop: work_items' reference."""
    tiles_per_prob = geom["tiles_per_prob"]
    tile = pe // topo.pes_per_tile
    ti = tile % tiles_per_prob
    slot = pe % topo.pes_per_tile
    wins = list(range(slot, geom["windows"], topo.pes_per_tile))
    if wins:
        rot = ti % len(wins)
        wins = wins[rot:] + wins[:rot]
    n_local = len(range(ti, geom["blocks"], tiles_per_prob))
    return [(pe, lb, win) for lb in range(n_local) for win in wins]


@pytest.mark.parametrize("topo,shape,n_parallel", [
    (DESK, (32, 32, 32), 1), (DESK, (32, 64, 32), 4), (DESK, (8, 1, 8), 1),
    (DESK, (4, 8, 36), 2), (DESK, (96, 8, 12), 16), (TERAPOOL, (64, 64, 64), 1),
    (TERAPOOL, (256, 8, 256), 8)])
def test_gemm_work_items_match_the_loop(topo, shape, n_parallel):
    geom = gemm_geometry(topo, *shape, n_parallel)
    want = [it for pe in range(topo.n_pes) for it in _pe_work_items(topo, geom, pe)]
    got = list(zip(*(a.tolist() for a in work_items(topo, geom))))
    assert got == want


def _reduce_partials_op_by_op(pb, g, n_parallel, c_part, c_final):
    """gemv's reduce phase written one op at a time: reduce_partials' reference."""
    ppg, gpp, rows_per_pe = g["ppg"], g["gpp"], g["rows_per_pe"]
    ppt = pb.topo.pes_per_tile
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
                    poff = (peer % ppt) * rows_per_pe + row
                    ld = st.load(c_part.addr(peer // ppt, poff))
                    prev = st.compute(C_ALU, dep=(ld,) if prev is None else (ld, prev))
                st.store(c_final.addr(pe // ppt, cslot + row), dep=(prev,))


# gpp 2: a 3-op chain (no golden has it); gpp 64; two problems of gpp 8
@pytest.mark.parametrize("shape,n_parallel", [((128, 64), 1), ((12, 64), 1), ((16, 64), 2)],
                         ids=["gpp2", "gpp64", "gpp8-par2"])
@pytest.mark.parametrize("scheme", ["das", "interleaved"])
def test_gemv_reduce_chain_matches_op_by_op(monkeypatch, shape, n_parallel, scheme):
    got = gen_gemv(DESK, *shape, n_parallel, scheme)
    monkeypatch.setattr(gemv, "reduce_partials", _reduce_partials_op_by_op)
    want = gen_gemv(DESK, *shape, n_parallel, scheme)
    assert got.counted_ops == want.counted_ops
    (pg, pw) = (got.phases[-1], want.phases[-1])
    assert pg.name == pw.name == "reduce"
    (cg,), (cw,) = pg.chunks, pw.chunks
    np.testing.assert_array_equal(cg.n_ops, cw.n_ops)
    for name, col in cw.cols.items():
        assert cg.cols[name].dtype == col.dtype, name
        np.testing.assert_array_equal(cg.cols[name], col, err_msg=name)


# the bench shapes, and desk gemv 12x64 for a 64-group reduce phase. The
# schemes write the same ops, so one scheme counts for both
@pytest.mark.parametrize("topo,gen,shape,n_parallel", [
    (TERAPOOL, gen_gemm, (64, 64, 64), 1), (TERAPOOL, gen_gemv, (256, 256), 1),
    (DESK, gen_gemm, (32, 64, 32), 4), (DESK, gen_gemv, (12, 64), 1)],
    ids=["tp-gemm-64", "tp-gemv-256", "desk-gemm-par4", "desk-gemv-12x64"])
def test_kernels_write_no_op_one_at_a_time(monkeypatch, topo, gen, shape, n_parallel):
    # only the allocation charges go through PeStream's one-op path; every
    # kernel loop is one bulk copy of an op template per work item
    pushed = []
    push = PeStream._push

    def counted(self, *args):
        pushed.append(args[0])
        return push(self, *args)

    monkeypatch.setattr(PeStream, "_push", counted)
    plan = gen(topo, *shape, n_parallel, "das")
    assert len(pushed) == len(plan.alloc_events)


PLANS = [(gen, shape, n_parallel)
         for gen, shape in ((gen_gemm, (32, 32, 32)), (gen_gemm, (32, 64, 32)),
                            (gen_gemv, (64, 64)))
         for n_parallel in (1, 4)]
PLAN_IDS = [f"{g.__name__}-{'x'.join(map(str, s))}-par{n}" for g, s, n in PLANS]


@pytest.fixture(scope="module", params=PLANS, ids=PLAN_IDS)
def plans(request):
    gen, shape, n_parallel = request.param
    return {s: gen(DESK, *shape, n_parallel, s) for s in ("das", "interleaved")}


def test_schemes_differ_only_in_placement(plans):
    # the mapping scheme moves ops between banks, never changes the program
    das, il = plans["das"], plans["interleaved"]
    assert [p.name for p in das.phases] == [p.name for p in il.phases]
    for pd, pi in zip(das.phases, il.phases):
        (cd,), (ci,) = pd.chunks, pi.chunks
        assert np.array_equal(cd.n_ops, ci.n_ops)
        for col in ("kind", "cls", "arg", "dep1", "dep2"):
            assert np.array_equal(cd.cols[col], ci.cols[col]), (pd.name, col)
    assert das.counted_ops == il.counted_ops == das.expected_ops


def test_packed_columns_are_zero_past_each_stream(plans):
    for plan in plans.values():
        for phase in plan.phases:
            (chunk,) = phase.chunks
            for name, col in chunk.cols.items():
                past = np.arange(col.shape[1]) >= chunk.n_ops[:, None]
                assert not col[past].any(), (phase.name, name)
