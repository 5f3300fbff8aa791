"""Kernel generators: shape rules and the plans they pack."""

import numpy as np
import pytest

from dasim import desk_default
from dasim.kernels.gemm import gen_gemm
from dasim.kernels.gemv import gen_gemv
from dasim.kernels.plan import (C_ALU, C_MAC, STREAM_COLS, PeStream, ShapeError,
                                emit_reduction, group_window_cfg)
from reference_pack import take

DESK = desk_default()   # 64 PEs in 16 tiles of 16 banks, 256 rows per bank


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


@pytest.mark.parametrize("tiles", [1, 4])
def test_window_footprint_limit(tiles):
    # a group of `tiles` tiles folds at most 256 rows of its banks
    words = tiles * DESK.banks_per_tile * DESK.rows_per_bank
    cfg = group_window_cfg(DESK, tiles, words)
    assert cfg.s == DESK.row_bits
    with pytest.raises(ShapeError, match="row bits"):
        group_window_cfg(DESK, tiles, words + 1)


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
    loads = 4 * np.arange(n_steps * width, dtype=np.int64).reshape(n_steps, width)
    out_addr = 4096 + 4 * np.arange(4)
    bulk, ref = PeStream(), PeStream()
    for st in (bulk, ref):
        st.compute(C_ALU)       # the reduction need not open the stream
    emit_reduction(bulk, loads, macs, dep_cols, out_addr, setup)
    _reduction_op_by_op(ref, loads, macs, dep_cols, out_addr, setup)
    got, want = take(bulk), take(ref)
    for name in STREAM_COLS:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


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
