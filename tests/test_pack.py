"""PlanBuilder.end_phase's batched packer: against the per-PE oracle, and
its memory bounded by the batch."""

import tracemalloc

import numpy as np
import pytest

from dasim import das, desk_default
from dasim.kernels import plan
from dasim.kernels.gemm import gen_gemm
from dasim.kernels.plan import PlanBuilder
import reference_pack
from test_engine import _random_programs
from test_kernels import PLAN_IDS, PLANS

DESK = desk_default()

# BATCH_OPS settings: one PE per batch (an op cap below every stream),
# batches that split PEs unevenly, and the whole phase in one batch
BATCH_CAPS = pytest.mark.parametrize("batch_ops", [1, 7, 1 << 62],
                                     ids=["cap1", "cap7", "unbounded"])


def _under_both_packers(monkeypatch, build, batch_ops):
    """``build()`` with end_phase at ``batch_ops``, and with the oracle."""
    with monkeypatch.context() as m:
        m.setattr(plan, "BATCH_OPS", batch_ops)
        got = build()
    with monkeypatch.context() as m:
        m.setattr(PlanBuilder, "end_phase", reference_pack.end_phase)
        return got, build()


def _assert_same_chunks(got, want):
    assert got.counted_ops == want.counted_ops
    assert [p.name for p in got.phases] == [p.name for p in want.phases]
    for pg, pw in zip(got.phases, want.phases):
        (cg,), (cw,) = pg.chunks, pw.chunks
        assert cg.n_ops.dtype == cw.n_ops.dtype
        np.testing.assert_array_equal(cg.n_ops, cw.n_ops, err_msg=pg.name)
        assert cg.cols.keys() == cw.cols.keys()
        for name, col in cw.cols.items():
            assert cg.cols[name].dtype == col.dtype, (pg.name, name)
            np.testing.assert_array_equal(cg.cols[name], col, err_msg=f"{pg.name} {name}")


@BATCH_CAPS
@pytest.mark.parametrize("kernel", PLANS, ids=PLAN_IDS)
def test_kernel_plans_pack_like_the_oracle(monkeypatch, kernel, batch_ops):
    gen, shape, n_parallel = kernel
    for scheme in ("das", "interleaved"):
        got, want = _under_both_packers(
            monkeypatch, lambda: gen(DESK, *shape, n_parallel, scheme), batch_ops)
        _assert_same_chunks(got, want)


def _random_builder(seed):
    """Two phases of ``_random_programs`` under DAS, with two empty PEs each.

    A folded region allocated in the first phase catches some of the
    random addresses; one phase ends in a barrier, the other does not,
    and the second phase's ops may depend on the first's across it.
    """
    rng = np.random.default_rng(seed)
    pb = PlanBuilder(DESK, "das")
    for ph, barrier in enumerate((True, False) if seed % 2 else (False, True)):
        progs = _random_programs(rng, 8)
        for pe in rng.choice(8, 2, replace=False):
            progs[pe] = []
        pb.begin_phase(f"p{ph}")
        if ph == 0:
            pb.alloc("buf", 4096, das(4, 1))
        for stream, prog in zip(pb.streams, progs):
            shift = stream.n
            for method, *args in prog:
                if method == "compute":
                    args[2] = tuple(d + shift for d in args[2])
                getattr(stream, method)(*args)
        pb.end_phase(barrier)
    return pb


@BATCH_CAPS
@pytest.mark.parametrize("seed", range(6))
def test_random_phases_pack_like_the_oracle(monkeypatch, seed, batch_ops):
    def build():
        pb = _random_builder(seed)
        return pb.build("test", "", 1, {}), [s.n for s in pb.streams]

    (got, got_n), (want, want_n) = _under_both_packers(monkeypatch, build, batch_ops)
    _assert_same_chunks(got, want)
    assert got_n == want_n


def test_end_phase_memory_is_bounded_by_the_batch(monkeypatch):
    # beyond the chunk it returns, end_phase may hold 8 stream records
    # per op of an 8192-op batch: the batch's flat, PE and slot columns,
    # its masks and resolve_array's and access_levels' int64 temporaries
    # take about 6. Desk gemm 32x64x32 with n_parallel 4 packs 152k ops
    # in its compute phase; resolving that phase at once peaks 12x over
    # the bound and raises the resident memory of a whole run by 20%, and
    # a 32k-op batch peaks 3.5x over it
    bound = 8 * 8192 * sum(np.dtype(d).itemsize for d in plan.STREAM_COLS.values())
    extra = []
    end_phase = PlanBuilder.end_phase

    def traced(self, barrier=True):
        tracemalloc.start()
        try:
            end_phase(self, barrier)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (chunk,) = self.phases[-1].chunks
        extra.append(peak - chunk.n_ops.nbytes - sum(c.nbytes for c in chunk.cols.values()))

    monkeypatch.setattr(PlanBuilder, "end_phase", traced)
    gen_gemm(DESK, 32, 64, 32, 4, "das")
    assert max(extra) < bound, extra
