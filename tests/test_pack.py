"""PlanBuilder.end_phase's template-group packer: against the per-PE
oracle, and its memory bounded by the batch."""

import tracemalloc

import numpy as np
import pytest

from dasim import das, desk_default, terapool_default
from dasim._stepper import K_COMPUTE, K_LOAD, K_STORE
from dasim.engine import SimulationFault
from dasim.kernels import plan
from dasim.kernels.gemm import gen_gemm
from dasim.kernels.plan import C_ALU, C_MAC, PlanBuilder, emit_copies
import reference_pack
from test_engine import _random_programs
from test_kernels import PLAN_IDS, PLANS

DESK = desk_default()
TERAPOOL = terapool_default()

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
    assert [(p.name, p.barrier) for p in got.phases] == [(p.name, p.barrier)
                                                         for p in want.phases]
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


# two op templates: T loads, multiplies and stores; U loads twice and adds
T = {"kind": [K_LOAD, K_COMPUTE, K_STORE], "cls": [0, C_MAC, 0], "arg": [0, 4, 0],
     "dep1": [0, 1, 1], "dep2": [0, 0, 0]}
U = {"kind": [K_LOAD, K_LOAD, K_COMPUTE], "cls": [0, 0, C_ALU], "arg": [0, 0, 1],
     "dep1": [0, 0, 1], "dep2": [0, 0, 2]}


def _copies(rng, pb, pes, template):
    """One copy of ``template`` per PE listed, its two loads and stores at
    random L1 words, some of them in the folded region that
    _group_builder allocates at 0."""
    words = rng.integers(0, np.where(rng.random((len(pes), 2)) < 0.5, 1024,
                                     DESK.total_bytes // 4))
    emit_copies(pb, pes, template, words * 4)


def _copies_on_one_stream(rng, pb):
    # gemm's case: each PE takes its items in order, and PEs take
    # different numbers of them
    _copies(rng, pb, [1, 1, 1, 2, 2, 5, 7, 7, 7, 7], T)


def _singles_between_copies(rng, pb):
    # ops pushed one by one between copies on PEs 1 and 3 only: T's second
    # copies start at slot 3 on PE 2, at 4 on PE 1 and at 5 on PE 3
    _copies(rng, pb, [1, 2, 3], T)
    pb.streams[1].load(4 * int(rng.integers(0, 1024)))
    pb.streams[3].compute(C_ALU)
    pb.streams[3].store(4 * int(rng.integers(0, 4096)), dep=(3,))
    _copies(rng, pb, [1, 2, 3, 4], T)


def _two_templates(rng, pb):
    _copies(rng, pb, [1, 2, 3], T)
    _copies(rng, pb, [2, 3, 4, 2], U)
    _copies(rng, pb, [1, 4], T)
    pb.streams[4].load(4 * int(rng.integers(0, 4096)))
    _copies(rng, pb, [4, 1], U)


def _empty_copies(rng, pb):
    # copies of a template without ops, between and after other copies
    _copies(rng, pb, [1, 2], T)
    emit_copies(pb, [1, 3], {k: [] for k in T}, np.zeros((2, 0)))
    _copies(rng, pb, [1], U)


def _one_template_from_two_calls(rng, pb):
    # PE 1's copies of T come from two calls, with a copy of U and single
    # ops between them; PE 2 takes T from the second call only
    _copies(rng, pb, [1, 1], T)
    _copies(rng, pb, [1], U)
    pb.streams[1].compute(C_ALU)
    pb.streams[1].store(4 * int(rng.integers(0, 4096)))
    rows = 4 * rng.integers(0, 1024, (3, 2))
    emit_copies(pb, [2, 1], T, rows[:2])
    emit_copies(pb, [1], T, rows[2:])


def _pe_listed_out_of_item_order(rng, pb):
    # one call lists PE 3 three times and PEs 1 and 2 twice, interleaved
    _copies(rng, pb, [3, 1, 3, 2, 1, 3, 2], T)
    _copies(rng, pb, [2, 3], U)


def _entries_a_b_a(rng, pb):
    # PE 1's copies come from entries A (T), B (U) and A again (T, a later
    # call); PE 2's from both A entries, so its first copy's banks lie
    # ahead of PE 1's last in the chunk's bank array, and copy_bank falls
    # from PE 1's copies to PE 2's
    _copies(rng, pb, [2, 1], T)
    _copies(rng, pb, [1, 3], U)
    _copies(rng, pb, [1, 2], T)


GROUP_SHAPES = {"copies-on-one-stream": _copies_on_one_stream,
                "singles-between-copies": _singles_between_copies,
                "two-templates": _two_templates,
                "empty-copies": _empty_copies,
                "one-template-from-two-calls": _one_template_from_two_calls,
                "pe-listed-out-of-item-order": _pe_listed_out_of_item_order,
                "entries-a-b-a": _entries_a_b_a}


def _group_builder(shape, seed):
    """One phase of ``shape``'s ops on desk under DAS, after PE 0 allocates
    a folded region, and a second phase of it without a barrier."""
    rng = np.random.default_rng(seed)
    pb = PlanBuilder(DESK, "das")
    pb.begin_phase("p0")
    pb.alloc("buf", 4096, das(4, 1))
    GROUP_SHAPES[shape](rng, pb)
    pb.end_phase()
    pb.begin_phase("p1")
    GROUP_SHAPES[shape](rng, pb)
    pb.end_phase(barrier=False)
    return pb.build("test", "", 1, {})


@BATCH_CAPS
@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("shape", GROUP_SHAPES)
def test_template_groups_pack_like_the_oracle(monkeypatch, shape, seed, batch_ops):
    got, want = _under_both_packers(monkeypatch, lambda: _group_builder(shape, seed),
                                    batch_ops)
    _assert_same_chunks(got, want)


def test_entries_a_b_a_point_copy_bank_backwards():
    (chunk,) = _group_builder("entries-a-b-a", 0).phases[0].chunks
    pe1, pe2 = (chunk.copy_bank[chunk.copy_ptr[pe]:chunk.copy_ptr[pe + 1]] for pe in (1, 2))
    assert len(pe1) == 3 and len(pe2) == 2
    assert (np.diff(pe1) > 0).all() and pe2[0] < pe1[2]


@BATCH_CAPS
@pytest.mark.parametrize("kernel", PLANS, ids=PLAN_IDS)
def test_end_phase_resolves_each_block_as_one_row_of_addresses(monkeypatch, kernel,
                                                                batch_ops):
    # each resolve_array call that end_phase makes takes a 1-D array, and
    # a phase's calls take as many addresses as its streams hold loads and
    # stores
    gen, shape, n_parallel = kernel
    calls, phases = [], []
    resolve, end_phase = plan.resolve_array, PlanBuilder.end_phase

    def counted(topo, regions, addrs):
        calls.append(addrs.shape)
        return resolve(topo, regions, addrs)

    def traced(self, barrier=True):
        mem = sum(int((ops["kind"] <= K_STORE).sum()) for ops in reference_pack.stream_ops(self))
        calls.clear()
        end_phase(self, barrier)
        phases.append((mem, list(calls)))

    monkeypatch.setattr(plan, "BATCH_OPS", batch_ops)
    monkeypatch.setattr(plan, "resolve_array", counted)
    monkeypatch.setattr(PlanBuilder, "end_phase", traced)
    gen(DESK, *shape, n_parallel, "das")
    assert sum(mem for mem, _ in phases) > 0
    for mem, shapes in phases:
        assert all(len(sh) == 1 for sh in shapes), shapes
        assert sum(sh[0] for sh in shapes) == mem


def _singles_around_copies_across_phases():
    """Single ops before and after copies in two phases, the first ended
    without a barrier; PE 2's first op of the second phase depends on its
    last of the first."""
    rng = np.random.default_rng(7)
    pb = PlanBuilder(DESK, "das")
    pb.begin_phase("p0")
    pb.alloc("buf", 4096, das(4, 1))
    first = pb.streams[2].load(4 * int(rng.integers(0, 4096)))
    _copies(rng, pb, [1, 2, 1], T)
    last = pb.streams[2].compute(C_ALU, dep=(first,))
    pb.end_phase(barrier=False)
    pb.begin_phase("p1")
    pb.streams[2].compute(C_ALU, dep=(last,))
    pb.streams[1].store(4 * int(rng.integers(0, 4096)), dep=(pb.streams[1].n - 1,))
    _copies(rng, pb, [2, 1], U)
    pb.streams[2].store(4 * int(rng.integers(0, 4096)), dep=(last,))
    pb.end_phase()
    return pb.build("test", "", 1, {})


def _terapool_barrier_only():
    """A TeraPool phase in which 128 PEs, one per 8, take 0-3 copies and a
    single op, and the other 896 hold no op, only the phase's barrier."""
    rng = np.random.default_rng(8)
    pb = PlanBuilder(TERAPOOL, "das")
    pb.begin_phase("p")
    on = np.repeat(np.arange(0, TERAPOOL.n_pes, 8), rng.integers(0, 4, TERAPOOL.n_pes // 8))
    emit_copies(pb, rng.permutation(on), T, 4 * rng.integers(0, 1 << 16, (len(on), 2)))
    for pe in range(0, TERAPOOL.n_pes, 8):
        pb.streams[pe].load(4 * int(rng.integers(0, 1 << 16)))
    pb.end_phase()
    return pb.build("test", "", 1, {})


@BATCH_CAPS
@pytest.mark.parametrize("build", [_singles_around_copies_across_phases,
                                   _terapool_barrier_only],
                         ids=["singles-across-phases", "terapool-barrier-only"])
def test_copy_numbering_packs_like_the_oracle(monkeypatch, build, batch_ops):
    got, want = _under_both_packers(monkeypatch, build, batch_ops)
    _assert_same_chunks(got, want)


def test_a_dependence_reaches_across_a_phase_without_a_barrier():
    # PE 2's stream: p0 holds its load, one copy of T and an ALU op (ops
    # 0-4), p1 an ALU op on op 4 and, after U's copy, a store on op 4
    p1 = _singles_around_copies_across_phases().phases[1].chunks[0]
    assert p1.n_ops[2] == 5
    assert p1.cols["kind"][2].tolist() == [K_COMPUTE, K_LOAD, K_LOAD, K_COMPUTE, K_STORE]
    assert (p1.cols["dep1"][2, 0], p1.cols["dep1"][2, 4]) == (1, 5)


def test_a_terapool_builder_holds_no_object_per_pe():
    # a builder keeps one int64 op counter per PE, 8 KiB at 1,024 PEs, and
    # makes a PE's stream only when asked: 1,024 stream objects held
    # about 125 KiB
    tracemalloc.start()
    try:
        pb = PlanBuilder(TERAPOOL, "das")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 32 << 10, held
    assert len(pb.streams) == TERAPOOL.n_pes


BAD = DESK.total_bytes + 8


def _bad_after_a_lower_pe(pb):
    # group (U, 0) holds PE 1's good copy and PE 2's bad one and is packed
    # first; PE 1's bad address is in group (T, 3), packed after it
    emit_copies(pb, [1, 2], U, [[0, 4], [8, BAD + 4]])
    emit_copies(pb, [1], T, [[BAD, 12]])


def _first_bad_in_a_later_group(pb):
    # groups (T, 0) {PE 1}, (U, 3) {PEs 1, 2} and (U, 0) {PE 2}, packed in
    # that order: PE 2's second bad address fails first, but its first
    # one, in (U, 0), is the one named
    emit_copies(pb, [1], T, [[0, 4]])
    emit_copies(pb, [2, 1, 2], U, [[BAD, 0], [0, 4], [0, BAD + 4]])


# the builder of each phase, and the PE and address its fault names
FAULT_SHAPES = {"bad-after-a-lower-pe": (_bad_after_a_lower_pe, 1, BAD),
                "first-bad-in-a-later-group": (_first_bad_in_a_later_group, 2, BAD)}


@BATCH_CAPS
@pytest.mark.parametrize("shape", FAULT_SHAPES)
def test_unresolvable_address_in_a_later_group_names_the_lowest_pe(monkeypatch, shape,
                                                                   batch_ops):
    emit, pe, addr = FAULT_SHAPES[shape]

    def build():
        pb = PlanBuilder(DESK, "interleaved")
        pb.begin_phase("p")
        emit(pb)
        with pytest.raises(SimulationFault) as fault:
            pb.end_phase()
        return str(fault.value)

    got, want = _under_both_packers(monkeypatch, build, batch_ops)
    assert got == want == f"PE {pe}, phase 'p': address 0x{addr:x} outside L1"


def _held(chunk) -> list:
    """Every array a chunk holds, its template columns included."""
    return [a for v in vars(chunk).values()
            for a in (v.values() if isinstance(v, dict) else [v]) if isinstance(a, np.ndarray)]


def test_end_phase_memory_is_bounded_by_the_batch(monkeypatch):
    # beyond the chunk it returns, end_phase may hold 8 stream records
    # per op of an 8192-op batch: a block of copies' gathered addresses,
    # its banks and resolve_array's int64 temporaries take about 5. Desk
    # gemm 32x64x32 with n_parallel 4 packs 152k ops in its compute
    # phase; resolving that phase at once peaks 12x over the bound and
    # raises the resident memory of a whole run by 20%, and a 32k-op
    # batch peaks 3.5x over it
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
        extra.append(peak - sum(a.nbytes for a in _held(chunk)))

    monkeypatch.setattr(PlanBuilder, "end_phase", traced)
    gen_gemm(DESK, 32, 64, 32, 4, "das")
    assert max(extra) < bound, extra


def test_a_plan_holds_no_padding():
    # tp gemm 64^3's compute phase gives 128 of 1,024 PEs 1,186 ops and
    # the rest none: padded to the longest stream, its 15-byte
    # slots took 17.4 MiB for 152,832 ops. In template form a chunk holds
    # 2 bytes per load and store, 4 per copy and 4 pointers per PE, and
    # reading the flat view leaves nothing behind
    p = gen_gemm(TERAPOOL, 64, 64, 64, 1, "das")
    for phase in p.phases:
        (chunk,) = phase.chunks
        held = sum(a.nbytes for a in _held(chunk))
        assert held <= 2 * int(chunk.n_ops.sum()) + 40 * TERAPOOL.n_pes, phase.name
        flat = dict(chunk.cols)
        assert flat["kind"].shape == (TERAPOOL.n_pes, max(1, chunk.n_ops.max()))
        assert all(a.ndim == 1 for a in _held(chunk))
        assert sum(a.nbytes for a in _held(chunk)) == held
