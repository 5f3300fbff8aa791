import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dasim import das, das_malloc, desk_default, heap_init, terapool_default
from dasim._stepper import DEP_RING, K_COMPUTE, _ins_hit
from dasim.engine import DmaTransfer, EngineParams, SimulationFault, build_transfer
from dasim.kernels.plan import C_ALU, C_DIV, C_MAC, PeStream, PlanBuilder, run_plan
from reference_dma import DmaState, dma_advance

DESK = desk_default()


def simulate(progs, params=None, barrier=False, transfers=(), topo=DESK):
    """Run one phase through PlanBuilder and run_plan (which checks conservation).

    ``progs[pe]`` lists PE ``pe``'s ops as PeStream calls ``(method, *args)``;
    PEs without a program stay empty. ``barrier`` ends the phase with a
    barrier on every PE.
    """
    pb = PlanBuilder(topo, "interleaved", 0, topo.total_bytes)
    pb.transfers.extend(transfers)
    _emit_phase(pb, "run", progs, barrier)
    return run_plan(pb.build("test", "", 1, {}), params)


def _emit_phase(pb, name, progs, barrier):
    pb.begin_phase(name)
    for stream, prog in zip(pb.streams, progs):
        for method, *args in prog:
            getattr(stream, method)(*args)
    pb.end_phase(barrier)


def bank_addr(bank, row=0):
    return (row * DESK.n_banks + bank) * DESK.word_bytes


def finish_times(report):
    # own completion before the trailing idle fill of a terminal segment
    return (report.per_pe["cycles_total"] - report.per_pe["wfi_stall"])


def test_load_latency_tile_local():
    # load issues at 0, data back after 1 cycle, consumer issues at 1
    rep = simulate([[("load", bank_addr(0)), ("compute", C_ALU, 1, (0,))]])
    assert rep.cycles == 2
    assert rep.per_pe["lsu_stall"][0] == 0


@pytest.mark.parametrize("tile,lat", [(1, 3), (2, 5), (4, 7)])
def test_load_latency_levels(tile, lat):
    addr = bank_addr(tile * DESK.banks_per_tile)
    rep = simulate([[("load", addr), ("compute", C_ALU, 1, (0,))]])
    assert rep.cycles == lat + 1
    assert rep.per_pe["lsu_stall"][0] == lat - 1


def test_bank_serializes_eight_requesters():
    # 8 PEs of one tile hit the same bank the same cycle: completions
    # spread over 8 consecutive cycles (hand-stepped FIFO oracle)
    addr = 0  # bank 0, tile-local for PEs 0..7
    progs = [[("load", addr), ("compute", C_ALU, 1, (0,))] for _ in range(8)]
    rep = simulate(progs, topo=terapool_default())
    done = finish_times(rep)[:8]
    # PE k's load is served at cycle k, data at k+1, consumer retires k+2
    assert list(done) == [k + 2 for k in range(8)]


def test_outstanding_window_gates_issue():
    # 8 independent far loads, ample ports: issue 0..3 back to back, the
    # 5th waits for a free slot (slots free as their own responses return)
    params = EngineParams(window=4, out_ports=8, in_ports=8)
    addrs = [bank_addr((4 + t) * DESK.banks_per_tile) for t in range(8)]
    rep = simulate([[("load", a) for a in addrs]], params)
    # loads at 0,1,2,3 complete at 7..10; slots reopen at 7,8,9,10
    assert rep.per_pe["lsu_stall"][0] == 3
    assert finish_times(rep)[0] == 11


def test_raw_stall_on_compute_chain():
    rep = simulate([[("compute", C_MAC), ("compute", C_MAC, 1, (0,))]])
    # result of op0 ready at 0+4; op1 stalls cycles 1..3
    assert rep.per_pe["raw_stall"][0] == 3
    assert rep.cycles == 5


def test_compute_batch_counts_every_issue():
    rep = simulate([[("compute", C_MAC, 16)]])
    assert rep.per_pe["instr_issued"][0] == 16
    assert rep.cycles == 16


def test_barrier_wfi():
    rep = simulate([[("compute", C_ALU, 5)], []], barrier=True)
    assert rep.cycles == 6
    assert rep.per_pe["wfi_stall"][1] == 5
    assert rep.per_pe["wfi_stall"][0] == 0
    # every other PE idles the whole run at the barrier
    assert rep.per_pe["wfi_stall"][2] == 5


@pytest.mark.parametrize("other_alus,release", [(0, 3), (5, 6)])
def test_dependence_across_barrier(other_alus, release):
    # phase a: PE 0 divides (result at 12), adds, reaches the barrier at 2;
    # PE 1 adds other_alus times first, so with 5 it arrives last (at 5).
    # phase b: PE 0 adds, waiting on the divide from phase a, whichever
    # PE released the barrier
    pb = PlanBuilder(DESK, "interleaved", 0, DESK.total_bytes)
    other = [("compute", C_ALU, other_alus)] if other_alus else []
    _emit_phase(pb, "a", [[("compute", C_DIV), ("compute", C_ALU)], other], True)
    _emit_phase(pb, "b", [[("compute", C_ALU, 1, (0,))]], False)
    rep = run_plan(pb.build("test", "", 1, {}))
    assert rep.phases[0].end == release
    assert rep.per_pe["raw_stall"][0] == 12 - release
    assert rep.cycles == 13


@pytest.mark.parametrize("pe", [0, 3])
def test_unresolvable_address_faults(pe):
    progs = [[("load", 0)] for _ in range(pe)] + [[("load", DESK.total_bytes + 4)]]
    with pytest.raises(SimulationFault, match=f"PE {pe}"):
        simulate(progs)


@pytest.mark.parametrize("n_before,method,args", [
    (3, "compute", (C_ALU, 0)),                 # count below 1
    (3, "compute", (C_ALU, 1, (0, 1, 2))),      # a third dependence
    (3, "load", (0, (3,))),                     # not an earlier op
    (3, "load", (0, (-1,))),
    (DEP_RING, "store", (0, (0,))),             # beyond the dependence ring
    (0, "extend", ([K_COMPUTE], [C_ALU], [1], [0], [5], [0])),     # before op 0
    (3, "extend", ([K_COMPUTE], [C_ALU], [1], [0], [-1], [0])),
    (DEP_RING + 1000, "extend", ([K_COMPUTE] * 2, [C_ALU] * 2, [1] * 2, [0] * 2,
                                 [0, 1], [1, 5000])),               # beyond the ring
])
def test_stream_rejects_bad_ops(n_before, method, args):
    s = PeStream()
    for _ in range(n_before):
        s.compute(C_ALU)
    with pytest.raises(ValueError):
        getattr(s, method)(*args)
    assert s.n == n_before


def test_store_consumes_bank_bandwidth():
    # PE0's store and PE1's load hit one bank the same cycle; the store
    # wins the FIFO slot and pushes the load's response out by a cycle
    progs = [[("store", bank_addr(0))],
             [("load", bank_addr(0)), ("compute", C_ALU, 1, (0,))]]
    rep = simulate(progs)
    assert finish_times(rep)[1] == 3
    alone = simulate([progs[1]])
    assert finish_times(alone)[0] == 2


def test_dma_roundtrip_and_wait():
    params = EngineParams(l2_latency=0)
    tr = build_transfer(DESK, [], 0, (0, 32), (0, 32))  # 8 words, one line
    assert tr.segments == [(0, 8)]
    rep = simulate([[("dma_start", 0), ("dma_wait", 0)]], params, transfers=[tr])
    # start at 0; backend busy [1, 3); wait issues at 3
    assert rep.cycles == 4
    assert rep.per_pe["wfi_stall"][0] == 2


def test_dma_wait_after_complete_is_free():
    params = EngineParams(l2_latency=0)
    tr = build_transfer(DESK, [], 0, (0, 16), (0, 16))
    prog = [("dma_start", 0), ("compute", C_ALU, 50), ("dma_wait", 0)]
    rep = simulate([prog], params, transfers=[tr])
    assert rep.per_pe["wfi_stall"][0] == 0


def test_transfer_leaving_its_region_is_rejected():
    heap = heap_init(0, DESK.total_bytes)
    base = das_malloc(heap, 256, das(4, 0))
    with pytest.raises(ValueError, match="not contained"):
        build_transfer(DESK, heap.das_regions(), 0, (0, 512), (base, base + 512))


@pytest.mark.parametrize("ids", [(0, 0), (0, 2), (1, 0)])
def test_transfer_ids_must_run_in_order(ids):
    transfers = [DmaTransfer(t, (0, 0), (0, 0), segments=[(0, 8)]) for t in ids]
    with pytest.raises(ValueError, match="transfer id"):
        simulate([[("dma_start", 0)]], transfers=transfers)


def test_dma_wait_unknown_id_faults():
    with pytest.raises(SimulationFault):
        simulate([[("dma_wait", 3)]])


@pytest.mark.parametrize("tid", [0, 3])
def test_dma_start_unknown_id_faults(tid):
    with pytest.raises(SimulationFault, match=f"unknown transfer {tid} \\(PE 0"):
        simulate([[("dma_start", tid)]])


@pytest.mark.parametrize("delay", [0, 5])
@pytest.mark.parametrize("waiter,starter", [(0, 1), (1, 0)])
def test_dma_wait_independent_of_pe_order(waiter, starter, delay):
    # the wait blocks until the other PE starts the transfer at `delay`;
    # the backend is then busy two cycles, whatever the PE ids
    params = EngineParams(l2_latency=0)
    tr = build_transfer(DESK, [], 0, (0, 32), (0, 32))
    progs = [[], []]
    progs[waiter] = [("dma_wait", 0)]
    progs[starter] = [("compute", C_ALU, delay)] * (delay > 0) + [("dma_start", 0)]
    rep = simulate(progs, params, transfers=[tr])
    assert rep.cycles == delay + 4
    assert rep.per_pe["wfi_stall"][waiter] == delay + 3
    assert finish_times(rep)[starter] == delay + 1


@pytest.mark.parametrize("barrier", [False, True])
def test_dma_wait_never_started_faults(barrier):
    tr = build_transfer(DESK, [], 0, (0, 32), (0, 32))
    progs = [[("compute", C_ALU, 3)], [("dma_wait", 0)]]
    with pytest.raises(SimulationFault, match=r"transfer 0, which no PE starts \(PE 1"):
        simulate(progs, barrier=barrier, transfers=[tr])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_dma_completion_matches_oracle(seed):
    # PE t starts transfer t at cycle delays[t]; the stepper's completion
    # of each transfer must match the Python backend model
    rng = np.random.default_rng(seed)
    params = EngineParams(dma_words_per_cycle=int(rng.integers(1, 9)),
                          l2_latency=int(rng.integers(30, 100)))
    n = int(rng.integers(1, 7))
    delays = [int(d) for d in rng.integers(1, 30, n)]
    transfers = [DmaTransfer(t, (0, 0), (0, 0), segments=[
        (int(rng.integers(0, DESK.n_subgroups)), int(rng.integers(1, 65)))
        for _ in range(int(rng.integers(0, 4)))]) for t in range(n)]
    # starts book in issue order, PE id breaking ties; backend work
    # begins l2_latency after the cycle that follows the issue
    state = DmaState(backend_next_free=[0] * DESK.n_subgroups)
    for t in sorted(range(n), key=lambda t: delays[t]):
        state = dma_advance(params, state, transfers[t], start_cycle=delays[t] + 1)
    for t in range(n):
        # only PE t waits; the others finish long before any transfer
        # does, so the run ends the cycle after transfer t completes
        progs = [[("compute", C_ALU, d), ("dma_start", u)]
                 + ([("dma_wait", u)] if u == t else [])
                 for u, d in enumerate(delays)]
        rep = simulate(progs, params, transfers=transfers)
        assert rep.cycles == state.completed[t] + 1


def test_zero_memory_programs_scheme_invariant():
    # with no memory ops the mapping cannot matter: equal cycle counts
    prog = [[("compute", C_MAC, 64)] for _ in range(DESK.n_pes)]
    a = simulate(prog, barrier=True)
    b = simulate(prog, barrier=True)
    assert a.cycles == b.cycles
    assert b.cycles / a.cycles == 1.0


def test_ins_stall_injection():
    params = EngineParams(ins_stall_prob=1.0, ins_seed=7)
    rep = simulate([[("compute", C_ALU)] * 5], params)
    assert rep.per_pe["ins_stall"][0] == 5
    assert rep.cycles == 10


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ins_stall_draws_without_overflow_warnings():
    params = EngineParams(ins_stall_prob=0.5, ins_seed=7)
    rep = simulate([[("compute", C_ALU)] * 40 for _ in range(4)], params)
    assert rep.per_pe["ins_stall"].sum() == 71


def _splitmix_hit(seed, pe, idx, prob):
    # reference draw in Python integers
    m = (1 << 64) - 1
    z = ((seed ^ (pe << 32) ^ idx) + 0x9E3779B97F4A7C15) & m
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m
    z ^= z >> 31
    return (z >> 11) < int(prob * (1 << 53))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ins_hit_matches_splitmix_reference():
    rng = np.random.default_rng(3)
    for _ in range(500):
        seed = int(rng.integers(1, 1 << 62))
        pe, idx = int(rng.integers(0, 1024)), int(rng.integers(0, 1 << 20))
        prob = float(rng.random())
        assert bool(_ins_hit(seed, pe, idx, prob)) == _splitmix_hit(seed, pe, idx, prob)


def test_ins_stall_requires_seed():
    with pytest.raises(ValueError):
        EngineParams(ins_stall_prob=0.5)


def _random_programs(rng, n_pe):
    progs = []
    for pe in range(n_pe):
        ops = []
        n = rng.integers(1, 30)
        for i in range(int(n)):
            r = rng.random()
            if r < 0.45:
                ops.append(("load", int(rng.integers(0, DESK.total_bytes // 4)) * 4))
            elif r < 0.6:
                ops.append(("store", int(rng.integers(0, DESK.total_bytes // 4)) * 4))
            else:
                dep = ()
                if ops and rng.random() < 0.5:
                    j = int(rng.integers(0, len(ops)))
                    if ops[j][0] in ("load", "compute"):
                        dep = (j,)
                ops.append(("compute", int(rng.integers(0, 3)),
                            int(rng.integers(1, 4)), dep))
        progs.append(ops)
    return progs


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), bar=st.booleans())
def test_conservation_and_determinism_random(seed, bar):
    rng = np.random.default_rng(seed)
    progs = _random_programs(rng, 8)
    a = simulate(progs, barrier=bar)
    b = simulate(progs, barrier=bar)
    a.check_conservation()
    assert a.to_json_str() == b.to_json_str()


def _pinned_run(seed, barriers, empty, ins_prob, n_dma):
    """``_random_programs`` phases with empty PEs, INS stalls and DMA added.

    One phase per entry of ``barriers``, which says whether it ends in a
    barrier. With one phase, PE ``t < n_dma`` ends by starting transfer
    ``t``, computing and waiting for it. With two, PE ``t`` starts
    transfer ``t`` at the end of the first phase and PE ``t + 1`` waits
    for it at the end of the second, whose first op on every PE depends
    on the last random op of that PE's first phase.
    """
    rng = np.random.default_rng(seed)
    phases = [_random_programs(rng, 8) for _ in barriers]
    for progs in phases:
        for pe in empty:
            progs[pe] = []
    transfers = []
    for t in range(n_dma):
        transfers.append(DmaTransfer(t, (0, 0), (0, 0), segments=[
            (int(rng.integers(0, DESK.n_subgroups)), int(rng.integers(1, 65)))
            for _ in range(int(rng.integers(1, 4)))]))
    params = EngineParams(ins_stall_prob=ins_prob, ins_seed=seed if ins_prob else 0)
    if len(barriers) == 1:
        (progs,) = phases
        for t in range(n_dma):
            progs[t] += [("dma_start", t), ("compute", C_ALU, 8), ("dma_wait", t)]
        return simulate(progs, params, barrier=barriers[0], transfers=transfers)
    first, second = phases
    last_first = [len(prog) - 1 for prog in first]
    for t in range(n_dma):
        first[t] += [("dma_start", t)]
        second[(t + 1) % 8] += [("dma_wait", t)]
    pb = PlanBuilder(DESK, "interleaved", 0, DESK.total_bytes)
    pb.transfers.extend(transfers)
    _emit_phase(pb, "a", first, barriers[0])
    for pe, prog in enumerate(second):
        shift = pb.streams[pe].n + 1
        dep = (last_first[pe],) if last_first[pe] >= 0 else ()
        second[pe] = [("compute", C_ALU, 1, dep)] + [
            op[:3] + (tuple(d + shift for d in op[3]),) if op[0] == "compute" else op
            for op in prog]
    _emit_phase(pb, "b", second, barriers[1])
    return run_plan(pb.build("test", "", 1, {}), params)


# (seed, per-phase barriers, empty PEs, ins_stall_prob, transfers, report
# SHA-256): pins the scheduling order across versions, which two runs of
# one version (test_conservation_and_determinism_random) cannot
PINNED = [
    (1, (False,), (), 0.0, 0,
     "fd1fabce1edaff9e8b4a094205567cd6a248c63b9c9125ef5654dd2eae98b2ae"),
    (2, (True,), (), 0.0, 0,
     "b732b94554a4524eced7b526cf6eaacbe1ac1d3fa42e1d5464138c4e63bd3102"),
    (3, (False,), (2, 5), 0.0, 0,
     "1ae2dd076f763756e5a5d972c2f1e97bf01260bef7b4166374908f1570f4c239"),
    (4, (True,), (0, 6), 0.25, 0,
     "a274203cc65c6c29174a504c7839139b3cd1665577cd7356ecb6f05bbf39a938"),
    (5, (False,), (), 0.5, 0,
     "78945a166f5de87eda6dc16d83da94dad96977d3e27f34919584309de4b9f3ee"),
    (6, (False,), (4,), 0.0, 3,
     "7fd6714838456b3b87df54c03510c3bb454dd9489c1a39566a5636292a4f0cdd"),
    (7, (True,), (1,), 0.2, 4,
     "e32090e51d3a56de892f13a8e48f88fdd9c82733f60e3087a7325001726fbb4f"),
    (8, (True, False), (), 0.0, 2,
     "5c5f7fcb2396250f8e06693f79ce21941ebd36986af4129dd862fa11f9aba18a"),
    (9, (True, False), (3,), 0.3, 3,
     "34ea5338d8504fe94b47de535a957c8070c1f58007966de3729e849b08ce54fc"),
]


@pytest.mark.parametrize("seed,barriers,empty,ins_prob,n_dma,digest", PINNED,
                         ids=[f"seed{c[0]}" for c in PINNED])
def test_random_programs_pinned(seed, barriers, empty, ins_prob, n_dma, digest):
    rep = _pinned_run(seed, barriers, empty, ins_prob, n_dma)
    assert hashlib.sha256(rep.to_json_str().encode()).hexdigest() == digest


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_monotone_contention(seed):
    # extra traffic from a new PE never speeds anyone else up
    rng = np.random.default_rng(seed)
    progs = _random_programs(rng, 6)
    base = finish_times(simulate(progs))
    extra = _random_programs(np.random.default_rng(seed + 1), 7)[-1]
    grown = finish_times(simulate(progs + [extra]))
    assert (grown[:6] >= base[:6]).all()


def test_latency_floor_under_contention():
    # no load completes faster than its contention-free level latency
    addr = bank_addr(4 * DESK.banks_per_tile)  # remote
    progs = [[("load", addr), ("compute", C_ALU, 1, (0,))] for _ in range(16)]
    rep = simulate(progs)
    done = finish_times(rep)[:16]
    assert (np.asarray(done) >= 7 + 1).all()
