import hashlib
import tracemalloc
from dataclasses import replace
from itertools import zip_longest
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dasim import (ClusterTopology, _stepper, das, desk_default, engine, interleaved,
                   terapool_default)
from dasim._stepper import (ACC_WIDTH, DEP_RING, K_COMPUTE, K_DMA_START, K_DMA_WAIT,
                            K_LOAD, K_STORE, TEMPLATE_COLS)
from dasim.engine import (ALLOC_COST, V1_PARAMS, DmaTransfer, EngineParams, Phase,
                          SimulationFault, build_transfer, make_chunk, run_packed)
from dasim.kernels import plan
from dasim.kernels.plan import (C_ALU, C_DIV, C_MAC, PlanBuilder, emit_copies,
                                run_plan)
from reference_dma import DmaState, dma_advance
import reference_stepper

DESK = desk_default()


def simulate(progs, params=None, barrier=False, transfers=(), topo=DESK,
             scheme="interleaved", regions=()):
    """Run one phase through PlanBuilder and run_plan (which checks conservation).

    ``progs[pe]`` lists PE ``pe``'s ops as PeStream calls ``(method, *args)``;
    PEs without a program stay empty. ``barrier`` ends the phase with a
    barrier on every PE. ``regions`` lists ``(size_bytes, folding)``
    allocations made at the start of the phase, on PE 0.
    """
    pb = PlanBuilder(topo, scheme)
    pb.transfers.extend(transfers)
    pb.begin_phase("run")
    for size, folding in regions:
        pb.alloc("buf", size, folding)
    _emit_ops(pb, progs)
    pb.end_phase(barrier)
    return run_plan(pb.build("test", "", 1, {}), params)


def _emit_ops(pb, progs):
    for stream, prog in zip(pb.streams, progs):
        for method, *args in prog:
            getattr(stream, method)(*args)


def _emit_phase(pb, name, progs, barrier):
    pb.begin_phase(name)
    _emit_ops(pb, progs)
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


@pytest.mark.parametrize("tile,lat", [(0, 1), (1, 3), (2, 5), (4, 7)])
def test_load_latency_levels(tile, lat):
    # lat is the level's default latency; every level, tile-local
    # included, takes its latency from the topology
    level = DESK.level_latency.index(lat)
    addr = bank_addr(tile * DESK.banks_per_tile)
    for lats in [DESK.level_latency, (4, 6, 8, 10), (2, 3, 5, 7)]:
        topo = replace(DESK, level_latency=lats)
        rep = simulate([[("load", addr), ("compute", C_ALU, 1, (0,))]], topo=topo)
        assert rep.cycles == lats[level] + 1
        assert rep.per_pe["lsu_stall"][0] == lats[level] - 1


def test_bank_serializes_eight_requesters():
    # 8 PEs of one tile hit the same bank the same cycle: completions
    # spread over 8 consecutive cycles (hand-stepped oracle, served in booking order)
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


# PE 0 loads from tile 4 (level 3, data back at 7), PE 1 issues two ALU ops
FAR_LOAD_BESIDE_A_BURST = [[("load", bank_addr(4 * DESK.banks_per_tile))],
                           [("compute", C_ALU, 2)]]


def _ledger(rep, key):
    return rep.per_pe[key][:3].tolist()


def test_barrier_drains_the_window_then_releases_every_pe():
    # each PE issues the barrier once its window drains: PE 0 at 7, after
    # 6 LSU cycles, PE 1 at 2 and PE 2 at 0; all go on at 8
    rep = simulate(FAR_LOAD_BESIDE_A_BURST, barrier=True)
    assert rep.cycles == 8
    assert _ledger(rep, "instr_issued") == [2, 3, 1]
    assert _ledger(rep, "lsu_stall") == [6, 0, 0]
    assert _ledger(rep, "wfi_stall") == [0, 5, 7]


def test_barrier_drains_a_load_left_outstanding_by_the_phase_before():
    # phase a has no barrier and ends at 2, PE 1's next free cycle, with
    # PE 0's load outstanding; phase b's barrier waits for it from 2 to 7
    pb = PlanBuilder(DESK, "interleaved")
    _emit_phase(pb, "a", FAR_LOAD_BESIDE_A_BURST, False)
    _emit_phase(pb, "b", [[], [("compute", C_ALU, 1)]], True)
    rep = run_plan(pb.build("test", "", 1, {}))
    assert [(p.start, p.end) for p in rep.phases] == [(0, 2), (2, 8)]
    assert _ledger(rep, "instr_issued") == [2, 4, 1]
    assert _ledger(rep, "lsu_stall") == [5, 0, 0]
    assert _ledger(rep, "wfi_stall") == [1, 4, 7]


def _hand_chunk(progs):
    """A chunk from per-PE op-kind lists, one template copied once per PE
    with ops, whose other columns are zero but compute counts, which are
    1: a compute op is one ALU issue. Every load and store is on bank 0.
    PEs past ``progs`` run one ALU issue."""
    kinds = [progs[pe] if pe < len(progs) else [K_COMPUTE] for pe in range(DESK.n_pes)]
    n_ops = np.array([len(ks) for ks in kinds], dtype=np.int64)
    n_mem = [sum(k <= K_STORE for k in ks) for ks in kinds]

    def template(ks):
        k = np.array(ks, dtype=np.uint8)
        return {"kind": k, "cls": np.zeros_like(k), "arg": np.ones(len(k), np.int32),
                **{c: np.zeros(len(k), np.uint16) for c in ("dep1", "dep2")}}

    one = np.zeros(1, dtype=np.int64)
    batches = [(np.array([pe]), one, template(ks), np.zeros(n_mem[pe], np.int64))
               for pe, ks in enumerate(kinds) if ks]
    return make_chunk(n_ops, batches, topo=DESK, n_copies=np.minimum(n_ops, 1),
                      n_mem=sum(n_mem))


def _set(name, i, value):
    def corrupt(chunk, dma):
        arrays = chunk.tpl if name in chunk.tpl else vars(chunk)
        arrays[name][i] = value
    return corrupt


def _replace(name, fn):
    def corrupt(chunk, dma):
        arrays = chunk.tpl if name in chunk.tpl else vars(chunk)
        arrays[name] = fn(arrays[name])
    return corrupt


def _empty_template(chunk, dma):
    # a template of no ops ahead of the others, copied by no PE
    chunk.tpl_ptr = np.concatenate(([0], chunk.tpl_ptr))
    chunk.copy_tpl += 1


def _extra_bank(chunk, dma):
    # a third bank for the two loads and stores of PE 0, the chunk's only ones
    chunk.bank = np.append(chunk.bank, np.uint16(0))


# one case per check run_packed makes before stepping: each would make
# the stepper index memory out of bounds, or read a wrong dependence
# ring slot (dep1, dep2). PE 0 loads, computes, stores and starts
# transfer 0, as template 0 of the chunk; every other PE copies a
# one-ALU template of its own. Each case holds its corruption and the
# error's whole message, as the checks word it
BAD_CHUNKS = {
    "dtype": (_replace("arg", lambda a: a.astype(np.int64)),
              "chunk array 'arg' must be a C-contiguous 1-D int32 array"),
    "contiguity": (_replace("dep1", lambda a: np.repeat(a, 2)[::2]),
                   "chunk array 'dep1' must be a C-contiguous 1-D uint16 array"),
    "template-length": (_replace("cls", lambda a: a[:-1].copy()),
                        "chunk array 'cls' has 66 entries, not 67"),
    "n_ops-dtype": (_replace("n_ops", lambda a: a.astype(np.int32)),
                    "chunk array 'n_ops' must be a C-contiguous 1-D int64 array"),
    "n_ops-long": (_set("n_ops", 0, 5),
                   "chunk array 'n_ops' disagrees with PE 0's copies"),
    "n_ops-rows": (_replace("n_ops", lambda a: a[:-1].copy()),
                   "chunk array 'n_ops' has 63 entries, not 64"),
    "rows": (_replace("copy_ptr", lambda a: a[:-1].copy()),
             "chunk array 'copy_ptr' has 64 entries, not 65"),
    "copy_ptr-start": (_replace("copy_ptr", lambda a: a + 1),
                       "chunk array 'copy_ptr' must start at 0, rise by at least 0 per entry "
                       "and end at 64"),
    "copy_tpl": (_set("copy_tpl", 1, DESK.n_pes),
                 "chunk array 'copy_tpl' names a template outside [0, 64)"),
    "tpl_ptr-end": (_set("tpl_ptr", -1, 10 ** 6),
                    "chunk array 'tpl_ptr' must start at 0, rise by at least 1 per entry "
                    "and end at 67"),
    "tpl_ptr-empty": (_empty_template,
                      "chunk array 'tpl_ptr' must start at 0, rise by at least 1 per entry "
                      "and end at 67"),
    "copy_bank-rows": (_replace("copy_bank", lambda a: a[1:].copy()),
                       "chunk array 'copy_bank' has 63 entries, not 64"),
    # PE 1's copy, which has no banks, and PE 0's, whose store reads past the end
    "bank-negative": (_set("copy_bank", 1, -1),
                      "chunk array 'copy_bank': copy 1 reads outside 'bank'"),
    "bank-past-end": (_set("copy_bank", 0, 1),
                      "chunk array 'copy_bank': copy 0 reads outside 'bank'"),
    "bank-unused": (_extra_bank,
                    "chunk array 'bank' holds 3 banks, not 2"),
    "bank-high": (_set("bank", 1, DESK.n_banks),
                  "chunk array 'bank': a bank outside [0, 256)"),
    "kind": (_set("kind", 1, 6),
             "chunk array 'kind': op kind above 4 (template 0, op 1)"),
    "kind-past-dma-wait": (_set("kind", 1, K_DMA_WAIT + 1),
                           "chunk array 'kind': op kind above 4 (template 0, op 1)"),
    "cls": (_set("cls", 1, 3),
            "chunk array 'cls': a class above 2 (template 0, op 1)"),
    "dep1": (_set("dep1", 2, DEP_RING),
             "chunk array 'dep1': a dependence 256 or more ops back (template 0, op 2)"),
    "dep2": (_set("dep2", 1, DEP_RING),
             "chunk array 'dep2': a dependence 256 or more ops back (template 0, op 1)"),
    "arg": (_set("arg", 1, 0),
            "chunk array 'arg': a compute count below 1 (template 0, op 1)"),
    "backend": (lambda c, d: d.append((DESK.n_subgroups, 4)),
                'DMA segment backend outside [0, 8)'),
    "words": (lambda c, d: d.append((0, 0)),
              'DMA segment words must be at least 1'),
}


def _run_bad_chunk(corrupt):
    chunk = _hand_chunk([[K_LOAD, K_COMPUTE, K_STORE, K_DMA_START]])
    chunk.tpl["arg"][3] = 0
    segments = [(1, 8)]
    corrupt(chunk, segments)
    tr = DmaTransfer((0, 0), (0, 0), segments=segments)
    return run_packed(DESK, EngineParams(), [Phase("a", [chunk])], [tr])


@pytest.mark.parametrize("case", BAD_CHUNKS)
def test_run_packed_rejects_chunks_the_stepper_cannot_take(case):
    corrupt, message = BAD_CHUNKS[case]
    assert _run_bad_chunk(lambda c, d: None).cycles == 4
    with pytest.raises(ValueError) as error:
        _run_bad_chunk(corrupt)
    assert str(error.value) == message


# the chunk arrays whose dtype BAD_CHUNKS leaves unchecked (it has arg's
# and n_ops'), each with the dtype the check asks for
CHUNK_ARRAYS = {"tpl_ptr": "int64", "copy_ptr": "int64", "copy_tpl": "int32",
                "copy_bank": "int64", "bank": "uint16", "kind": "uint8", "cls": "uint8",
                "dep1": "uint16", "dep2": "uint16"}


@pytest.mark.parametrize("name,dtype", CHUNK_ARRAYS.items(), ids=list(CHUNK_ARRAYS))
def test_run_packed_rejects_each_chunk_array_in_another_dtype(name, dtype):
    # every array keeps its values; only its dtype is a wider or a signed one
    other = {np.dtype(np.int64): np.int32, np.dtype(np.int32): np.int64,
             np.dtype(np.uint16): np.int32, np.dtype(np.uint8): np.int16}
    with pytest.raises(ValueError) as error:
        _run_bad_chunk(_replace(name, lambda a: a.astype(other[a.dtype])))
    assert str(error.value) == f"chunk array {name!r} must be a C-contiguous 1-D {dtype} array"


@pytest.mark.parametrize("other_alus,release", [(0, 3), (5, 6)])
def test_dependence_across_barrier(other_alus, release):
    # phase a: PE 0 divides (result at 12), adds, reaches the barrier at 2;
    # PE 1 adds other_alus times first, so with 5 it arrives last (at 5).
    # phase b: PE 0 adds, waiting on the divide from phase a, whichever
    # PE released the barrier
    pb = PlanBuilder(DESK, "interleaved")
    other = [("compute", C_ALU, other_alus)] if other_alus else []
    _emit_phase(pb, "a", [[("compute", C_DIV), ("compute", C_ALU)], other], True)
    _emit_phase(pb, "b", [[("compute", C_ALU, 1, (0,))]], False)
    rep = run_plan(pb.build("test", "", 1, {}))
    assert rep.phases[0].end == release
    assert rep.per_pe["raw_stall"][0] == 12 - release
    assert rep.cycles == 13


GOOD, BAD = ("load", 0), ("load", DESK.total_bytes + 4)


@pytest.mark.parametrize("progs,batch_ops,pe", [
    ([[BAD]], None, 0),
    ([[GOOD]] * 3 + [[BAD]], None, 3),
    # two ops per PE, two per batch: PE 5 is the sixth batch
    ([[GOOD, GOOD]] * 5 + [[GOOD, BAD]], 2, 5),
    # PEs 2 and 4 in one batch: the lower one is named, with its address
    ([[GOOD], [GOOD], [GOOD, BAD], [GOOD], [("load", DESK.total_bytes + 8)]], None, 2),
], ids=["0", "3", "later-batch", "two-in-one-batch"])
def test_unresolvable_address_faults(monkeypatch, progs, batch_ops, pe):
    if batch_ops:
        monkeypatch.setattr(plan, "BATCH_OPS", batch_ops)
    text = f"PE {pe}, phase 'run': address 0x{DESK.total_bytes + 4:x} outside L1"
    with pytest.raises(SimulationFault, match=f"^{text}$"):
        simulate(progs)


@pytest.mark.parametrize("n_before,method,args", [
    (3, "compute", (C_ALU, 0)),                 # count below 1
    (3, "compute", (C_ALU, 1, (0, 1, 2))),      # a third dependence
    (3, "load", (0, (3,))),                     # not an earlier op
    (3, "load", (0, (-1,))),
    (DEP_RING, "store", (0, (0,))),             # beyond the dependence ring
])
def test_stream_rejects_bad_ops(n_before, method, args):
    s = PlanBuilder(DESK, "interleaved").streams[1]
    for _ in range(n_before):
        s.compute(C_ALU)
    with pytest.raises(ValueError):
        getattr(s, method)(*args)
    assert s.n == n_before


def test_store_consumes_bank_bandwidth():
    # PE0's store and PE1's load hit one bank the same cycle; the store
    # is booked first and pushes the load's response out by a cycle
    progs = [[("store", bank_addr(0))],
             [("load", bank_addr(0)), ("compute", C_ALU, 1, (0,))]]
    rep = simulate(progs)
    assert finish_times(rep)[1] == 3
    alone = simulate([progs[1]])
    assert finish_times(alone)[0] == 2


def test_dma_roundtrip_and_wait():
    params = EngineParams(l2_latency=0)
    tr = build_transfer(DESK, [], (0, 32), (0, 32))  # 8 words, one line
    assert tr.segments == [(0, 8)]
    rep = simulate([[("dma_start", 0), ("dma_wait", 0)]], params, transfers=[tr])
    # start at 0; backend busy [1, 3); wait issues at 3
    assert rep.cycles == 4
    assert rep.per_pe["wfi_stall"][0] == 2


def test_dma_wait_after_complete_is_free():
    params = EngineParams(l2_latency=0)
    tr = build_transfer(DESK, [], (0, 16), (0, 16))
    prog = [("dma_start", 0), ("compute", C_ALU, 50), ("dma_wait", 0)]
    rep = simulate([prog], params, transfers=[tr])
    assert rep.per_pe["wfi_stall"][0] == 0


@pytest.mark.parametrize("regions,dst,segments", [
    ([], (0, 2048), [(b, 64) for b in range(8)]),
    # one das(6, 0) block covers the banks of two subgroups
    ([replace(das(6, 0), base_addr=0, size_bytes=256)], (0, 256), [(0, 32), (1, 32)]),
], ids=["interleaved", "group-folded"])
def test_dma_words_land_on_their_banks_backends(regions, dst, segments):
    tr = build_transfer(DESK, regions, dst, dst)
    assert tr.segments == segments


def test_interleaved_transfer_spreads_over_all_backends():
    # 64 words per backend take 16 cycles from cycle 1; the wait issues at 17
    params = EngineParams(l2_latency=0)
    tr = build_transfer(DESK, [], (0, 2048), (0, 2048))
    rep = simulate([[("dma_start", 0), ("dma_wait", 0)]], params, transfers=[tr])
    state = dma_advance(params, DmaState([0] * DESK.n_subgroups), 0, tr, start_cycle=1)
    assert rep.cycles == state.completed[0] + 1 == 18


def _builder_in_phase():
    pb = PlanBuilder(DESK, "das")
    pb.begin_phase("a")
    return pb


@pytest.mark.parametrize("dst", [(8, 0), (8, 8)], ids=["reversed", "empty"])
def test_empty_or_reversed_transfer_is_rejected(dst):
    with pytest.raises(ValueError, match="empty or reversed"):
        build_transfer(DESK, [], dst, dst)
    pb = _builder_in_phase()
    pb.alloc("buf", 4096, interleaved())
    with pytest.raises(ValueError, match="empty or reversed"):
        pb.transfer(dst, dst)
    assert pb.transfers == []


def test_transfer_leaving_its_region_is_rejected():
    pb = _builder_in_phase()
    buf = pb.alloc("buf", 256, das(4, 0))
    with pytest.raises(ValueError, match="not inside one live allocation"):
        pb.transfer((0, 512), (buf.base, buf.base + 512))


def test_transfer_entering_a_region_is_rejected():
    # dst starts in the interleaved region at 0 and runs into the DAS one
    pb = _builder_in_phase()
    pb.alloc("il", 1024, interleaved())
    assert pb.alloc("das", 4096, das(4, 2)).base == 1024
    with pytest.raises(ValueError, match="not inside one live allocation"):
        pb.transfer((0, 2048), (0, 2048))


@pytest.mark.parametrize("freed", [True, False], ids=["freed", "never-allocated"])
def test_transfer_outside_live_allocations_is_rejected(freed):
    pb = _builder_in_phase()
    buf = pb.alloc("buf", 4096, das(2, 2))
    if freed:
        pb.free(buf)
    dst = (0, 4096) if freed else (8192, 8192 + 1024)
    with pytest.raises(ValueError, match="not inside one live allocation"):
        pb.transfer(dst, dst)


@pytest.mark.parametrize("scheme", ["das", "interleaved"])
@pytest.mark.parametrize("folding,match", [
    (das(20, 0), "p=20 exceeds bank bits b=8"),
    (das(0, 9), "s=9 exceeds row bits r=8"),
], ids=["p", "s"])
def test_alloc_rejects_folding_too_large_for_topology(scheme, folding, match):
    pb = PlanBuilder(DESK, scheme)
    pb.begin_phase("a")
    with pytest.raises(ValueError, match=match):
        pb.alloc("buf", 64, folding)


@pytest.mark.parametrize("realloc", [False, True], ids=["free", "free-alloc"])
def test_free_after_an_access_in_the_open_phase_is_rejected(realloc):
    # PE 1 loads word 16 of a das(4, 1) region at 0: bank 0, level 0.
    # Resolved after a free it would land on bank 16 at level 1, or on
    # bank 4 once the bytes are re-allocated das(2, 2)
    pb = _builder_in_phase()
    buf = pb.alloc("buf", 4096, das(4, 1))
    pb.streams[1].load(buf.addr(0, 16))
    with pytest.raises(RuntimeError, match="'buf' in phase 'a' after PE 1"):
        pb.free(buf)
        if realloc:
            pb.alloc("buf", 4096, das(2, 2))
    pb.end_phase()
    (chunk,) = pb.phases[0].chunks
    assert (chunk.cols["bank"][1, 0], chunk.cols["level"][1, 0]) == (0, 0)


def test_free_names_the_lowest_pe_that_accessed_the_region():
    # PEs 6 and 3 store into buf from one call, listed out of PE order, and
    # PE 4 loads from it one op at a time. PE 1's load and PE 2's store
    # lie past it
    pb = _builder_in_phase()
    buf = pb.alloc("buf", 4096, das(4, 1))
    past = buf.addr(0, 1024)
    pb.streams[1].load(past)
    emit_copies(pb, [6, 3, 2, 6], {"kind": [K_COMPUTE, K_STORE], "cls": [C_ALU, 0],
                                   "arg": [1, 0], "dep1": [0, 1], "dep2": [0, 0]},
                [[buf.addr(0, 4)], [buf.addr(0, 8)], [past], [0]])
    pb.streams[4].load(buf.addr(0, 8))
    with pytest.raises(RuntimeError, match="'buf' in phase 'a' after PE 3 accessed it"):
        pb.free(buf)


@pytest.mark.parametrize("case", ["stale", "stale-twin", "foreign"])
def test_free_of_a_region_the_operand_does_not_own_is_rejected(case):
    # a's region at 0 is freed and its bytes go to b. Freeing a again
    # would drop b's region, and b's accesses would resolve interleaved.
    # The twin b equals a field by field; the foreign a is another
    # builder's operand at the same base
    pb = _builder_in_phase()
    a = pb.alloc("a", 4096, das(4, 1))
    pb.free(a)
    folding = das(4, 1) if case == "stale-twin" else das(2, 2)
    b = pb.alloc("a" if case == "stale-twin" else "b", 4096, folding)
    assert b.base == 0
    if case == "foreign":
        a = _builder_in_phase().alloc("c", 4096, das(4, 1))
    assert a.base == 0 and (a == b) == (case == "stale-twin")
    with pytest.raises(RuntimeError, match=f"free of '{a.name}': the region at 0x0 "
                       "is not its own"):
        pb.free(a)
    assert (pb.heap.regions[0].p, pb.heap.regions[0].s) == (folding.p, folding.s)
    pb.free(b)
    assert not pb.heap.regions


def _end_twice(pb):
    pb.end_phase()
    pb.end_phase()


def _alloc_between_phases(pb):
    pb.end_phase()
    pb.alloc("buf", 64, das(0, 0))


def _miscount(pb):
    pb.streams[0].load(0)
    pb.end_phase()
    pb.build("k", "", 1, {"loads": 2})


# each misuse of a PlanBuilder that is in phase "a", and what it raises
BUILDER_MISUSE = {
    "scheme": (lambda pb: PlanBuilder(DESK, "folded"), ValueError, "unknown scheme"),
    "begin-twice": (lambda pb: pb.begin_phase("b"), RuntimeError, "still open"),
    "end-twice": (_end_twice, RuntimeError, "no phase open"),
    "alloc-between-phases": (_alloc_between_phases, RuntimeError, "inside a phase"),
    "build-open": (lambda pb: pb.build("k", "", 1, {}), RuntimeError, "'a' left open"),
    "op-count": (_miscount, AssertionError, "loads=1 but the closed form says 2"),
}


@pytest.mark.parametrize("case", BUILDER_MISUSE)
def test_plan_builder_misuse_is_rejected(case):
    misuse, error, match = BUILDER_MISUSE[case]
    with pytest.raises(error, match=match):
        misuse(_builder_in_phase())


def test_freed_region_reallocated_with_new_folding():
    # a 4 KiB region at 0 folded das(4, 1) in phase a is freed and
    # re-allocated das(2, 2) in phase b, which streams into it by DMA
    pb = PlanBuilder(DESK, "das")
    words = (16, 40)
    pb.begin_phase("a")
    buf = pb.alloc("buf", 4096, das(4, 1))
    for w in words:
        pb.streams[0].load(buf.addr(0, w))
    pb.end_phase()
    pb.begin_phase("b")
    pb.free(buf)
    buf = pb.alloc("buf", 4096, das(2, 2))
    assert buf.base == 0
    tid = pb.transfer((0, 4096), (buf.base, buf.base + 4096))
    for w in words:
        pb.streams[0].load(buf.addr(0, w))
    pb.streams[0].dma_start(tid)
    pb.streams[0].dma_wait(tid)
    pb.end_phase(False)
    plan = pb.build("test", "", 1, {})
    # op 0 charges the allocation; word 16 sits on bank 0 under
    # das(4, 1) and bank 4 under das(2, 2), word 40 on bank 24 and bank 8
    (a,), (b,) = (ph.chunks for ph in plan.phases)
    assert a.cols["bank"][0, 1:3].tolist() == [0, 24]
    assert b.cols["bank"][0, 1:3].tolist() == [4, 8]
    # das(2, 2) puts 4 words on each of the 256 banks, so 128 words on
    # each subgroup's 32 banks
    (tr,) = plan.dma
    assert tr.segments == [(b, 128) for b in range(8)]
    rep = run_plan(plan)
    # phase b: the allocation's cycles and two loads, then the start
    # issues; backend work is booked from the cycle after
    issue = rep.phases[0].end + ALLOC_COST + 2
    state = dma_advance(EngineParams(), DmaState([0] * DESK.n_subgroups), tid, tr,
                        issue + 1)
    assert rep.cycles == state.completed[tid] + 1


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
    tr = build_transfer(DESK, [], (0, 32), (0, 32))
    progs = [[], []]
    progs[waiter] = [("dma_wait", 0)]
    progs[starter] = [("compute", C_ALU, delay)] * (delay > 0) + [("dma_start", 0)]
    rep = simulate(progs, params, transfers=[tr])
    assert rep.cycles == delay + 4
    assert rep.per_pe["wfi_stall"][waiter] == delay + 3
    assert finish_times(rep)[starter] == delay + 1


@pytest.mark.parametrize("barrier", [False, True])
def test_dma_wait_never_started_faults(barrier):
    tr = build_transfer(DESK, [], (0, 32), (0, 32))
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
    transfers = [DmaTransfer((0, 0), (0, 0), segments=[
        (int(rng.integers(0, DESK.n_subgroups)), int(rng.integers(1, 65)))
        for _ in range(int(rng.integers(0, 4)))]) for _ in range(n)]
    # starts book in issue order, PE id breaking ties; backend work
    # begins l2_latency after the cycle that follows the issue
    state = DmaState(backend_next_free=[0] * DESK.n_subgroups)
    for t in sorted(range(n), key=lambda t: delays[t]):
        state = dma_advance(params, state, t, transfers[t], start_cycle=delays[t] + 1)
    for t in range(n):
        # only PE t waits; the others finish long before any transfer
        # does, so the run ends the cycle after transfer t completes
        progs = [[("compute", C_ALU, d), ("dma_start", u)]
                 + ([("dma_wait", u)] if u == t else [])
                 for u, d in enumerate(delays)]
        rep = simulate(progs, params, transfers=transfers)
        assert rep.cycles == state.completed[t] + 1


def test_zero_memory_programs_scheme_invariant():
    # with no memory ops the mapping cannot matter, even with a folded
    # region allocated: equal cycles and per-PE ledgers under both schemes
    prog = [[("compute", C_MAC, 64)] for _ in range(DESK.n_pes)]
    a, b = (simulate(prog, barrier=True, scheme=s, regions=[(4096, das(4, 1))])
            for s in ("das", "interleaved"))
    assert a.cycles == b.cycles
    for key, col in a.per_pe.items():
        assert np.array_equal(col, b.per_pe[key]), key


def test_a_phase_without_a_barrier_fills_its_row():
    # a PE that ends before the phase does idles to the phase's end, in the
    # phase's row as in the per-PE totals
    rep = simulate([[("compute", C_ALU)] * 5, [("compute", C_ALU)]])
    (row,) = rep.phases
    assert (row.cycles, row.issued, row.lsu, row.raw) == (5, 6, 0, 0)
    assert row.wfi == 5 * DESK.n_pes - 6 == rep.per_pe["wfi_stall"].sum()


@pytest.mark.parametrize("barrier", [False, True])
def test_conservation_catches_a_ledger_that_loses_a_cycle(monkeypatch, barrier):
    # the idle fill starts at each PE's free cycle, so a stepper whose
    # ledger loses a cycle of PE 1's before it is a leak, not more idling
    step = engine.step_segment

    def lossy(chunk, acct, st, now):
        end, fault = step(chunk, acct, st, now)
        acct[1, _stepper.ACC_ISSUED] -= 1
        return end, fault

    monkeypatch.setattr(engine, "step_segment", lossy)
    with pytest.raises(AssertionError, match="leak on PE 1:"):
        simulate([[("compute", C_ALU, 3)], [("compute", C_ALU, 2)]], barrier=barrier)


def test_run_state_on_terapool_stays_small():
    # mostly the dependence rings, [n_pe, DEP_RING] int64 records (2 MiB);
    # an array of 4 MiB or more may be backed by huge pages, so its
    # resident size varies from run to run
    tracemalloc.start()
    try:
        engine._State(terapool_default(), EngineParams(), [])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 9 << 18   # 2.25 MiB


def test_run_state_arrays_cannot_be_rebound():
    # the C call's arguments hold the state arrays' addresses, built once per
    # run: an array bound anew would leave the stepper writing the old one
    st = engine._State(DESK, EngineParams(), [])
    abs_idx, args = st.abs_idx, st.c_args
    with pytest.raises(AttributeError, match="'win' is bound for the run"):
        st.win = np.zeros_like(st.win)
    with pytest.raises(AttributeError, match="'out_ports' is bound for the run"):
        st.out_ports = 2
    st.abs_idx += 1     # in place, as a barrier updates it
    assert st.abs_idx is abs_idx and st.c_args is args
    assert st.c_args[0] == abs_idx.ctypes.data


def _end_phase_by_axis_reductions(st, acct, start, end, barrier):
    """_stepper.end_phase in numpy, by reductions over the arrays' short
    axis, as run_packed applied a barrier before it was C: the reference
    it is compared with. It sums each PE's ledger row."""
    if barrier:
        arrive = np.maximum(st.t_free, st.win.max(axis=1))
        acct[:, _stepper.ACC_LSU] += arrive - st.t_free
        acct[:, _stepper.ACC_ISSUED] += 1
        st.ready[np.arange(len(arrive)), st.abs_idx & (DEP_RING - 1)] = (arrive + 1) << 1
        st.abs_idx += 1
        end = int(arrive.max()) + 1
    acct[:, _stepper.ACC_WFI] += end - start - acct.sum(axis=1)
    st.t_free[:] = end
    return end


@pytest.mark.parametrize("topo", [DESK, terapool_default()], ids=["64pe", "1024pe"])
@pytest.mark.parametrize("window", [1, 4, 8])
def test_end_phase_matches_axis_reductions(topo, window):
    # random states as a stepper leaves them: each PE's ledger row sums to
    # its free cycle less the phase start; window slots lie up to 40 cycles
    # ahead of or behind it, and some PEs stay free at the start
    rng = np.random.default_rng(window)
    names = ("t_free", "win", "ready", "abs_idx")
    for case in range(20):
        st = engine._State(topo, EngineParams(window=window), [])
        start = int(rng.integers(0, 1000))
        busy = rng.random((topo.n_pes, 1)) < 0.9
        acct = rng.integers(0, 50, (topo.n_pes, ACC_WIDTH)) * busy
        st.t_free[:] = start + acct.sum(axis=1)
        st.win[:] = np.maximum(0, st.t_free[:, None] + rng.integers(-40, 41, st.win.shape))
        st.ready[:] = rng.integers(0, 1 << 20, st.ready.shape)
        st.abs_idx[:] = rng.integers(0, 3 * DEP_RING, topo.n_pes)
        end, barrier = int(st.t_free.max()), bool(case % 2)
        want = SimpleNamespace(**{name: getattr(st, name).copy() for name in names})
        want_acct = acct.copy()
        want_end = _end_phase_by_axis_reductions(want, want_acct, start, end, barrier)
        assert _stepper.end_phase(acct, st, end, barrier) == want_end
        assert np.array_equal(acct, want_acct)
        for name in names:
            assert np.array_equal(getattr(st, name), getattr(want, name)), name


@pytest.mark.parametrize("knob,value", [
    ("lat_alu", 0), ("lat_mac", -3), ("lat_div", 0),
    ("dma_words_per_cycle", 0), ("dma_words_per_cycle", -1), ("l2_latency", -50),
    ("out_ports", 0), ("in_ports", 0), ("ins_stall_prob", -0.1),
    ("ins_stall_prob", 0.5), ("ins_seed", 7), ("alloc_cost", 1000),
])
def test_timing_knobs_rejected_out_of_range(knob, value):
    # each would simulate the wrong thing: a negative DMA rate or MAC
    # latency shortens the run, and a zero DMA rate divides by zero. The
    # allocation charge and the INS stall are not knobs: a report carries
    # them as schema-v1 constants
    with pytest.raises(TypeError if knob in V1_PARAMS else ValueError, match=knob):
        EngineParams(**{knob: value})


def _random_programs(rng, n_pe, topo=DESK):
    progs = []
    for pe in range(n_pe):
        ops = []
        n = rng.integers(1, 30)
        for i in range(int(n)):
            r = rng.random()
            if r < 0.45:
                ops.append(("load", int(rng.integers(0, topo.total_bytes // 4)) * 4))
            elif r < 0.6:
                ops.append(("store", int(rng.integers(0, topo.total_bytes // 4)) * 4))
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


def _pinned_run(seed, barriers, empty, n_dma):
    """``_random_programs`` phases with empty PEs and DMA added.

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
    for _ in range(n_dma):
        transfers.append(DmaTransfer((0, 0), (0, 0), segments=[
            (int(rng.integers(0, DESK.n_subgroups)), int(rng.integers(1, 65)))
            for _ in range(int(rng.integers(1, 4)))]))
    if len(barriers) == 1:
        (progs,) = phases
        for t in range(n_dma):
            progs[t] += [("dma_start", t), ("compute", C_ALU, 8), ("dma_wait", t)]
        return simulate(progs, barrier=barriers[0], transfers=transfers)
    first, second = phases
    last_first = [len(prog) - 1 for prog in first]
    for t in range(n_dma):
        first[t] += [("dma_start", t)]
        second[(t + 1) % 8] += [("dma_wait", t)]
    pb = PlanBuilder(DESK, "interleaved")
    pb.transfers.extend(transfers)
    _emit_phase(pb, "a", first, barriers[0])
    for pe, prog in enumerate(second):
        shift = pb.streams[pe].n + 1
        dep = (last_first[pe],) if last_first[pe] >= 0 else ()
        second[pe] = [("compute", C_ALU, 1, dep)] + [
            op[:3] + (tuple(d + shift for d in op[3]),) if op[0] == "compute" else op
            for op in prog]
    _emit_phase(pb, "b", second, barriers[1])
    return run_plan(pb.build("test", "", 1, {}))


# (seed, per-phase barriers, empty PEs, transfers, report SHA-256): pins the scheduling order across versions, which two runs of
# one version (test_conservation_and_determinism_random) cannot
PINNED = [
    (1, (False,), (), 0,
     "7a6b7b303fdcca0815c1ce1e0efe4cb073175d7bb3eea38654d4f865edd26ebf"),
    (2, (True,), (), 0,
     "b732b94554a4524eced7b526cf6eaacbe1ac1d3fa42e1d5464138c4e63bd3102"),
    (3, (False,), (2, 5), 0,
     "9bec649270fe7647460da4b2d46a4a52f89931a3c8f002eca98ebb4a1c42d956"),
    (4, (True,), (0, 6), 0,
     "0c09e04260bb1ea43195f4f3136c9e33abe2d1f8599208cbe8d4bb192ed15376"),
    (5, (False,), (), 0,
     "44ae7fec33c2eff22928879ecded10086298c5a88a54ff8f6a0d50d667cbde03"),
    (6, (False,), (4,), 3,
     "539b6614839e55451def81abdc7480359a8fb5af866c02e60cb83db920ee776f"),
    (7, (True,), (1,), 4,
     "fd97162f83bb723896ea25efe32d570fd14e0526682771b2aecfa7f57af1b7a6"),
    (8, (True, False), (), 2,
     "8e3181e3b3e299ac64be7c73f93205bd85b8d6ffeba386b8b02de3df623d400d"),
    (9, (True, False), (3,), 3,
     "ae655a12c669eb92f3fed744d644015ba65bb4049b348fdb4179b3bbc1404d9e"),
]


@pytest.mark.parametrize("seed,barriers,empty,n_dma,digest", PINNED,
                         ids=[f"seed{c[0]}" for c in PINNED])
def test_random_programs_pinned(seed, barriers, empty, n_dma, digest):
    rep = _pinned_run(seed, barriers, empty, n_dma)
    assert hashlib.sha256(rep.to_json_str().encode()).hexdigest() == digest


def _random_transfers(rng, topo, n):
    return [DmaTransfer((0, 0), (0, 0), segments=[
        (int(rng.integers(0, topo.n_subgroups)), int(rng.integers(1, 65)))
        for _ in range(int(rng.integers(1, 4)))]) for _ in range(n)]


def _plan_with_transfers(rng, topo, n_phases, transfers, starter, waiters, programs):
    """A plan of ``n_phases`` phases of ``programs(rng)`` on ``topo``.

    Each phase ends in a barrier or not, and a PE's first op in a phase
    after the first depends on the PE's last op before it. Transfer t is
    started by PE ``starter[t]`` at the end of a phase and waited for by
    the PEs in ``waiters[t]`` at the start of that phase or a later one,
    so a waiter often parks until the start.
    """
    start = [int(rng.integers(0, n_phases)) for _ in transfers]
    wait = [int(rng.integers(s, n_phases)) for s in start]
    pb = PlanBuilder(topo, "interleaved")
    pb.transfers.extend(transfers)
    for ph in range(n_phases):
        progs = programs(rng)
        pb.begin_phase(f"p{ph}")
        for pe, (stream, prog) in enumerate(zip(pb.streams, progs)):
            if stream.n:
                stream.compute(C_ALU, 1, (stream.n - 1,))
            for t in range(len(transfers)):
                if wait[t] == ph and pe in waiters[t]:
                    stream.dma_wait(t)
            shift = stream.n
            for method, *args in prog:
                if method == "compute":
                    args[2] = tuple(d + shift for d in args[2])
                getattr(stream, method)(*args)
            for t in range(len(transfers)):
                if start[t] == ph and starter[t] == pe:
                    stream.dma_start(t)
        pb.end_phase(bool(rng.integers(0, 2)))
    return pb.build("test", "", 1, {})


def _oracle_case(seed, ports):
    """A random plan and its params, for the C stepper against the oracle.

    One or two phases of ``_random_programs`` on 8 PEs of DESK, some of
    them empty, and up to three transfers (see ``_plan_with_transfers``):
    PE t starts transfer t and PE t + 1 waits for it. Window 1-5,
    ``ports`` out and in ports.
    """
    rng = np.random.default_rng(seed)
    params = EngineParams(window=int(rng.integers(1, 6)), out_ports=ports, in_ports=ports)
    n_phases, n_dma = int(rng.integers(1, 3)), int(rng.integers(0, 4))

    def programs(rng):
        progs = _random_programs(rng, 8)
        for pe in rng.choice(8, int(rng.integers(0, 3)), replace=False):
            progs[pe] = []
        return progs

    return _plan_with_transfers(rng, DESK, n_phases, _random_transfers(rng, DESK, n_dma),
                                range(n_dma), [{(t + 1) % 8} for t in range(n_dma)],
                                programs), params


def _outcome(run):
    try:
        return run().to_json_str()
    except SimulationFault as e:
        return f"fault: {e}"


def _first_difference(c, oracle):
    """The first line at which two outcomes differ, and both its texts."""
    lines = enumerate(zip_longest(c.splitlines(), oracle.splitlines(), fillvalue="<end>"), 1)
    n, (x, y) = next((n, xy) for n, xy in lines if xy[0] != xy[1])
    return f"line {n}: C stepper {x!r}, oracle {y!r}"


def _under_both_steppers(monkeypatch, run, what="run"):
    """``run()``'s report JSON or fault text with the C stepper, after
    failing unless the oracle's is the same. The failure names the first
    line that differs: pytest's own diff of two TeraPool reports, a few
    MB each, can take minutes."""
    c = _outcome(run)
    with monkeypatch.context() as m:
        m.setattr(engine, "step_segment", reference_stepper.step_segment)
        oracle = _outcome(run)
    if c != oracle:
        pytest.fail(f"{what}: the steppers differ at {_first_difference(c, oracle)}")
    return c


def test_a_stepper_mismatch_names_the_first_line_that_differs(monkeypatch):
    # an oracle that ends every phase a cycle late differs first at "cycles"
    step = reference_stepper.step_segment

    def late(chunk, acct, st, now):
        end, fault = step(chunk, acct, st, now)
        return end + 1, fault

    monkeypatch.setattr(reference_stepper, "step_segment", late)
    with pytest.raises(pytest.fail.Exception) as failure:
        _under_both_steppers(monkeypatch, lambda: simulate([[("compute", C_ALU, 2)]]))
    assert str(failure.value) == ("run: the steppers differ at line 4: "
                                  "C stepper ' \"cycles\": 2,', oracle ' \"cycles\": 3,'")


TERAPOOL = terapool_default()
# a load, a MAC burst on it and the store of its result
LOAD_MAC_STORE = {"kind": [K_LOAD, K_COMPUTE, K_STORE], "cls": [0, C_MAC, 0],
                  "arg": [0, 2, 0], "dep1": [0, 1, 1], "dep2": [0, 0, 0]}


def _terapool_case(seed, ports):
    """A two-phase DAS plan on all 1,024 PEs of TeraPool, and its params.

    Each phase gives every PE a load and an ALU op on it, then 0-3
    copies of LOAD_MAC_STORE, so PEs step from one copy to the next and
    from single ops into copies and back; then 64 PEs store once more.
    Words are drawn from all of L1 and from a region folded over each
    tile's banks, so accesses reach every hierarchy level. The first
    phase ends in a barrier, the second does not.
    """
    rng = np.random.default_rng(seed)
    t = TERAPOOL
    pb = PlanBuilder(t, "das")

    def addrs(shape):
        words = rng.integers(0, t.total_bytes // t.word_bytes, shape)
        folded = rng.integers(0, (64 << 10) // t.word_bytes, shape)
        return t.word_bytes * np.where(rng.random(shape) < 0.5, words, folded)

    for ph, barrier in enumerate((True, False)):
        pb.begin_phase(f"p{ph}")
        if ph == 0:
            pb.alloc("buf", 64 << 10, das(5, 1))
        for stream, addr in zip(pb.streams, addrs(t.n_pes).tolist()):
            stream.compute(C_ALU, 1, (stream.load(addr),))
        on = np.repeat(np.arange(t.n_pes), rng.integers(0, 4, t.n_pes))
        emit_copies(pb, on, LOAD_MAC_STORE, addrs((len(on), 2)))
        for pe, addr in zip(rng.choice(t.n_pes, 64, replace=False), addrs(64).tolist()):
            pb.streams[pe].store(addr)
        pb.end_phase(barrier)
    params = EngineParams(window=int(rng.integers(1, 6)), out_ports=ports, in_ports=ports)
    return pb.build("test", "", 1, {}), params


@pytest.mark.parametrize("ports", [1, 3])
def test_c_stepper_matches_oracle(monkeypatch, ports):
    for seed in range(150):
        plan, params = _oracle_case(seed, ports)
        _under_both_steppers(monkeypatch, lambda: run_plan(plan, params), f"seed {seed}")
    # the per-PE cursors and the derived levels at 1,024 PEs
    plan, params = _terapool_case(ports, ports)
    for phase in plan.phases:
        (chunk,) = phase.chunks
        kind, level = chunk.cols["kind"], chunk.cols["level"]
        live = np.arange(kind.shape[1]) < chunk.n_ops[:, None]
        assert set(level[live & (kind <= K_STORE)].tolist()) == {0, 1, 2, 3}
    _under_both_steppers(monkeypatch, lambda: run_plan(plan, params), "terapool")


_TR = build_transfer(DESK, [], (0, 32), (0, 32))
FAULT_CASES = {
    "restart": lambda: simulate([[("dma_start", 0), ("dma_start", 0)]], transfers=[_TR]),
    "unknown": lambda: simulate([[("compute", C_ALU, 2), ("dma_wait", 3)]]),
    "never-started": lambda: simulate([[("compute", C_ALU, 3)], [("dma_wait", 0)]],
                                      barrier=True, transfers=[_TR]),
}


@pytest.mark.parametrize("case", FAULT_CASES)
def test_c_stepper_faults_like_oracle(monkeypatch, case):
    assert _under_both_steppers(monkeypatch, FAULT_CASES[case]).startswith("fault: ")


# the stepper's queue holds one bitmap bit per PE: part of one 64-bit
# word, exactly one word and two words
QUEUE_TOPOS = {
    "8pe": ClusterTopology(pes_per_tile=1, banks_per_tile=4, tiles_per_subgroup=2,
                           subgroups_per_group=2, groups=2),
    "64pe": DESK,
    "128pe": replace(DESK, groups=8),
}


def _queue_edge_case(seed, topo):
    """A random plan on every PE of ``topo`` whose waits straddle the
    stepper's bucket horizon ``_stepper.QH``, and its params.

    One or two phases of ``_random_programs`` and one to three
    transfers, as in ``_plan_with_transfers``; each transfer is started
    by a random PE and waited for by up to four others, behind an L2
    latency of 100 cycles. About one compute op in five is a burst of
    QH - 1, QH, QH + 1, 3 * QH or 5 * QH + 3 issues. So PEs take one or
    several horizon visits before their cycle, and reach it in cycles
    that PEs queued there directly share, with lower ids and higher.
    Window 1-5, 1-3 ports.
    """
    qh = _stepper.QH
    rng = np.random.default_rng(seed)
    ports = int(rng.integers(1, 4))
    params = EngineParams(window=int(rng.integers(1, 6)), out_ports=ports, in_ports=ports,
                          l2_latency=100)
    n_phases, n_dma = int(rng.integers(1, 3)), int(rng.integers(1, 4))
    starter = rng.choice(topo.n_pes, n_dma, replace=False).tolist()
    waiters = [set(rng.choice(topo.n_pes, int(rng.integers(1, 5))).tolist()) - {starter[t]}
               for t in range(n_dma)]

    def programs(rng):
        progs = _random_programs(rng, topo.n_pes, topo)
        for prog in progs:
            for j, op in enumerate(prog):
                if op[0] == "compute" and rng.random() < 0.2:
                    burst = int(rng.choice([qh - 1, qh, qh + 1, 3 * qh, 5 * qh + 3]))
                    prog[j] = op[:2] + (burst, op[3])
        return progs

    return _plan_with_transfers(rng, topo, n_phases, _random_transfers(rng, topo, n_dma),
                                starter, waiters, programs), params


@pytest.mark.parametrize("topo", QUEUE_TOPOS.values(), ids=QUEUE_TOPOS)
def test_c_stepper_matches_oracle_at_queue_edges(monkeypatch, topo):
    for seed in range(12):
        plan, params = _queue_edge_case(seed, topo)
        _under_both_steppers(monkeypatch, lambda: run_plan(plan, params), f"seed {seed}")


def _waits(*bursts):
    """A program of loads, each after a burst of ALU issues: a PE whose
    load issues at t is queued for its next one at t + 1 + the burst."""
    return [op for i, n in enumerate(bursts)
            for op in (("compute", C_ALU, n), ("load", bank_addr(i % 4)))]


def _queue_waits(qh):
    """Hand programs, one per PE from PE 0 on, whose waits in the
    stepper's queue of ``qh`` buckets (one occupancy bit each, 64 to a
    word) are each of one kind:
    - occupancy-words: from a bucket in one word to one in a later word,
      past empty words, and to buckets at a word's edges
    - ring-wrap: from a bucket near the ring's end to one past its wrap,
      the first in another word and the second in the same word below it,
      and from the last bucket to the one just below it
    - horizon: QH cycles and more, so that PEs take horizon visits
    """
    return {"occupancy-words": [_waits(10, 52, 1), _waits(63), _waits(64, 60),
                                _waits(127, 128), _waits(200), _waits(300, 2)],
            "ring-wrap": [_waits(qh - 12, 100), _waits(40, qh - 12), _waits(qh - 1, qh - 2),
                          _waits(5)],
            "horizon": [_waits(qh + 5), _waits(3 * qh, 1), _waits(10, qh)]}


@pytest.mark.parametrize("case", _queue_waits(_stepper.QH))
def test_c_stepper_matches_oracle_on_queue_waits(monkeypatch, case):
    # every PE's loads hit four banks of tile 0, so they share bank and
    # port bookings with the PEs whose waits end in the same cycle
    progs = _queue_waits(_stepper.QH)[case]
    rep = simulate(progs)
    assert rep.cycles > max(sum(op[2] for op in prog if op[0] == "compute") for prog in progs)
    _under_both_steppers(monkeypatch, lambda: simulate(progs), case)


def test_far_pe_takes_its_id_turn_at_a_bank(monkeypatch):
    # PEs 0 and 2 reach cycle QH + 1 through the buckets (QH - 1 issues,
    # then 2 more), PE 1 after a horizon visit (QH + 1 issues from cycle 0);
    # there all three load bank 0 of their tile. The bank serves them in
    # PE id order, at QH + 1, QH + 2 and QH + 3, so each dependent ALU op
    # waits one cycle longer than the PE's before and retires a cycle later
    qh = _stepper.QH
    t = qh + 1
    near = [("compute", C_ALU, qh - 1), ("compute", C_ALU, 2), ("load", bank_addr(0)),
            ("compute", C_ALU, 1, (2,))]
    far = [("compute", C_ALU, t), ("load", bank_addr(0)), ("compute", C_ALU, 1, (1,))]
    rep = simulate([near, far, near])
    assert finish_times(rep)[:3].tolist() == [t + 2, t + 3, t + 4]
    assert rep.per_pe["lsu_stall"][:3].tolist() == [0, 1, 2]
    _under_both_steppers(monkeypatch, lambda: simulate([near, far, near]))


def _pe0_run(copies, order, dma=(), params=None):
    """The report of one barrier-ended phase on DESK whose only ops are
    PE 0's: ``copies`` lists its copies in stream order, each a
    (template, banks) pair, a template being a dict of TEMPLATE_COLS
    lists (absent columns zero) and banks its loads' and stores' banks.
    The chunk stores the copies' banks in ``order``, a permutation of
    their stream positions. A template is stored once, however many
    copies it has."""
    tpls, batches = {}, []
    for c in order:
        t, banks = copies[c]
        n = len(t["kind"])
        tpl = tpls.setdefault(id(t), {name: np.array(t.get(name, [0] * n), dtype)
                                      for name, dtype in TEMPLATE_COLS.items()})
        batches.append((np.array([0]), np.array([c]), tpl, np.array(banks, np.int64)))
    n_ops, n_copies = np.zeros((2, DESK.n_pes), dtype=np.int64)
    n_ops[0], n_copies[0] = sum(len(t["kind"]) for t, _ in copies), len(copies)
    chunk = make_chunk(n_ops, batches, topo=DESK, n_copies=n_copies,
                       n_mem=sum(len(banks) for _, banks in copies))
    return run_packed(DESK, params or EngineParams(), [Phase("run", [chunk], barrier=True)],
                      dma)


def _pe0_ledger(rep):
    return {k: int(rep.per_pe[k][0]) for k in ("instr_issued", "lsu_stall", "raw_stall",
                                                "wfi_stall")}


def test_a_stall_whose_load_and_compute_gates_tie_is_lsu(monkeypatch):
    # a level-3 load at 0 returns at 7 and a 3-issue MAC burst from 1 is
    # ready at 3 + 4 = 7, so the ALU op on both, free at 4, waits 3 cycles
    # for two gates that open together: LSU beats RAW on a tie
    progs = [[("load", bank_addr(4 * DESK.banks_per_tile)), ("compute", C_MAC, 3),
              ("compute", C_ALU, 1, (0, 1))]]
    rep = simulate(progs)
    assert rep.cycles == 8
    assert _pe0_ledger(rep) == {"instr_issued": 5, "lsu_stall": 3, "raw_stall": 0,
                                "wfi_stall": 0}
    _under_both_steppers(monkeypatch, lambda: simulate(progs))


# a DMA start, a 9-issue MAC burst and a wait on the transfer that also
# reads the burst's result
START_MAC_WAIT = {"kind": [K_DMA_START, K_COMPUTE, K_DMA_WAIT], "cls": [0, C_MAC, 0],
                  "arg": [0, 9, 0], "dep1": [0, 0, 1]}


def test_a_dma_wait_whose_compute_gate_opens_with_its_transfer_is_raw(monkeypatch):
    # the start at 0 books backend 0 from 0 + 1 + 10 for 8 words at 4 a
    # cycle, done at 13; the burst from 1 is ready at 9 + 4 = 13. So the
    # wait, free at 10, waits 3 cycles for both: RAW beats WFI on a tie.
    # The barrier is the 12th issue, at 14
    dma = [DmaTransfer((0, 0), (0, 0), segments=[(0, 8)])]
    params = EngineParams(l2_latency=10)

    def run():
        return _pe0_run([(START_MAC_WAIT, [])], [0], dma, params)

    rep = run()
    assert rep.cycles == 15
    assert _pe0_ledger(rep) == {"instr_issued": 12, "lsu_stall": 0, "raw_stall": 3,
                                "wfi_stall": 0}
    _under_both_steppers(monkeypatch, run)


# A loads, adds one to the word and stores it, so it ends in a store; B
# loads and starts a MAC on the word, so it ends in a compute burst
LOAD_ALU_STORE = {"kind": [K_LOAD, K_COMPUTE, K_STORE], "arg": [0, 1, 0], "dep1": [0, 1, 1]}
LOAD_MAC = {"kind": [K_LOAD, K_COMPUTE], "cls": [0, C_MAC], "arg": [0, 1], "dep1": [0, 1]}


def test_a_copy_switch_takes_the_next_copys_banks(monkeypatch):
    # PE 0 runs copies A, B, A, whose banks the chunk stores as B, A, A:
    # no copy's banks follow the copy before's. So the bank cursor must be
    # reloaded at the switch after A's store and at the one after B's MAC.
    # A's first copy stays on PE 0's tile (level 0, no stall); B loads from
    # tile 4 (level 3) at 3, back at 10, so the MAC waits 6 cycles; the
    # second A loads from tile 1 (level 1) at 11, back at 14, a 2-cycle
    # wait for the ALU op, and stores to tile 2 (level 2) at 15, done at 20.
    # The barrier waits for it from 16 and issues at 20
    bpt = DESK.banks_per_tile
    copies = [(LOAD_ALU_STORE, [1, 2]), (LOAD_MAC, [4 * bpt + 6]),
              (LOAD_ALU_STORE, [bpt + 1, 2 * bpt + 8])]

    def run():
        return _pe0_run(copies, [1, 0, 2])

    rep = run()
    assert rep.cycles == 21
    assert _pe0_ledger(rep) == {"instr_issued": 9, "lsu_stall": 12, "raw_stall": 0,
                                "wfi_stall": 0}
    _under_both_steppers(monkeypatch, run)


def test_c_stepper_matches_oracle_with_a_two_cycle_horizon(monkeypatch, tmp_path):
    # a stepper built with QH 2 sends nearly every wait through horizon visits
    monkeypatch.setattr(_stepper, "QH", 2)
    monkeypatch.setattr(_stepper, "_lib", _stepper._load(_stepper._build(str(tmp_path))))
    for ports in (1, 3):
        test_c_stepper_matches_oracle(monkeypatch, ports)
    for case in FAULT_CASES:
        test_c_stepper_faults_like_oracle(monkeypatch, case)
    for topo in QUEUE_TOPOS.values():
        test_c_stepper_matches_oracle_at_queue_edges(monkeypatch, topo)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_contention_never_beats_a_solo_run(seed):
    # traffic from other PEs never speeds a PE up past its run alone, with
    # six PEs or with a seventh added
    progs = _random_programs(np.random.default_rng(seed), 6)
    progs.append(_random_programs(np.random.default_rng(seed + 1), 7)[-1])
    solo = np.array([finish_times(simulate([[]] * pe + [progs[pe]]))[pe]
                     for pe in range(7)])
    base = finish_times(simulate(progs[:6]))
    grown = finish_times(simulate(progs))
    assert (base[:6] >= solo[:6]).all()
    assert (grown[:7] >= solo).all()


def test_contention_can_speed_another_pe_up():
    # greedy in-order issue is not monotone (Graham's list-scheduling
    # anomaly): PE 4's remote load books bank 0 for cycle 2, which delays
    # PE 0's load there by a cycle and so its load of bank 1 to cycle 5.
    # PE 1's load of bank 1 at cycle 4 then no longer waits behind it. So
    # added traffic can make another PE finish sooner, and only the solo
    # run bounds a PE's finish from below
    progs = [
        [("compute", C_ALU, 2), ("load", bank_addr(0)), ("compute", C_ALU, 1, (1,)),
         ("load", bank_addr(1))],
        [("compute", C_ALU, 4), ("load", bank_addr(1)), ("compute", C_ALU, 1, (1,))],
    ]
    extra = [[]] * (DESK.pes_per_tile - 2) + [[("load", bank_addr(0))]]
    assert finish_times(simulate(progs))[:2].tolist() == [5, 7]
    assert finish_times(simulate(progs + extra))[:2].tolist() == [6, 6]


def test_latency_floor_under_contention():
    # no load completes faster than its contention-free level latency
    addr = bank_addr(4 * DESK.banks_per_tile)  # remote
    progs = [[("load", addr), ("compute", C_ALU, 1, (0,))] for _ in range(16)]
    rep = simulate(progs)
    done = finish_times(rep)[:16]
    assert (np.asarray(done) >= 7 + 1).all()


def _step_one_phase(progs, level0=0):
    """Step ``progs`` as one phase on DESK by a direct step_segment call
    on a fresh run state whose level-0 port entries all read ``level0``;
    the state, the end cycle and the ledger."""
    pb = PlanBuilder(DESK, "interleaved")
    _emit_phase(pb, "run", progs, False)
    (phase,) = pb.build("test", "", 1, {}).phases
    (chunk,) = phase.chunks
    st = engine._State(DESK, EngineParams(), [])
    for ports in (st.out_next, st.in_next):
        ports.reshape(DESK.n_tiles, 4, -1)[:, 0] = level0
    acct = np.zeros((DESK.n_pes, ACC_WIDTH), dtype=np.int64)
    end, fault = engine.step_segment(chunk, acct, st, 0)
    assert fault is None
    return st, end, acct


def _level_progs(distances):
    """Per PE: a load from each tile at a tile-id distance (xor) in
    ``distances`` from its own, a MAC burst on the last two and a store
    of its result to the first such tile. A tile's PEs load the same
    banks, so requests queue at them."""
    bpt, progs = DESK.banks_per_tile, []
    for pe in range(DESK.n_pes):
        tile = pe // DESK.pes_per_tile
        loads = [("load", bank_addr((tile ^ d) * bpt + j, pe % 3))
                 for j, d in enumerate(distances)]
        n = len(loads)
        progs.append(loads + [("compute", C_MAC, 2, (n - 2, n - 1)),
                              ("store", bank_addr((tile ^ distances[0]) * bpt + pe % bpt, 5),
                               (n,))])
    return progs


def test_tile_local_accesses_book_no_port_above_level_0():
    # a tile-local access books its own tile's level-0 port entries, which
    # no access reads for its timing: the ports of levels 1-3 stay untouched,
    # and level-0 entries set far ahead change no cycle
    progs = _level_progs((0, 0, 0))
    st, end, acct = _step_one_phase(progs)
    for ports in (st.out_next, st.in_next):
        assert not ports.reshape(DESK.n_tiles, 4, -1)[:, 1:].any()
    _, end_far, acct_far = _step_one_phase(progs, level0=1 << 40)
    assert end_far == end
    assert np.array_equal(acct_far, acct)


def test_remote_accesses_book_the_ports_of_their_level():
    # tile-id distances 1, 2 and 4 on DESK are levels 1, 2 and 3
    st, _, _ = _step_one_phase(_level_progs((0, 1, 2, 4)))
    for ports in (st.out_next, st.in_next):
        assert ports.reshape(DESK.n_tiles, 4, -1)[:, 1:].any(axis=(0, 2)).all()
