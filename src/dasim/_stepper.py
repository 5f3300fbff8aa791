"""Cycle-stepped core of the simulator.

One function advances a whole barrier-delimited program segment, one
packed chunk of per-PE op columns, over shared bank/port/backend state.
It is written against plain numpy arrays so the same code runs either
JIT-compiled (numba, used for full-cluster runs) or as ordinary Python
(small runs, environments without numba).

PEs are taken from a priority queue in (t_free, pe) order, so a PE is
visited only at the cycle it can next act: it leaves the queue while it
waits at the barrier, after its last op and while it waits on a DMA
transfer nobody has started yet. Every PE the queue yields has t_free
equal to the current cycle, because a PE that stalls, issues or is woken
at a cycle is queued again at a later one. So the order is cycle by
cycle and, within a cycle, by PE id: the order of a scan over all PEs
per cycle. Shared-resource bookings therefore happen in chronological
order with PE id as the tie-break, which makes every run
bit-deterministic.
"""

import heapq

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(f):
            return f

        return wrap


# op kinds
K_LOAD = 0
K_STORE = 1
K_COMPUTE = 2
K_BARRIER = 3
K_DMA_START = 4
K_DMA_WAIT = 5

# PE states
ST_RUN = 0
ST_WAIT = 1         # at the barrier
ST_DONE = 2
ST_PARK = 3         # in a DMA wait on a transfer not yet started

# accounting columns
ACC_ISSUED = 0
ACC_LSU = 1
ACC_RAW = 2
ACC_INS = 3
ACC_WFI = 4

# stepper exit codes
STATUS_DONE = 0
STATUS_FAULT = 1

DEP_RING = 4096

# fault codes
FAULT_NONE = 0
FAULT_DMA_RESTART = 1
FAULT_DMA_UNKNOWN = 2
FAULT_BARRIER_NOT_LAST = 3
FAULT_DMA_NEVER_STARTED = 4


@njit(cache=True)
def _ins_hit(seed, pe, idx, prob):
    # splitmix64 of (seed, pe, idx) against the stall probability; on a
    # one-element array, because numpy scalars warn when they wrap
    z = np.empty(1, dtype=np.uint64)
    z[0] = np.uint64(seed) ^ (np.uint64(pe) << np.uint64(32)) ^ np.uint64(idx)
    z += np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z[0] >> np.uint64(11)) < np.uint64(prob * (1 << 53))


@njit(cache=True)
def _fault(clock, result, now, code, pe, detail):
    clock[0] = now
    result[0] = code
    result[1] = pe
    result[2] = detail
    return STATUS_FAULT


@njit(cache=True)
def step_segment(
    # per-op arrays of the segment, [n_pe, L] / [n_pe]
    op_kind, op_cls, op_lat, op_arg, op_bank, op_level, op_dep1, op_dep2, n_ops,
    # per-PE persistent state
    cursor, abs_idx, t_free, state,
    ready, ready_kind,            # dep rings [n_pe, DEP_RING]
    win,                          # outstanding-op slots [n_pe, window]
    acct,                         # [n_pe, 5]
    ins_done,                     # last abs idx charged an INS stall
    # shared memory-system state
    bank_next,                    # [n_banks]
    out_next, in_next,            # [n_tiles, 4, ports]
    # barrier state
    arrival, bar_count,
    # DMA state
    seg_backend, seg_words, tr_lo, tr_hi, transfer_done, backend_next,
    # parameters
    level_lat, class_lat, window, pes_per_tile, banks_per_tile,
    l2_lat, dma_wpc, ins_prob, ins_seed,
    has_barrier,
    # in/out scalars packed in arrays: clock[0]=now, out[0]=end/fault info
    clock, result,
):
    n_pe = n_ops.shape[0]
    mask = DEP_RING - 1
    out_ports = out_next.shape[2]
    in_ports = in_next.shape[2]
    # PEs that can act, keyed t_free * n_pe + pe; numpy ints are slower keys
    queue = [int(t_free[pe]) * n_pe + pe for pe in range(n_pe) if state[pe] == ST_RUN]
    heapq.heapify(queue)
    n_parked = 0
    now = clock[0]

    while queue:
        # the head stays in place until the PE is requeued or dropped
        now, pe = divmod(queue[0], n_pe)
        i = cursor[pe]
        if i >= n_ops[pe]:
            state[pe] = ST_DONE
            heapq.heappop(queue)
            continue
        k = op_kind[pe, i]
        ai = abs_idx[pe]

        # gates
        g_lsu = now
        g_raw = now
        g_wfi = now
        d = op_dep1[pe, i]
        for rep in range(2):
            if d > 0:
                j = (ai - d) & mask
                rt = ready[pe, j]
                if ready_kind[pe, j] == K_COMPUTE:
                    if rt > g_raw:
                        g_raw = rt
                else:
                    if rt > g_lsu:
                        g_lsu = rt
            d = op_dep2[pe, i]
        win_slot = 0
        if k == K_LOAD or k == K_STORE:
            # a free window slot: responses retire in any order
            m = win[pe, 0]
            for w in range(1, window):
                if win[pe, w] < m:
                    m = win[pe, w]
                    win_slot = w
            if m > g_lsu:
                g_lsu = m
        elif k == K_BARRIER:
            # memory must drain before synchronizing
            for w in range(window):
                if win[pe, w] > g_lsu:
                    g_lsu = win[pe, w]
        elif k == K_DMA_WAIT:
            tid = op_arg[pe, i]
            if tid < 0 or tid >= tr_lo.shape[0]:
                return _fault(clock, result, now, FAULT_DMA_UNKNOWN, pe, tid)
            if transfer_done[tid] < 0:
                # off the queue until some PE starts the transfer
                state[pe] = ST_PARK
                n_parked += 1
                heapq.heappop(queue)
                continue
            if transfer_done[tid] > g_wfi:
                g_wfi = transfer_done[tid]

        t_issue = g_lsu
        if g_raw > t_issue:
            t_issue = g_raw
        if g_wfi > t_issue:
            t_issue = g_wfi

        # one instruction-fetch stall cycle, decided per op
        extra_ins = 0
        if ins_prob > 0.0 and ins_done[pe] != ai:
            if _ins_hit(ins_seed, pe, ai, ins_prob):
                extra_ins = 1

        if t_issue + extra_ins > now:
            # cannot issue this cycle: attribute the whole wait to the
            # latest gate (LSU beats RAW beats WFI on ties) and jump
            stall = t_issue - now
            if stall > 0:
                if g_lsu == t_issue:
                    acct[pe, ACC_LSU] += stall
                elif g_raw == t_issue:
                    acct[pe, ACC_RAW] += stall
                else:
                    acct[pe, ACC_WFI] += stall
            if extra_ins:
                acct[pe, ACC_INS] += 1
                ins_done[pe] = ai
            t_free[pe] = t_issue + extra_ins
            heapq.heapreplace(queue, int(t_issue + extra_ins) * n_pe + pe)
            continue

        # ---- issue at t_issue (== now for booking correctness) ----
        t_next = t_issue + 1            # when the PE can act again
        t_ready = t_issue + 1           # when the op's result is ready
        n_issued = 1
        if k == K_LOAD or k == K_STORE:
            bank = op_bank[pe, i]
            lvl = op_level[pe, i]
            if lvl == 0:
                serve = t_issue
                if bank_next[bank] > serve:
                    serve = bank_next[bank]
            else:
                lat = level_lat[lvl]
                tile = pe // pes_per_tile
                # outbound port at the source tile for this level
                sp = 0
                for q in range(1, out_ports):
                    if out_next[tile, lvl, q] < out_next[tile, lvl, sp]:
                        sp = q
                t_out = t_issue
                if out_next[tile, lvl, sp] > t_out:
                    t_out = out_next[tile, lvl, sp]
                out_next[tile, lvl, sp] = t_out + 1
                # inbound port at the destination tile
                dtile = bank // banks_per_tile
                t_arr = t_out + lat - 2
                sp = 0
                for q in range(1, in_ports):
                    if in_next[dtile, lvl, q] < in_next[dtile, lvl, sp]:
                        sp = q
                t_in = t_arr
                if in_next[dtile, lvl, sp] > t_in:
                    t_in = in_next[dtile, lvl, sp]
                in_next[dtile, lvl, sp] = t_in + 1
                serve = t_in + 1
                if bank_next[bank] > serve:
                    serve = bank_next[bank]
            bank_next[bank] = serve + 1
            t_ready = serve + 1
            win[pe, win_slot] = t_ready
        elif k == K_COMPUTE:
            n_issued = op_arg[pe, i]
            lat = op_lat[pe, i]
            if lat < 0:
                lat = class_lat[op_cls[pe, i]]
            t_next = t_issue + n_issued
            t_ready = t_next - 1 + lat
        elif k == K_BARRIER:
            if i != n_ops[pe] - 1 or not has_barrier:
                return _fault(clock, result, now, FAULT_BARRIER_NOT_LAST, pe, i)
            arrival[pe] = t_issue
            state[pe] = ST_WAIT
            bar_count[0] += 1
        elif k == K_DMA_START:
            tid = op_arg[pe, i]
            if tid < 0 or tid >= tr_lo.shape[0]:
                return _fault(clock, result, now, FAULT_DMA_UNKNOWN, pe, tid)
            if transfer_done[tid] >= 0:
                return _fault(clock, result, now, FAULT_DMA_RESTART, pe, tid)
            base_t = t_issue + 1 + l2_lat
            t_done = base_t
            for sg in range(tr_lo[tid], tr_hi[tid]):
                b = seg_backend[sg]
                st = backend_next[b]
                if st < base_t:
                    st = base_t
                dur = (seg_words[sg] + dma_wpc - 1) // dma_wpc
                backend_next[b] = st + dur
                if st + dur > t_done:
                    t_done = st + dur
            transfer_done[tid] = t_done
            if n_parked > 0:
                # waiters resume next cycle; their parked cycles are WFI
                for q in range(n_pe):
                    if state[q] == ST_PARK and op_arg[q, cursor[q]] == tid:
                        state[q] = ST_RUN
                        n_parked -= 1
                        acct[q, ACC_WFI] += now + 1 - t_free[q]
                        t_free[q] = now + 1
                        heapq.heappush(queue, (now + 1) * n_pe + q)

        # shared by every kind; a DMA wait with its gate met needs only this
        ready[pe, ai & mask] = t_ready
        ready_kind[pe, ai & mask] = k
        acct[pe, ACC_ISSUED] += n_issued
        if k != K_BARRIER:
            heapq.heapreplace(queue, int(t_next) * n_pe + pe)
        elif bar_count[0] < n_pe:
            heapq.heappop(queue)  # waits off the queue for the release
        else:
            release = 0
            for q in range(n_pe):
                if arrival[q] > release:
                    release = arrival[q]
            release += 1
            for q in range(n_pe):
                acct[q, ACC_WFI] += release - arrival[q] - 1
                t_free[q] = release
                state[q] = ST_DONE
            clock[0] = release
            result[0] = FAULT_NONE
            return STATUS_DONE
        cursor[pe] = i + 1
        abs_idx[pe] = ai + 1
        t_free[pe] = t_next

    if n_parked > 0:
        for q in range(n_pe):
            if state[q] == ST_PARK:
                return _fault(clock, result, now, FAULT_DMA_NEVER_STARTED,
                              q, op_arg[q, cursor[q]])
    # segment without a terminating barrier: PEs end independently
    clock[0] = now
    result[0] = FAULT_NONE
    return STATUS_DONE
