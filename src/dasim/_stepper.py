"""Cycle-stepped core of the simulator, in plain Python.

One function advances a whole barrier-delimited program segment, one
packed chunk of per-PE op columns, over shared bank/port/backend state.
Its loop body runs once per issued op or stall and reads and writes only
Python ints, because each index into a numpy array makes a numpy scalar,
and arithmetic on those is several times slower.

- The large arrays stay numpy and arrive as memoryviews, which index
  like ``a[pe, i]``, return Python ints and copy nothing: the seven
  packed op columns [n_pe, L] and the two dependence rings
  [n_pe, DEP_RING]. Turning them into lists costs memory: flat list
  rings raised the benchmark's peak RSS from 115.0 to 158.6 MiB on
  1024-PE gemm 64^3 (83.2 to 121.7 MiB on gemv 256^2), and per-PE op
  rows as lists raised it from 46.5 to 58.9 MiB on the 64-PE gemm.
- Small per-PE and per-resource state is Python lists, indexed by PE,
  bank, port or transfer.

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

from heapq import heapify, heappop, heappush, heapreplace

# there is no compiled stepper; the benchmark records the backend from this
HAVE_NUMBA = False


# op kinds
K_LOAD = 0
K_STORE = 1
K_COMPUTE = 2
K_BARRIER = 3
K_DMA_START = 4
K_DMA_WAIT = 5

# accounting columns
ACC_ISSUED = 0
ACC_LSU = 1
ACC_RAW = 2
ACC_INS = 3
ACC_WFI = 4

DEP_RING = 4096

# fault codes
FAULT_DMA_RESTART = 1
FAULT_DMA_UNKNOWN = 2
FAULT_BARRIER_NOT_LAST = 3
FAULT_DMA_NEVER_STARTED = 4

_M64 = (1 << 64) - 1


def _ins_hit(seed, pe, idx, prob):
    # splitmix64 of (seed, pe, idx) against the stall probability
    z = ((seed ^ (pe << 32) ^ idx) + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    z ^= z >> 31
    return (z >> 11) < int(prob * (1 << 53))


def step_segment(
    # per-op columns of the segment, memoryviews [n_pe, L]; ops per PE
    op_kind, op_cls, op_arg, op_bank, op_level, op_dep1, op_dep2, n_ops,
    # per-PE state
    abs_idx, t_free,
    ready, ready_kind,            # dep rings, memoryviews [n_pe, DEP_RING]
    win,                          # per PE, a list of outstanding-op slots
    acct,                         # per PE, a list of the five ACC_* columns
    ins_done,                     # last abs idx charged an INS stall
    # shared memory-system state
    bank_next,                    # [n_banks]
    out_next, in_next,            # [(tile * 4 + level) * ports + port]
    # DMA: per transfer id, its (backend, words) segments; then its
    # completion cycle (-1 until started) and each backend's next free cycle
    segments, transfer_done, backend_next,
    # parameters
    level_lat, class_lat, out_ports, in_ports, pes_per_tile, banks_per_tile,
    l2_lat, dma_wpc, ins_prob, ins_seed,
    has_barrier, now,
):
    """Advance one segment from cycle ``now``.

    Returns ``(now, None)`` with the cycle the segment ended, or the
    cycle of a fault and ``(FAULT_*, pe, detail)``.
    """
    n_pe = len(n_ops)
    n_transfers = len(segments)
    mask = DEP_RING - 1
    # PEs that can act, keyed t_free * n_pe + pe
    queue = [t_free[pe] * n_pe + pe for pe in range(n_pe)]
    heapify(queue)
    cursor = [0] * n_pe
    arrival = [0] * n_pe
    n_arrived = 0
    parked = {}     # pe: transfer it waits on, which no PE has started yet

    while queue:
        # the head stays in place until the PE is requeued or dropped
        now, pe = divmod(queue[0], n_pe)
        i = cursor[pe]
        if i >= n_ops[pe]:
            heappop(queue)
            continue
        k = op_kind[pe, i]
        ai = abs_idx[pe]

        # gates
        g_lsu = g_raw = g_wfi = now
        for d in (op_dep1[pe, i], op_dep2[pe, i]):
            if d:
                j = (ai - d) & mask
                rt = ready[pe, j]
                if ready_kind[pe, j] == K_COMPUTE:
                    if rt > g_raw:
                        g_raw = rt
                elif rt > g_lsu:
                    g_lsu = rt
        slots = win[pe]
        if k == K_LOAD or k == K_STORE:
            # a free window slot: responses retire in any order
            m = min(slots)
            if m > g_lsu:
                g_lsu = m
        elif k == K_BARRIER:
            # memory must drain before synchronizing
            m = max(slots)
            if m > g_lsu:
                g_lsu = m
        elif k == K_DMA_WAIT:
            tid = op_arg[pe, i]
            if tid < 0 or tid >= n_transfers:
                return now, (FAULT_DMA_UNKNOWN, pe, tid)
            t_done = transfer_done[tid]
            if t_done < 0:
                # off the queue until some PE starts the transfer
                parked[pe] = tid
                heappop(queue)
                continue
            if t_done > g_wfi:
                g_wfi = t_done

        t_issue = g_lsu
        if g_raw > t_issue:
            t_issue = g_raw
        if g_wfi > t_issue:
            t_issue = g_wfi

        # one instruction-fetch stall cycle, decided per op
        extra_ins = 0
        if ins_prob > 0.0 and ins_done[pe] != ai and _ins_hit(ins_seed, pe, ai, ins_prob):
            extra_ins = 1

        if t_issue + extra_ins > now:
            # cannot issue this cycle: attribute the whole wait to the
            # latest gate (LSU beats RAW beats WFI on ties) and jump
            stall = t_issue - now
            a = acct[pe]
            if stall > 0:
                if g_lsu == t_issue:
                    a[ACC_LSU] += stall
                elif g_raw == t_issue:
                    a[ACC_RAW] += stall
                else:
                    a[ACC_WFI] += stall
            if extra_ins:
                a[ACC_INS] += 1
                ins_done[pe] = ai
            t_free[pe] = t_issue + extra_ins
            heapreplace(queue, (t_issue + extra_ins) * n_pe + pe)
            continue

        # ---- issue at now ----
        t_next = now + 1                # when the PE can act again
        t_ready = now + 1               # when the op's result is ready
        n_issued = 1
        if k == K_LOAD or k == K_STORE:
            bank = op_bank[pe, i]
            lvl = op_level[pe, i]
            serve = now
            if lvl:
                # outbound port at the source tile for this level
                sp = (pe // pes_per_tile * 4 + lvl) * out_ports
                for q in range(sp + 1, sp + out_ports):
                    if out_next[q] < out_next[sp]:
                        sp = q
                t_out = now
                if out_next[sp] > t_out:
                    t_out = out_next[sp]
                out_next[sp] = t_out + 1
                # inbound port at the destination tile
                sp = (bank // banks_per_tile * 4 + lvl) * in_ports
                for q in range(sp + 1, sp + in_ports):
                    if in_next[q] < in_next[sp]:
                        sp = q
                t_in = t_out + level_lat[lvl] - 2
                if in_next[sp] > t_in:
                    t_in = in_next[sp]
                in_next[sp] = t_in + 1
                serve = t_in + 1
            if bank_next[bank] > serve:
                serve = bank_next[bank]
            bank_next[bank] = serve + 1
            t_ready = serve + 1
            slots[slots.index(m)] = t_ready
        elif k == K_COMPUTE:
            n_issued = op_arg[pe, i]
            t_next = now + n_issued
            t_ready = t_next - 1 + class_lat[op_cls[pe, i]]
        elif k == K_BARRIER:
            if i != n_ops[pe] - 1 or not has_barrier:
                return now, (FAULT_BARRIER_NOT_LAST, pe, i)
            arrival[pe] = now
            n_arrived += 1
        elif k == K_DMA_START:
            tid = op_arg[pe, i]
            if tid < 0 or tid >= n_transfers:
                return now, (FAULT_DMA_UNKNOWN, pe, tid)
            if transfer_done[tid] >= 0:
                return now, (FAULT_DMA_RESTART, pe, tid)
            base_t = now + 1 + l2_lat
            t_done = base_t
            for b, words in segments[tid]:
                end = backend_next[b]
                if end < base_t:
                    end = base_t
                end += (words + dma_wpc - 1) // dma_wpc
                backend_next[b] = end
                if end > t_done:
                    t_done = end
            transfer_done[tid] = t_done
            # waiters resume next cycle; their parked cycles are WFI
            for q in [q for q, t in parked.items() if t == tid]:
                del parked[q]
                acct[q][ACC_WFI] += now + 1 - t_free[q]
                t_free[q] = now + 1
                heappush(queue, (now + 1) * n_pe + q)

        # shared by every kind; a DMA wait with its gate met needs only this
        ready[pe, ai & mask] = t_ready
        ready_kind[pe, ai & mask] = k
        acct[pe][ACC_ISSUED] += n_issued
        cursor[pe] = i + 1
        abs_idx[pe] = ai + 1
        t_free[pe] = t_next
        if k != K_BARRIER:
            heapreplace(queue, t_next * n_pe + pe)
        elif n_arrived < n_pe:
            heappop(queue)  # waits off the queue for the release
        else:
            release = max(arrival) + 1
            for q in range(n_pe):
                acct[q][ACC_WFI] += release - arrival[q] - 1
                t_free[q] = release
            return release, None

    if parked:
        q = min(parked)
        return now, (FAULT_DMA_NEVER_STARTED, q, parked[q])
    # segment without a terminating barrier: PEs end independently
    return now, None
