"""Python stepper, the oracle for the C one in ``dasim._stepper``.

This is the pure-Python ``step_segment`` the C file was ported from, op
for op. It reads a chunk through its flat view, ``PackedChunk.cols``:
per PE a row of ops, with each access's bank and its level from
``topology.access_levels``, where the C stepper walks the templates and
derives the level itself.
``step_segment`` here takes the C stepper's arguments, a chunk, its
ledger, the run's engine._State and the start cycle, so a test swaps
it in with ``monkeypatch.setattr(engine, "step_segment",
step_segment)`` and runs ``engine.run_packed`` unchanged under both.
Its loop body reads and writes Python ints only: numpy arrays are read
as memoryviews, which index like ``a[pe, i]`` without making numpy
scalars, and the window slots and ledger as lists written back at the
end.
"""

from heapq import heapify, heappop, heappush, heapreplace

from dasim._stepper import (ACC_ISSUED, ACC_LSU, ACC_RAW, ACC_WFI, DEP_RING,
                            FAULT_DMA_NEVER_STARTED, FAULT_DMA_RESTART,
                            FAULT_DMA_UNKNOWN, K_COMPUTE, K_DMA_START, K_DMA_WAIT,
                            K_LOAD, K_STORE)
from dasim.engine import FLAT_COLS

def step_segment(chunk, acct, st, now):
    """``dasim._stepper.step_segment``'s contract, stepped in Python."""
    slots, ledger = st.win.tolist(), acct.tolist()
    result = _step(chunk, slots, ledger, st, now)
    st.win[:] = slots
    acct[:] = ledger
    return result


def _step(chunk, win, acct, st, now):
    """Advance one phase's ops from cycle ``now``; ``win`` and ``acct``
    are the window slots and ledger as one list per PE."""
    mv = memoryview
    # per-op columns of the segment's flat view, memoryviews [n_pe, L]; ops per PE
    op_kind, op_cls, op_arg, op_bank, op_level, op_dep1, op_dep2 = (
        mv(chunk.cols[c]) for c in FLAT_COLS)
    n_ops = chunk.n_ops.tolist()
    # per-PE state, memoryviews: the ready rings are [n_pe, DEP_RING]
    abs_idx, t_free = mv(st.abs_idx), mv(st.t_free)
    ready = mv(st.ready)
    # shared memory-system state: [n_banks], [(tile * 4 + level) * ports + port]
    bank_next, out_next, in_next = mv(st.bank_next), mv(st.out_next), mv(st.in_next)
    # DMA: per transfer id, its (backend, words) segments and completion
    # cycle (-1 until started); each backend's next free cycle
    ptr = st.seg_ptr.tolist()
    pairs = list(zip(st.seg_backend.tolist(), st.seg_words.tolist()))
    segments = [pairs[a:b] for a, b in zip(ptr, ptr[1:])]
    transfer_done, backend_next = mv(st.transfer_done), mv(st.backend_next)
    # parameters
    level_lat, class_lat = st.level_lat.tolist(), st.class_lat.tolist()
    out_ports, in_ports = st.out_ports, st.in_ports
    pes_per_tile, banks_per_tile = st.pes_per_tile, st.banks_per_tile
    l2_lat, dma_wpc = st.l2_lat, st.dma_wpc

    n_pe = len(n_ops)
    n_transfers = len(segments)
    mask = DEP_RING - 1
    local_wait = level_lat[0] - 1   # a tile-local request's cycles before the bank
    # PEs that can act, keyed t_free * n_pe + pe
    queue = [t_free[pe] * n_pe + pe for pe in range(n_pe)]
    heapify(queue)
    cursor = [0] * n_pe
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
                r = ready[pe, (ai - d) & mask]
                rt = r >> 1
                if r & 1:
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

        if t_issue > now:
            # cannot issue this cycle: attribute the whole wait to the
            # latest gate (LSU beats RAW beats WFI on ties) and jump
            stall = t_issue - now
            a = acct[pe]
            if g_lsu == t_issue:
                a[ACC_LSU] += stall
            elif g_raw == t_issue:
                a[ACC_RAW] += stall
            else:
                a[ACC_WFI] += stall
            t_free[pe] = t_issue
            heapreplace(queue, t_issue * n_pe + pe)
            continue

        # ---- issue at now ----
        t_next = now + 1                # when the PE can act again
        t_ready = now + 1               # when the op's result is ready
        n_issued = 1
        if k == K_LOAD or k == K_STORE:
            bank = op_bank[pe, i]
            lvl = op_level[pe, i]
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
            else:
                serve = now + local_wait
            if bank_next[bank] > serve:
                serve = bank_next[bank]
            bank_next[bank] = serve + 1
            t_ready = serve + 1
            slots[slots.index(m)] = t_ready
        elif k == K_COMPUTE:
            n_issued = op_arg[pe, i]
            t_next = now + n_issued
            t_ready = t_next - 1 + class_lat[op_cls[pe, i]]
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
        ready[pe, ai & mask] = t_ready << 1 | (k == K_COMPUTE)
        acct[pe][ACC_ISSUED] += n_issued
        cursor[pe] = i + 1
        abs_idx[pe] = ai + 1
        t_free[pe] = t_next
        heapreplace(queue, t_next * n_pe + pe)

    if parked:
        q = min(parked)
        return now, (FAULT_DMA_NEVER_STARTED, q, parked[q])
    # PEs end independently, and the last one popped from the queue
    # finishes last
    return now, None
