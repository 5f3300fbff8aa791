/* Cycle-stepped core of the simulator, step_segment, and the word placement
 * its banks come from, resolve; both loaded by _stepper.py.
 *
 * The op kinds (K_*), ledger columns and width (ACC_*), fault codes (FAULT_*),
 * DEP_RING and QH are defined in _stepper.py only and arrive as -D macros.
 * Every array is C-contiguous and int64 unless typed otherwise; the
 * caller checks sizes, index ranges and the agreement of the pointer
 * arrays with the copies and op counts before the call.
 *
 * Two selections on the issue path are conditional selects, not branches,
 * because their outcome is data that a branch predictor guesses wrong
 * often enough to bound the loop: the free window slot of a load or store
 * (the first slot holding the minimum), and whether an access goes through
 * the ports. Every access books an outbound and an inbound port entry for
 * its level; a tile-local one books its own tile's level-0 entries, which
 * are scratch bookings that no access reads for its timing, and takes
 * now + local_wait by a select in place of the ports' cycle. The other
 * branches stay: as selects, stall attribution measured no faster, and
 * the dependence gate and the kind dispatch slower. A dependence ring
 * slot is one record, the op's result cycle << 1 | whether it is a
 * compute op, so the gate reads one cache line per dependence.
 */

#include <stdint.h>

#if QH < 2 || QH > 64 || (QH & (QH - 1))
#error "QH must be a power of two from 2 to 64: one occupancy bit per bucket"
#endif

/* The PEs that can act, by the cycle they next act at: a ring of QH
 * buckets, bucket t % QH a bitmap of PE ids of `words` 64-bit words, with
 * bit b of `occ` set while bucket b may hold a PE. A PE due QH or more
 * cycles after the current one, `now`, is queued in the horizon bucket,
 * now + QH - 1; the caller queues it again when that cycle comes (a
 * horizon visit, see step_segment), so it is in its own cycle's bucket
 * when that cycle is read. The current bucket is read from word `w` on:
 * every PE queued while it is read is due later, so it only empties. */
typedef struct {
    uint64_t *bits, occ;
    int64_t words, now, w;
} pe_queue;

static inline void enqueue(pe_queue *q, int64_t pe, int64_t t)
{
    if (t - q->now >= QH)
        t = q->now + QH - 1;
    int64_t b = t & (QH - 1);
    q->bits[b * q->words + pe / 64] |= 1ULL << (pe % 64);
    q->occ |= 1ULL << b;
}

/* The next PE in (cycle, PE id) order, taken off the queue with q->now
 * set to its cycle; -1 once the queue is empty, with q->now left at the
 * last PE's cycle */
static inline int64_t dequeue(pe_queue *q)
{
    for (;;) {
        uint64_t *b = q->bits + (q->now & (QH - 1)) * q->words;
        for (; q->w < q->words; q->w++) {
            uint64_t x = b[q->w];
            if (x) {
                b[q->w] = x & (x - 1);
                return q->w * 64 + __builtin_ctzll(x);
            }
        }
        /* the current cycle is done: on to the next one with a PE due */
        int64_t s = q->now & (QH - 1);
        q->occ &= ~(1ULL << s);
        if (!q->occ)
            return -1;
        uint64_t later = q->occ >> s;
        q->now += later ? __builtin_ctzll(later) : QH - s + __builtin_ctzll(q->occ);
        q->w = 0;
    }
}

/* Advance one segment from cycle `now`; see step_segment in _stepper.py.
 * out receives (end cycle, FAULT_* code or 0, pe, detail). work holds
 * 5 * n_pe + QH * ceil(n_pe / 64) scratch slots: the transfer each
 * parked PE waits on, each PE's cursors (its next op's index in the
 * segment and in the template columns, its copy, its next bank) and the
 * QH bucket bitmaps (see pe_queue). */
void step_segment(
    /* op templates: template t's ops are tpl_ptr[t] .. tpl_ptr[t + 1] */
    const uint8_t *tpl_kind, const uint8_t *tpl_cls, const int32_t *tpl_arg,
    const uint16_t *tpl_dep1, const uint16_t *tpl_dep2, const int64_t *tpl_ptr,
    /* per PE, in stream order: the templates of its copies
     * copy_tpl[copy_ptr[pe] .. copy_ptr[pe + 1]], and its op count; copy c's
     * loads and stores take their banks from bank[copy_bank[c]] on */
    const int32_t *copy_tpl, const int64_t *copy_ptr, const int64_t *copy_bank,
    const uint16_t *bank, const int64_t *n_ops,
    /* per-PE state; ready is [n_pe, DEP_RING] records (see the top), win
     * and acct [n_pe, window] and [n_pe, ACC_WIDTH] */
    int64_t *abs_idx, int64_t *t_free, int64_t *ready, int64_t *win, int64_t *acct,
    /* shared memory-system state */
    int64_t *bank_next, int64_t *out_next, int64_t *in_next,
    /* DMA: transfer t's segments are seg_ptr[t] .. seg_ptr[t + 1] */
    const int64_t *seg_ptr, const int64_t *seg_backend, const int64_t *seg_words,
    int64_t *transfer_done, int64_t *backend_next,
    const int64_t *level_lat, const int64_t *class_lat,
    int64_t *work, int64_t *out,
    int64_t n_pe, int64_t window, int64_t n_transfers,
    int64_t out_ports, int64_t in_ports, int64_t pes_per_tile, int64_t banks_per_tile,
    int64_t tiles_per_subgroup, int64_t tiles_per_group,
    int64_t l2_lat, int64_t dma_wpc, int64_t now)
{
    const int64_t mask = DEP_RING - 1;
    const int64_t local_wait = level_lat[0] - 1;  /* a tile-local request's cycles before the bank */
    /* tile ids by shifts: every tile size is a power of two */
    const int pe_shift = __builtin_ctzll(pes_per_tile), bank_shift = __builtin_ctzll(banks_per_tile);
    int64_t *parked = work, *cursor = work + n_pe, *op_at = work + 2 * n_pe;
    int64_t *copy_at = work + 3 * n_pe, *bank_at = work + 4 * n_pe;
    int64_t n_parked = 0;
    int64_t pe, q;
    pe_queue queue = {.bits = (uint64_t *)(work + 5 * n_pe), .words = (n_pe + 63) / 64,
                      .now = now};

    for (pe = 0; pe < n_pe; pe++) {
        if (pe == 0 || t_free[pe] < queue.now)
            queue.now = t_free[pe];
        cursor[pe] = 0;
        copy_at[pe] = copy_ptr[pe];
        op_at[pe] = n_ops[pe] ? tpl_ptr[copy_tpl[copy_ptr[pe]]] : 0;
        bank_at[pe] = n_ops[pe] ? copy_bank[copy_ptr[pe]] : 0;
        parked[pe] = -1;
    }
    for (q = 0; q < QH * queue.words; q++)
        queue.bits[q] = 0;
    for (pe = 0; pe < n_pe; pe++)
        enqueue(&queue, pe, t_free[pe]);
    out[1] = out[2] = out[3] = 0;

    while ((pe = dequeue(&queue)) >= 0) {
        now = queue.now;
        if (t_free[pe] > now) {
            /* a horizon visit: not due yet, so on to its cycle or the
             * next horizon, booking nothing (see pe_queue) */
            enqueue(&queue, pe, t_free[pe]);
            continue;
        }
        int64_t i = cursor[pe];
        if (i >= n_ops[pe])
            continue;
        int64_t o = op_at[pe];
        int k = tpl_kind[o];
        int64_t ai = abs_idx[pe];
        int64_t *a = acct + pe * ACC_WIDTH;

        /* gates */
        int64_t g_lsu = now, g_raw = now, g_wfi = now;
        int64_t deps[2] = {tpl_dep1[o], tpl_dep2[o]};
        for (int s = 0; s < 2; s++) {
            if (deps[s]) {
                int64_t r = ready[pe * DEP_RING + ((ai - deps[s]) & mask)];
                int64_t rt = r >> 1;
                if (r & 1) {
                    if (rt > g_raw)
                        g_raw = rt;
                } else if (rt > g_lsu) {
                    g_lsu = rt;
                }
            }
        }
        int64_t *slots = win + pe * window;
        int64_t m = 0, m_slot = 0;
        if (k == K_LOAD || k == K_STORE) {
            /* a free window slot, the first that frees soonest: responses
             * retire in any order. Selected, not branched on (see the top) */
            m = slots[0];
            for (int64_t s = 1; s < window; s++) {
                int64_t v = slots[s];
                int lt = v < m;
                m = lt ? v : m;
                m_slot = lt ? s : m_slot;
            }
            if (m > g_lsu)
                g_lsu = m;
        } else if (k == K_DMA_WAIT) {
            int64_t tid = tpl_arg[o];
            if (tid < 0 || tid >= n_transfers) {
                out[0] = now, out[1] = FAULT_DMA_UNKNOWN, out[2] = pe, out[3] = tid;
                return;
            }
            int64_t t_done = transfer_done[tid];
            if (t_done < 0) {
                /* off the queue until some PE starts the transfer */
                parked[pe] = tid;
                n_parked++;
                continue;
            }
            if (t_done > g_wfi)
                g_wfi = t_done;
        }

        int64_t t_issue = g_lsu;
        if (g_raw > t_issue)
            t_issue = g_raw;
        if (g_wfi > t_issue)
            t_issue = g_wfi;

        if (t_issue > now) {
            /* cannot issue this cycle: attribute the whole wait to the
             * latest gate (LSU beats RAW beats WFI on ties) and jump */
            int64_t stall = t_issue - now;
            if (g_lsu == t_issue)
                a[ACC_LSU] += stall;
            else if (g_raw == t_issue)
                a[ACC_RAW] += stall;
            else
                a[ACC_WFI] += stall;
            t_free[pe] = t_issue;
            enqueue(&queue, pe, t_issue);
            continue;
        }

        /* ---- issue at now ---- */
        int64_t t_next = now + 1;       /* when the PE can act again */
        int64_t t_ready = now + 1;      /* when the op's result is ready */
        int64_t n_issued = 1;
        if (k == K_LOAD || k == K_STORE) {
            int64_t b = bank[bank_at[pe]++];
            /* the level: how far up the hierarchy the PE's and the bank's
             * tile ids part, as topology.access_levels classifies it */
            int64_t src_tile = pe >> pe_shift, dst_tile = b >> bank_shift;
            int64_t x = src_tile ^ dst_tile;
            int64_t lvl = (x != 0) + (x >= tiles_per_subgroup) + (x >= tiles_per_group);
            /* outbound port at the source tile for this level, then the
             * inbound one at the destination tile; at level 0 both are the
             * own tile's scratch entries, and the select below drops their
             * cycle (see the top) */
            int64_t p0 = (src_tile * 4 + lvl) * out_ports, sp = p0;
            for (q = p0 + 1; q < p0 + out_ports; q++)
                if (out_next[q] < out_next[sp])
                    sp = q;
            int64_t t_out = now;
            if (out_next[sp] > t_out)
                t_out = out_next[sp];
            out_next[sp] = t_out + 1;
            p0 = (dst_tile * 4 + lvl) * in_ports;
            sp = p0;
            for (q = p0 + 1; q < p0 + in_ports; q++)
                if (in_next[q] < in_next[sp])
                    sp = q;
            int64_t t_in = t_out + level_lat[lvl] - 2;
            if (in_next[sp] > t_in)
                t_in = in_next[sp];
            in_next[sp] = t_in + 1;
            int64_t serve = lvl ? t_in + 1 : now + local_wait;
            if (bank_next[b] > serve)
                serve = bank_next[b];
            bank_next[b] = serve + 1;
            t_ready = serve + 1;
            slots[m_slot] = t_ready;
        } else if (k == K_COMPUTE) {
            n_issued = tpl_arg[o];
            t_next = now + n_issued;
            t_ready = t_next - 1 + class_lat[tpl_cls[o]];
        } else if (k == K_DMA_START) {
            int64_t tid = tpl_arg[o];
            if (tid < 0 || tid >= n_transfers) {
                out[0] = now, out[1] = FAULT_DMA_UNKNOWN, out[2] = pe, out[3] = tid;
                return;
            }
            if (transfer_done[tid] >= 0) {
                out[0] = now, out[1] = FAULT_DMA_RESTART, out[2] = pe, out[3] = tid;
                return;
            }
            int64_t base_t = now + 1 + l2_lat, t_done = base_t;
            for (int64_t s = seg_ptr[tid]; s < seg_ptr[tid + 1]; s++) {
                int64_t b = seg_backend[s];
                int64_t end = backend_next[b];
                if (end < base_t)
                    end = base_t;
                end += (seg_words[s] + dma_wpc - 1) / dma_wpc;
                backend_next[b] = end;
                if (end > t_done)
                    t_done = end;
            }
            transfer_done[tid] = t_done;
            /* waiters resume next cycle; their parked cycles are WFI */
            for (q = 0; n_parked && q < n_pe; q++) {
                if (parked[q] == tid) {
                    parked[q] = -1;
                    n_parked--;
                    acct[q * ACC_WIDTH + ACC_WFI] += now + 1 - t_free[q];
                    t_free[q] = now + 1;
                    enqueue(&queue, q, now + 1);
                }
            }
        }

        /* shared by every kind; a DMA wait with its gate met needs only this */
        ready[pe * DEP_RING + (ai & mask)] = t_ready << 1 | (k == K_COMPUTE);
        a[ACC_ISSUED] += n_issued;
        cursor[pe] = i + 1;
        /* past the copy's last op: on to the PE's next copy, if any, and
         * its first bank */
        if (++o == tpl_ptr[copy_tpl[copy_at[pe]] + 1] && i + 1 < n_ops[pe]) {
            int64_t c = ++copy_at[pe];
            o = tpl_ptr[copy_tpl[c]];
            bank_at[pe] = copy_bank[c];
        }
        op_at[pe] = o;
        abs_idx[pe] = ai + 1;
        t_free[pe] = t_next;
        enqueue(&queue, pe, t_next);
    }

    /* PEs end independently, and the last one taken from the queue
     * finishes last */
    out[0] = queue.now;
    if (n_parked) {
        for (q = 0; parked[q] < 0; q++)
            ;
        out[1] = FAULT_DMA_NEVER_STARTED, out[2] = q, out[3] = parked[q];
    }
}

/* The bank of each of the n byte addresses addrs[i], written to out[i]: the
 * address-bit permutation of remap.resolve_array. regions holds n_regions
 * folded regions, disjoint and sorted by base, as rows (base, end, p, s);
 * an address in none of them takes p = s = 0. Returns the index of the
 * first address outside [0, total_bytes), or -1 once every one is placed. */
int64_t resolve(const int64_t *addrs, int64_t n, const int64_t *regions, int64_t n_regions,
                int64_t word_shift, int64_t bank_bits, int64_t total_bytes, int64_t *out)
{
    const uint64_t bank_mask = (1ULL << bank_bits) - 1;
    int64_t r = 0;      /* the region of the address before, tried first */
    for (int64_t i = 0; i < n; i++) {
        int64_t a = addrs[i];
        /* a negative address reads as 2^63 or more unsigned */
        if ((uint64_t)a >= (uint64_t)total_bytes)
            return i;
        const int64_t *g = regions + 4 * r;
        if (n_regions && !(g[0] <= a && a < g[1])) {
            /* the last region whose base is at or below a, if any */
            int64_t lo = 0, hi = n_regions;
            while (lo < hi) {
                int64_t mid = (lo + hi) / 2;
                if (regions[4 * mid] <= a)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            r = lo ? lo - 1 : 0;
            g = regions + 4 * r;
        }
        int64_t p = 0, s = 0;
        if (n_regions && g[0] <= a && a < g[1])
            p = g[2], s = g[3];
        /* the bank keeps the p low bits of the word address and takes bits
         * p+s .. b+s-1 above them */
        uint64_t u = (uint64_t)a >> word_shift, p_mask = (1ULL << p) - 1;
        out[i] = (int64_t)((u & p_mask) | ((u >> s) & (bank_mask ^ p_mask)));
    }
    return -1;
}
