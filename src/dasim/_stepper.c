/* Cycle-stepped core of the simulator, step_segment; the closed-form end of a
 * phase, end_phase; and the word placement its banks come from, resolve; all
 * loaded by _stepper.py.
 *
 * The op kinds (K_*), ledger columns and width (ACC_*), fault codes (FAULT_*),
 * DEP_RING and QH are defined in _stepper.py only and arrive as -D macros.
 * Every array is C-contiguous and int64 unless typed otherwise; the
 * caller checks sizes, index ranges and the agreement of the pointer
 * arrays with the copies and op counts before the call.
 *
 * Issue is in order, so once a PE's op issues, the gates of its next op
 * are final, but for a DMA wait's transfer: they read only the PE's own
 * dependence ring and window slots. So advance gates the next op at once,
 * charges its stall, issues it in place if it is a compute burst, which
 * books no bank, port or backend, and goes on to the op after, until it
 * reaches a load, store or DMA start, which it queues at its issue cycle.
 * A DMA wait is queued at its free cycle and gated when visited: until
 * that cycle's turn another PE may start its transfer, and whether the
 * wait parks depends on that. Every shared booking thus happens at its own
 * cycle, in PE-id order, as in a scan over all PEs per cycle.
 *
 * Three choices are conditional selects, not branches, because their
 * outcome is data that a branch predictor guesses wrong often enough to
 * bound the loop: the free window slot of a load or store (the first
 * slot holding the minimum), whether an access goes through the ports,
 * and the ledger column a stall is charged to, which runs on every op.
 * Every access books an outbound and an inbound port entry for its level;
 * a tile-local one books its own tile's level-0 entries, which are
 * scratch bookings that no access reads for its timing, and takes
 * now + local_wait by a select in place of the ports' cycle. The other
 * branches stay: as selects, the dependence gate and the kind dispatch
 * measured slower. A dependence ring slot is one record, the op's result
 * cycle << 1 | whether it is a compute op, so the gate reads one cache
 * line per dependence.
 */

#include <stdint.h>

#if QH < 2 || (QH & (QH - 1))
#error "QH must be a power of two of at least 2"
#endif

/* the occupancy words: one bit per bucket */
#define OCC_WORDS ((QH + 63) / 64)

/* The PEs that can act, by the cycle they next act at: a ring of QH
 * buckets, bucket t % QH a bitmap of PE ids of `words` 64-bit words, with
 * bit b % 64 of occ[b / 64] set while bucket b may hold a PE. A PE due QH
 * or more cycles after the current one, `now`, is queued in the horizon
 * bucket, now + QH - 1; the caller queues it again when that cycle comes
 * (a horizon visit, see step_segment), so it is in its own cycle's bucket
 * when that cycle is read. The current bucket is read from word `w` on:
 * every PE queued while it is read is due later, so it only empties. */
typedef struct {
    uint64_t *bits, occ[OCC_WORDS];
    int64_t words, now, w;
} pe_queue;

static inline void enqueue(pe_queue *q, int64_t pe, int64_t t)
{
    if (t - q->now >= QH)
        t = q->now + QH - 1;
    int64_t b = t & (QH - 1);
    q->bits[b * q->words + pe / 64] |= 1ULL << (pe % 64);
    q->occ[b / 64] |= 1ULL << (b % 64);
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
        /* the current cycle is done: on to the next one with a PE due,
         * the next occupied bucket after it, word by word round the ring;
         * the last word read is the current one again, for the buckets
         * below the current bucket */
        int64_t s = q->now & (QH - 1), w0 = s / 64, i;
        q->occ[w0] &= ~(1ULL << (s % 64));
        uint64_t x = q->occ[w0] & (~0ULL << (s % 64));
        for (i = 0; !x && i < OCC_WORDS; i++)
            x = q->occ[(w0 + i + 1) % OCC_WORDS];
        if (!x)
            return -1;
        int64_t next = (w0 + i) % OCC_WORDS * 64 + __builtin_ctzll(x);
        q->now += (next - s) & (QH - 1);
        q->w = 0;
    }
}

/* One PE's cursors and clock, one 64-byte record (see WORK_LAYOUT);
 * abs_idx and t_free are copied in from the caller's arrays and back out
 * on every exit */
typedef struct {
    int64_t abs_idx;    /* its next op's absolute index: its ring slot */
    int64_t end;        /* the absolute index past its last op */
    int64_t o;          /* its next op's index in the template columns */
    int64_t copy;       /* its copy */
    int64_t bank;       /* its next bank */
    int64_t t_free;     /* the cycle it next acts: a queued op's issue cycle */
    int64_t slot;       /* the window slot its gated load or store takes */
    int64_t pad;        /* to 64 bytes */
} pe_rec;

/* WORK_LAYOUT: step_segment's `work` holds, in order, parked[n_pe], the
 * transfer each PE parked on a DMA wait waits on (-1 for none); the QH
 * bucket bitmaps of pe_queue, QH * ceil(n_pe / 64) words; and one pe_rec
 * per PE from the first 64-byte boundary on, 8 * n_pe + 7 slots. So it
 * takes 9 * n_pe + QH * ceil(n_pe / 64) + 7 int64 slots in all: at QH
 * 512, 17,415 (136 KiB) on 1,024 PEs, of which the bitmaps are 8,192. */

/* What advance reads and writes besides a PE's record */
typedef struct {
    const uint8_t *kind, *cls;
    const int32_t *arg, *copy_tpl;
    const uint16_t *dep1, *dep2;
    const int64_t *tpl_ptr, *copy_bank, *class_lat;
    int64_t *ready, *win, *acct;
    int64_t window;
    pe_queue *queue;
} segment;

/* Raise *g_lsu and *g_raw to the cycles template op o's dependences are
 * ready at, read from ring, the dependence ring of a PE whose next op is
 * absolute op ai: a compute op's result gates as RAW, any other's as LSU */
static inline void dep_gates(const segment *g, const int64_t *ring, int64_t ai, int64_t o,
                             int64_t *g_lsu, int64_t *g_raw)
{
    int64_t deps[2] = {g->dep1[o], g->dep2[o]};
    for (int s = 0; s < 2; s++) {
        if (deps[s]) {
            int64_t r = ring[(ai - deps[s]) & (DEP_RING - 1)];
            int64_t rt = r >> 1;
            if (r & 1) {
                if (rt > *g_raw)
                    *g_raw = rt;
            } else if (rt > *g_lsu) {
                *g_lsu = rt;
            }
        }
    }
}

/* Step r past the op that just issued: past its copy's last op, on to the
 * PE's next copy, if any, and that copy's first bank */
static inline void next_op(const segment *g, pe_rec *r)
{
    r->abs_idx++;
    if (++r->o == g->tpl_ptr[g->copy_tpl[r->copy] + 1] && r->abs_idx < r->end) {
        int64_t c = ++r->copy;
        r->o = g->tpl_ptr[g->copy_tpl[c]];
        r->bank = g->copy_bank[c];
    }
}

/* PE pe is free at cycle t, its next op at r's cursors: gate ops from
 * there, charging each one's stall and issuing each compute burst in
 * place, up to the PE's next load, store or DMA start, queued at the
 * cycle it issues, or its next DMA wait, queued at the cycle it is free
 * (see the top). Past its last op the PE ends at its free cycle. Inlined
 * at both calls: as a call it cost the stepper 8-10% on the bench
 * workloads. */
static inline __attribute__((always_inline)) void advance(segment *g, pe_rec *r,
                                                          int64_t pe, int64_t t)
{
    int64_t *ring = g->ready + pe * DEP_RING, *a = g->acct + pe * ACC_WIDTH;
    for (;;) {
        if (r->abs_idx == r->end) {
            r->t_free = t;
            return;
        }
        int64_t o = r->o;
        int k = g->kind[o];
        if (k == K_DMA_WAIT) {
            r->t_free = t;
            enqueue(g->queue, pe, t);
            return;
        }
        int64_t g_lsu = t, g_raw = t;
        dep_gates(g, ring, r->abs_idx, o, &g_lsu, &g_raw);
        if (k == K_LOAD || k == K_STORE) {
            /* a free window slot, the first that frees soonest: responses
             * retire in any order. Selected, not branched on (see the top) */
            const int64_t *slots = g->win + pe * g->window;
            int64_t m = slots[0], m_slot = 0;
            for (int64_t s = 1; s < g->window; s++) {
                int64_t v = slots[s];
                int lt = v < m;
                m = lt ? v : m;
                m_slot = lt ? s : m_slot;
            }
            r->slot = m_slot;
            if (m > g_lsu)
                g_lsu = m;
        }
        /* the whole wait goes to the latest gate, LSU on a tie */
        int64_t t_issue = g_lsu > g_raw ? g_lsu : g_raw;
        a[g_lsu == t_issue ? ACC_LSU : ACC_RAW] += t_issue - t;
        if (k != K_COMPUTE) {
            r->t_free = t_issue;
            enqueue(g->queue, pe, t_issue);
            return;
        }
        /* a compute burst books nothing shared, so it issues here */
        int64_t n = g->arg[o];
        t = t_issue + n;
        ring[r->abs_idx & (DEP_RING - 1)] = (t - 1 + g->class_lat[g->cls[o]]) << 1 | 1;
        a[ACC_ISSUED] += n;
        next_op(g, r);
    }
}

/* Advance one segment from cycle `now`; see step_segment in _stepper.py.
 * out receives (end cycle, FAULT_* code or 0, pe, detail). work is
 * scratch laid out as WORK_LAYOUT states. */
void step_segment(
    /* op templates: template t's ops are tpl_ptr[t] .. tpl_ptr[t + 1] */
    const uint8_t *tpl_kind, const uint8_t *tpl_cls, const int32_t *tpl_arg,
    const uint16_t *tpl_dep1, const uint16_t *tpl_dep2, const int64_t *tpl_ptr,
    /* per PE, in stream order: the templates of its copies
     * copy_tpl[copy_ptr[pe] .. copy_ptr[pe + 1]], and its op count; copy c's
     * loads and stores take their banks from bank[copy_bank[c]] on */
    const int32_t *copy_tpl, const int64_t *copy_ptr, const int64_t *copy_bank,
    const uint16_t *bank, const int64_t *n_ops,
    /* the run's ledger, [n_pe, ACC_WIDTH], which the phase adds to */
    int64_t *acct,
    /* per-PE state; ready is [n_pe, DEP_RING] records (see the top), win
     * [n_pe, window] */
    int64_t *abs_idx, int64_t *t_free, int64_t *ready, int64_t *win,
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
    const int64_t local_wait = level_lat[0] - 1;  /* a tile-local request's cycles before the bank */
    /* tile ids by shifts: every tile size is a power of two */
    const int pe_shift = __builtin_ctzll(pes_per_tile), bank_shift = __builtin_ctzll(banks_per_tile);
    int64_t *parked = work, n_parked = 0;
    int64_t pe, q;
    pe_queue queue = {.bits = (uint64_t *)(work + n_pe), .words = (n_pe + 63) / 64, .now = now};
    pe_rec *rec = (pe_rec *)(((uintptr_t)(work + n_pe + QH * queue.words) + 63) & ~(uintptr_t)63);
    segment g = {.kind = tpl_kind, .cls = tpl_cls, .arg = tpl_arg, .copy_tpl = copy_tpl,
                 .dep1 = tpl_dep1, .dep2 = tpl_dep2, .tpl_ptr = tpl_ptr, .copy_bank = copy_bank,
                 .class_lat = class_lat, .ready = ready, .win = win, .acct = acct,
                 .window = window, .queue = &queue};

    for (pe = 0; pe < n_pe; pe++) {
        if (pe == 0 || t_free[pe] < queue.now)
            queue.now = t_free[pe];
        parked[pe] = -1;
    }
    for (q = 0; q < QH * queue.words; q++)
        queue.bits[q] = 0;
    for (pe = 0; pe < n_pe; pe++) {
        int64_t c = copy_ptr[pe];
        rec[pe] = (pe_rec){.abs_idx = abs_idx[pe], .end = abs_idx[pe] + n_ops[pe],
                           .o = n_ops[pe] ? tpl_ptr[copy_tpl[c]] : 0, .copy = c,
                           .bank = n_ops[pe] ? copy_bank[c] : 0};
        advance(&g, rec + pe, pe, t_free[pe]);
    }
    out[1] = out[2] = out[3] = 0;

    while ((pe = dequeue(&queue)) >= 0) {
        now = queue.now;
        pe_rec *r = rec + pe;
        if (r->t_free > now) {
            /* a horizon visit: not due yet, so on to its cycle or the
             * next horizon, booking nothing (see pe_queue) */
            enqueue(&queue, pe, r->t_free);
            continue;
        }
        /* a gated load, store or DMA start issues now; a DMA wait is
         * gated first, and then issues here whenever its gates open */
        int64_t o = r->o;
        int k = tpl_kind[o];
        int64_t *a = acct + pe * ACC_WIDTH;
        int64_t t_ready = now + 1;      /* when the op's result is ready */
        if (k == K_LOAD || k == K_STORE) {
            int64_t b = bank[r->bank++];
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
            win[pe * window + r->slot] = t_ready;
        } else if (k == K_DMA_START) {
            int64_t tid = tpl_arg[o];
            if (tid < 0 || tid >= n_transfers) {
                out[0] = now, out[1] = FAULT_DMA_UNKNOWN, out[2] = pe, out[3] = tid;
                goto done;
            }
            if (transfer_done[tid] >= 0) {
                out[0] = now, out[1] = FAULT_DMA_RESTART, out[2] = pe, out[3] = tid;
                goto done;
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
                    acct[q * ACC_WIDTH + ACC_WFI] += now + 1 - rec[q].t_free;
                    rec[q].t_free = now + 1;
                    enqueue(&queue, q, now + 1);
                }
            }
        } else {
            int64_t tid = tpl_arg[o];
            if (tid < 0 || tid >= n_transfers) {
                out[0] = now, out[1] = FAULT_DMA_UNKNOWN, out[2] = pe, out[3] = tid;
                goto done;
            }
            int64_t t_done = transfer_done[tid];
            if (t_done < 0) {
                /* off the queue until some PE starts the transfer */
                parked[pe] = tid;
                n_parked++;
                continue;
            }
            int64_t g_lsu = now, g_raw = now, g_wfi = t_done > now ? t_done : now;
            dep_gates(&g, ready + pe * DEP_RING, r->abs_idx, o, &g_lsu, &g_raw);
            int64_t t_issue = g_lsu > g_raw ? g_lsu : g_raw;
            if (g_wfi > t_issue)
                t_issue = g_wfi;
            /* the whole wait goes to the latest gate, LSU beats RAW beats
             * WFI on ties */
            a[g_lsu == t_issue ? ACC_LSU : g_raw == t_issue ? ACC_RAW : ACC_WFI] += t_issue - now;
            t_ready = t_issue + 1;
        }

        /* shared by every kind: none of these is a compute op */
        ready[pe * DEP_RING + (r->abs_idx & (DEP_RING - 1))] = t_ready << 1;
        a[ACC_ISSUED]++;
        next_op(&g, r);
        advance(&g, r, pe, k == K_DMA_WAIT ? t_ready : now + 1);
    }

    /* PEs end independently: the run ends at the last PE's end, or at
     * the last cycle a PE was taken from the queue, where it may park */
    out[0] = queue.now;
    for (pe = 0; pe < n_pe; pe++)
        if (rec[pe].t_free > out[0])
            out[0] = rec[pe].t_free;
    if (n_parked) {
        for (q = 0; parked[q] < 0; q++)
            ;
        out[1] = FAULT_DMA_NEVER_STARTED, out[2] = q, out[3] = parked[q];
    }
done:
    for (pe = 0; pe < n_pe; pe++) {
        abs_idx[pe] = rec[pe].abs_idx;
        t_free[pe] = rec[pe].t_free;
    }
}

/* The end of a phase stepped to `end`, its last PE's free cycle, as
 * _stepper.end_phase states it: with a barrier, each PE issues it as
 * one op once its window drains, at arrive = max(t_free, its latest window
 * slot), after an LSU stall, and the phase ends at the latest arrive + 1.
 * Then each PE idles (WFI) from its free cycle to the end, and is free
 * from it. Returns the end. */
int64_t end_phase(int64_t *acct, int64_t *abs_idx, int64_t *t_free, int64_t *ready,
                  const int64_t *win, int64_t n_pe, int64_t window, int64_t end,
                  int64_t barrier)
{
    int64_t pe, s;
    if (barrier) {
        for (pe = 0; pe < n_pe; pe++) {
            int64_t arrive = t_free[pe], *a = acct + pe * ACC_WIDTH;
            for (s = 0; s < window; s++)
                if (win[pe * window + s] > arrive)
                    arrive = win[pe * window + s];
            a[ACC_LSU] += arrive - t_free[pe];
            a[ACC_ISSUED]++;
            t_free[pe] = arrive + 1;
            ready[pe * DEP_RING + (abs_idx[pe]++ & (DEP_RING - 1))] = t_free[pe] << 1;
            if (pe == 0 || t_free[pe] > end)
                end = t_free[pe];
        }
    }
    for (pe = 0; pe < n_pe; pe++) {
        acct[pe * ACC_WIDTH + ACC_WFI] += end - t_free[pe];
        t_free[pe] = end;
    }
    return end;
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
