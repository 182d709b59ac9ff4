/* Native replay kernel: the batched-epoch loop compiled to C.
 *
 * This translation unit replays trace records through per-core caches,
 * MSHRs and prefetchers in front of a shared LLC and DRAM exactly like
 * repro.sim.batch.replay_span (one core) and MultiCoreEngine.run (the
 * lockstep loop) -- same operations, on the same state, in the same
 * order.  The caches and basic Pythia's agent (Q-table, EQ ring, page
 * table, PC history) lend the kernel their own typed buffers, which it
 * replays on in place; repro.sim._native.bridge copies the rest (MSHR,
 * fill queues, DRAM, the core model, counters and RNG words) into flat
 * arrays before the call and back after it.
 * Bit-identity with the Python loops is the hard invariant: every double
 * below is computed with the exact operand order of the matching Python
 * expression (IEEE-754 doubles == Python floats when op order matches;
 * the build passes -ffp-contract=off so no fused multiply-adds perturb
 * rounding), every int is 64-bit two's complement, and the Mersenne
 * Twister + randrange/ random() implementations reproduce CPython's
 * random.Random draw for draw.
 *
 * Prefetchers the kernel does not model in C train through Python
 * callbacks (HookArgs): the training hook runs the prefetcher's
 * train_cols on every L1-miss training event and leaves its candidates
 * in a buffer the kernel filters exactly like _issue_prefetches; the
 * outcome hooks fire where the Python loops call the matching
 * Prefetcher methods; the L1 hook trains an L1 prefetcher on every L1
 * access.  A hook that raised sets the abort word, and the kernel stops
 * at once with RC_HOOK_ABORT, exporting nothing.
 *
 * Mirrored sources (keep in sync; tests/test_hotpath_equivalence.py
 * pins the equivalence):
 *   repro/sim/batch.py        -- the record loop replayed here
 *   repro/sim/engine.py       -- MultiCoreEngine.run / _step (lockstep)
 *   repro/sim/hierarchy.py    -- process_fills, _issue_prefetches,
 *                                _fetch_for_prefetch, _train_l1_prefetcher
 *   repro/prefetchers/base.py -- train_cols and the outcome callbacks
 *   repro/sim/cache.py        -- lookup/fill bookkeeping, CacheStats order
 *   repro/sim/replacement.py  -- LruPolicy / ShipPolicy
 *   repro/sim/mshr.py         -- reclaim / allocate / earliest_completion
 *   repro/sim/dram.py         -- _Channel.service, Dram.access/utilization
 *   repro/sim/core.py         -- advance / issue_load / _enforce_rob
 *   repro/core/pythia.py      -- train_cols (Algorithm 1)
 *   repro/core/agent.py       -- SarsaAgent.select_action / record
 *   repro/core/features.py    -- observe_basic_cols
 *   repro/core/qvstore.py     -- q_one / best_action / sarsa_update
 *   repro/core/eq.py          -- EvaluationQueue
 *   repro/core/tile_coding.py -- hash_index
 *
 * Heaps use CPython's exact heapq siftdown/siftup with lexicographic
 * (completion, line) compare so imported heap lists round-trip as valid
 * heaps; keys are unique, so pop order is content-determined either way.
 *
 * Entry points (both return 0 when done, 1 when a capacity ran out --
 * the copied state is exported at a record boundary; the bridge grows
 * the arrays and re-enters -- and negative on an internal invariant
 * violation or a hook abort, with the copied state NOT exported, so the
 * bridge raises; the lent buffers hold the kernel's partial writes by
 * then and a hooked prefetcher has advanced, so the engine is unusable):
 *   repro_replay_span(CoreArgs *, SharedArgs *)  records [start, stop)
 *       of one core;
 *   repro_replay_lockstep(LockstepArgs *)  MultiCoreEngine's lockstep
 *       loop over every core until each has measured its quota.
 */

#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Negative return codes. */
enum {
    RC_NOMEM = -2,         /* allocation failure */
    RC_MSHR = -3,          /* structural stall with no outstanding miss */
    RC_ROB = -4,           /* outstanding-load ring overflow */
    RC_EMPTY_TRACE = -5,   /* lockstep core with an empty trace */
    RC_HOOK_ABORT = -6,    /* a Python hook raised (see HookArgs.abort) */
    RC_HOOK_COUNT = -7     /* a training hook returned a bad count */
};

/* Prefetcher.train_cols: (pc, line, page, offset, cycle, is_load,
 * bandwidth_utilization, bandwidth_high) -> candidate count, with the
 * candidates left in HookArgs.cand. */
typedef int64_t (*TrainHook)(int64_t, int64_t, int64_t, int64_t, int64_t,
                             bool, double, bool);
/* The Prefetcher outcome callbacks: (line, cycle). */
typedef void (*OutcomeHook)(int64_t, int64_t);

/* One core's Python callbacks (NULL when absent).  A training hook may
 * replace the candidate buffer to fit more candidates, so the kernel
 * re-reads cand and cand_cap after every call.  A hook that raises
 * stores its exception on the Python side and sets *abort.
 * Field order must match bridge.py's _HookArgs. */
typedef struct HookArgs {
    TrainHook train;        /* the L2 prefetcher, train == TRAIN_HOOK */
    TrainHook l1_train;     /* the L1 prefetcher (Fig 8d) */
    OutcomeHook on_fill;    /* on_prefetch_fill */
    OutcomeHook on_hit;     /* on_demand_hit_prefetched */
    OutcomeHook on_dropped; /* on_prefetch_dropped */
    OutcomeHook on_useless; /* on_prefetch_useless */
    int64_t *cand;
    int64_t *abort;
    int64_t cand_cap;
} HookArgs;

/* CoreArgs.train: how the L2 prefetcher trains. */
enum { TRAIN_NONE = 0, TRAIN_PYTHIA = 1, TRAIN_HOOK = 2 };

/* One cache level: Cache's flat per-slot lists (nsets*ways slots,
 * slot = set * ways + way), its geometry and its policy tick.
 * Field order must match bridge.py's _CacheArgs. */
typedef struct CacheArgs {
    int64_t *tag;    /* resident line, -1 == empty way */
    uint8_t *pf;     /* prefetched bit */
    uint8_t *used;   /* used bit */
    int64_t *meta_a; /* LRU tick or SHiP rrpv */
    int64_t *meta_b; /* SHiP sig */
    uint8_t *meta_c; /* SHiP reused */
    int64_t *stats;  /* 12 counters, CacheStats field order */
    int64_t *shct;   /* 1024 counters when policy == ship */
    int64_t nsets, ways, lat, tick, policy; /* policy: 0=lru 1=ship */
} CacheArgs;

/* What every core shares: the LLC and DRAM.
 * Field order must match bridge.py's _SharedArgs. */
typedef struct SharedArgs {
    CacheArgs llc;
    /* DRAM: utilization events (linearized ring) + per-channel state */
    int64_t *ev_ts;
    double *ev_busy;
    double *ch_bus_free;
    double *ch_demand_bus_free;
    double *ch_bank_free; /* channels*banks */
    int64_t *ch_open_row; /* channels*banks */
    int64_t *ch_row_hits;
    int64_t *ch_row_misses;
    double *bucket_cycles; /* [4] */
    int64_t ev_head, ev_count, ev_cap;
    int64_t channels, banks, row_size_lines, row_hit_lat, row_miss_lat;
    int64_t util_window;
    int64_t dram_total, dram_demand, dram_prefetch;
    int64_t last_bucket_cycle;
    double cycles_per_transfer;
    double window_busy, busy_cycles;
} SharedArgs;

/* One core's private state: its trace columns, L1/L2, hooks, MSHR,
 * prefetch fill queues, core model and Pythia agent.
 * Field order must match bridge.py's _CoreArgs. */
typedef struct CoreArgs {
    /* trace columns (full arrays of trace_len records) */
    const int64_t *col_pc;
    const int64_t *col_line;
    const uint8_t *col_load;
    const int64_t *col_gap;
    const int64_t *col_page;
    const int64_t *col_offset;
    CacheArgs l1, l2;
    HookArgs hooks;
    /* MSHR: entry arrays (compact, any order) + (comp, line) heap */
    int64_t *mshr_line;
    int64_t *mshr_comp;
    uint8_t *mshr_ispf;
    int64_t *mshrh_comp;
    int64_t *mshrh_line;
    /* pending prefetch fills heap / inflight map / merged set */
    int64_t *pend_comp;
    int64_t *pend_line;
    int64_t *infl_line;
    int64_t *infl_comp;
    int64_t *merged_line;
    /* core: outstanding loads (linearized ring) */
    int64_t *out_issued;
    int64_t *out_comp;
    /* Pythia (NULL / 0 unless train == TRAIN_PYTHIA) */
    double *qcells;
    int64_t *act_deltas;  /* [nact] action offset deltas */
    int64_t *act_counts;  /* [nact] */
    double *rw;           /* [7] AT AL CL IN_HI IN_LO NP_HI NP_LO */
    int64_t *rw_assigned; /* [5] at al cl in np */
    int64_t *eq_state;    /* [eq_cap * nfeat] */
    int64_t *eq_action;
    int64_t *eq_line; /* -1 == no prefetch line */
    double *eq_reward;
    uint8_t *eq_flags; /* bit0 has_reward, bit1 filled */
    int64_t *pt_page;  /* [ptab_cap] page table slots */
    int64_t *pt_lastoff;
    int64_t *pt_deltas;  /* [ptab_cap * 4] */
    int64_t *pt_offsets; /* [ptab_cap * 4] */
    uint8_t *pt_dlen;
    uint8_t *pt_olen;
    int64_t *pt_order; /* [ptab_cap] slots in LRU order, oldest first */
    int64_t *last_pcs;     /* [3] */
    uint32_t *mt;          /* [624] Mersenne Twister words */
    int64_t *plane_shifts; /* [nplanes] */

    /* int64 scalars */
    int64_t trace_len;
    int64_t start, stop, processed; /* repro_replay_span's record span */
    int64_t width, rob_size, instructions;
    /* 1 while CoreModel.cycle is a Python int: the last write to it was
     * a ROB stall (cycle = completion), not a float increment. */
    int64_t cycle_int;
    int64_t out_head, out_count, out_cap;
    int64_t mshr_count, mshr_cap;
    int64_t mshrh_count, mshrh_cap;
    int64_t pend_count, pend_cap;
    int64_t infl_count, infl_cap;
    int64_t merged_count, merged_cap;
    int64_t pf_issued, pf_dropped, late_merges;
    int64_t mshr_allocations, mshr_stalls;
    int64_t max_degree, page_shift, lines_per_page;
    int64_t train; /* TRAIN_NONE / TRAIN_PYTHIA / TRAIN_HOOK */
    int64_t nact, nfeat, nplanes, plane_entries;
    int64_t eq_cap, eq_head, eq_count;
    int64_t ptab_cap, ptab_count;
    int64_t lastpc_count;
    int64_t mt_index;
    int64_t agent_updates, agent_explorations;

    /* doubles */
    double cycle, stall_cycles;
    double hi_thresh, epsilon, alpha, gamma;
} CoreArgs;

/* CounterMark layout, per core: MARK_I64 int64 words
 *   [0] instructions  [1] cycle_int  [2..13] LLC stats  [14..25] L2 stats
 *   [26..28] DRAM total/demand/prefetch  [29] prefetches issued
 *   [30] late prefetch merges
 * and MARK_F64 doubles: [0] cycle  [1] stall cycles. */
enum { MARK_I64 = 31, MARK_F64 = 2 };

/* MultiCoreEngine's lockstep state (cursors, warmup countdowns, measured
 * counts, marks, steps), updated in place.
 * Field order must match bridge.py's _LockstepArgs. */
typedef struct LockstepArgs {
    CoreArgs *cores; /* [ncores] */
    SharedArgs *shared;
    int64_t *cursors;        /* [ncores] records consumed */
    int64_t *warm_remaining; /* [ncores] */
    int64_t *measured;       /* [ncores] */
    uint8_t *marked;         /* [ncores] 1 once the core's mark is taken */
    int64_t *mark_i64;       /* [ncores * MARK_I64] */
    double *mark_f64;        /* [ncores * MARK_F64] */
    int64_t ncores, quota, steps;
} LockstepArgs;

enum { POLICY_LRU = 0, POLICY_SHIP = 1 };

/* CacheStats field order (repro/sim/cache.py). */
enum {
    ST_DEMAND_ACCESSES = 0,
    ST_DEMAND_HITS,
    ST_DEMAND_MISSES,
    ST_LOAD_MISSES,
    ST_PREFETCH_ACCESSES,
    ST_PREFETCH_HITS,
    ST_PREFETCH_MISSES,
    ST_FILLS,
    ST_PREFETCH_FILLS,
    ST_USEFUL_PREFETCHES,
    ST_USELESS_EVICTIONS,
    ST_EVICTIONS,
    ST_COUNT
};

enum { EQF_HAS_REWARD = 1, EQF_FILLED = 2 };
enum { RW_AT = 0, RW_AL, RW_CL, RW_IN_HI, RW_IN_LO, RW_NP_HI, RW_NP_LO };
enum { RA_AT = 0, RA_AL, RA_CL, RA_IN, RA_NP };

enum { SHIP_RRPV_MAX = 3, SHIP_SHCT_SIZE = 1024, SHIP_SHCT_MAX = 7 };

/* Python-semantics modulo / floor division (operands may be negative). */
static inline int64_t imod(int64_t a, int64_t m) {
    int64_t r = a % m;
    return (r != 0 && ((r < 0) != (m < 0))) ? r + m : r;
}

static inline int64_t fdiv(int64_t a, int64_t m) {
    int64_t q = a / m;
    return ((a % m != 0) && ((a < 0) != (m < 0))) ? q - 1 : q;
}

/* ---------------------------------------------------------------------------
 * heapq: CPython's exact _siftdown/_siftup on parallel (comp, line)
 * arrays with lexicographic strict-< compare.
 * ------------------------------------------------------------------------- */

static inline int pair_lt(int64_t c1, int64_t l1, int64_t c2, int64_t l2) {
    return c1 < c2 || (c1 == c2 && l1 < l2);
}

static void heap_siftdown(int64_t *hc, int64_t *hl, int64_t startpos,
                          int64_t pos) {
    int64_t nc = hc[pos], nl = hl[pos];
    while (pos > startpos) {
        int64_t parent = (pos - 1) >> 1;
        if (pair_lt(nc, nl, hc[parent], hl[parent])) {
            hc[pos] = hc[parent];
            hl[pos] = hl[parent];
            pos = parent;
        } else {
            break;
        }
    }
    hc[pos] = nc;
    hl[pos] = nl;
}

static void heap_siftup(int64_t *hc, int64_t *hl, int64_t pos, int64_t endpos) {
    int64_t startpos = pos;
    int64_t nc = hc[pos], nl = hl[pos];
    int64_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        int64_t rightpos = childpos + 1;
        if (rightpos < endpos &&
            !pair_lt(hc[childpos], hl[childpos], hc[rightpos], hl[rightpos])) {
            childpos = rightpos;
        }
        hc[pos] = hc[childpos];
        hl[pos] = hl[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    hc[pos] = nc;
    hl[pos] = nl;
    heap_siftdown(hc, hl, startpos, pos);
}

static inline void heap_push(int64_t *hc, int64_t *hl, int64_t *count,
                             int64_t comp, int64_t line) {
    int64_t n = *count;
    hc[n] = comp;
    hl[n] = line;
    *count = n + 1;
    heap_siftdown(hc, hl, 0, n);
}

static inline void heap_pop(int64_t *hc, int64_t *hl, int64_t *count,
                            int64_t *comp, int64_t *line) {
    int64_t n = *count - 1;
    *comp = hc[0];
    *line = hl[0];
    *count = n;
    if (n > 0) {
        hc[0] = hc[n];
        hl[0] = hl[n];
        heap_siftup(hc, hl, 0, n);
    }
}

/* ---------------------------------------------------------------------------
 * Open-addressing int64 -> int64 map (linear probing, tombstones).
 * Keys are nonnegative (lines / pages); iteration order is never used
 * for anything behavioral, only membership and values.
 * ------------------------------------------------------------------------- */

#define MAP_EMPTY (-1)
#define MAP_TOMB (-2)

typedef struct {
    int64_t *keys;
    int64_t *vals;
    int64_t mask;  /* table size - 1, table size a power of two */
    int64_t count; /* live entries */
    int64_t fill;  /* live + tombstones */
} Map;

static inline uint64_t map_hash(int64_t key) {
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ull;
    return h ^ (h >> 29);
}

static int map_init(Map *m, int64_t expected) {
    int64_t size = 16;
    while (size < expected * 2) {
        size <<= 1;
    }
    m->keys = malloc((size_t)size * sizeof(int64_t));
    m->vals = malloc((size_t)size * sizeof(int64_t));
    if (!m->keys || !m->vals) {
        free(m->keys);
        free(m->vals);
        m->keys = NULL;
        m->vals = NULL;
        return -1;
    }
    for (int64_t i = 0; i < size; i++) {
        m->keys[i] = MAP_EMPTY;
    }
    m->mask = size - 1;
    m->count = 0;
    m->fill = 0;
    return 0;
}

static void map_free(Map *m) {
    free(m->keys);
    free(m->vals);
    m->keys = NULL;
    m->vals = NULL;
}

static int map_put(Map *m, int64_t key, int64_t val);

static int map_grow(Map *m) {
    int64_t old_size = m->mask + 1;
    int64_t *old_keys = m->keys;
    int64_t *old_vals = m->vals;
    int64_t new_size = old_size;
    if (m->count * 4 >= old_size) {
        new_size = old_size * 2; /* genuinely full-ish: double */
    }
    m->keys = malloc((size_t)new_size * sizeof(int64_t));
    m->vals = malloc((size_t)new_size * sizeof(int64_t));
    if (!m->keys || !m->vals) {
        free(m->keys);
        free(m->vals);
        m->keys = old_keys;
        m->vals = old_vals;
        return -1;
    }
    for (int64_t i = 0; i < new_size; i++) {
        m->keys[i] = MAP_EMPTY;
    }
    m->mask = new_size - 1;
    m->count = 0;
    m->fill = 0;
    for (int64_t i = 0; i < old_size; i++) {
        if (old_keys[i] >= 0) {
            map_put(m, old_keys[i], old_vals[i]);
        }
    }
    free(old_keys);
    free(old_vals);
    return 0;
}

static int map_put(Map *m, int64_t key, int64_t val) {
    if ((m->fill + 1) * 3 >= (m->mask + 1) * 2) {
        if (map_grow(m) != 0) {
            return -1;
        }
    }
    int64_t idx = (int64_t)(map_hash(key) & (uint64_t)m->mask);
    int64_t tomb = -1;
    for (;;) {
        int64_t k = m->keys[idx];
        if (k == key) {
            m->vals[idx] = val;
            return 0;
        }
        if (k == MAP_EMPTY) {
            if (tomb >= 0) {
                idx = tomb;
            } else {
                m->fill++;
            }
            m->keys[idx] = key;
            m->vals[idx] = val;
            m->count++;
            return 0;
        }
        if (k == MAP_TOMB && tomb < 0) {
            tomb = idx;
        }
        idx = (idx + 1) & m->mask;
    }
}

/* Returns the value, or -1 when absent (values here are nonnegative). */
static int64_t map_get(const Map *m, int64_t key) {
    int64_t idx = (int64_t)(map_hash(key) & (uint64_t)m->mask);
    for (;;) {
        int64_t k = m->keys[idx];
        if (k == key) {
            return m->vals[idx];
        }
        if (k == MAP_EMPTY) {
            return -1;
        }
        idx = (idx + 1) & m->mask;
    }
}

static int map_has(const Map *m, int64_t key) {
    int64_t idx = (int64_t)(map_hash(key) & (uint64_t)m->mask);
    for (;;) {
        int64_t k = m->keys[idx];
        if (k == key) {
            return 1;
        }
        if (k == MAP_EMPTY) {
            return 0;
        }
        idx = (idx + 1) & m->mask;
    }
}

static void map_del(Map *m, int64_t key) {
    int64_t idx = (int64_t)(map_hash(key) & (uint64_t)m->mask);
    for (;;) {
        int64_t k = m->keys[idx];
        if (k == key) {
            m->keys[idx] = MAP_TOMB;
            m->count--;
            return;
        }
        if (k == MAP_EMPTY) {
            return;
        }
        idx = (idx + 1) & m->mask;
    }
}

/* ---------------------------------------------------------------------------
 * Mersenne Twister: CPython's random.Random draw for draw.
 * State is the 624 MT words + index exactly as random.getstate() holds
 * them, so the bridge round-trips through getstate()/setstate().
 * ------------------------------------------------------------------------- */

typedef struct {
    uint32_t *mt;
    int64_t index;
} Rng;

static uint32_t rng_u32(Rng *r) {
    if (r->index >= 624) {
        uint32_t *mt = r->mt;
        for (int i = 0; i < 624; i++) {
            uint32_t y = (mt[i] & 0x80000000u) | (mt[(i + 1) % 624] & 0x7FFFFFFFu);
            uint32_t next = mt[(i + 397) % 624] ^ (y >> 1);
            if (y & 1u) {
                next ^= 0x9908B0DFu;
            }
            mt[i] = next;
        }
        r->index = 0;
    }
    uint32_t y = r->mt[r->index++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9D2C5680u;
    y ^= (y << 15) & 0xEFC60000u;
    y ^= y >> 18;
    return y;
}

/* random.random(): genrand_res53. */
static double rng_random(Rng *r) {
    uint32_t a = rng_u32(r) >> 5;
    uint32_t b = rng_u32(r) >> 6;
    return ((double)a * 67108864.0 + (double)b) * (1.0 / 9007199254740992.0);
}

/* random.randrange(n) for 0 < n <= 2**32: _randbelow_with_getrandbits. */
static int64_t rng_randrange(Rng *r, int64_t n) {
    int k = 64 - __builtin_clzll((uint64_t)n);
    int64_t v;
    do {
        v = (int64_t)(rng_u32(r) >> (32 - k));
    } while (v >= n);
    return v;
}

/* ---------------------------------------------------------------------------
 * Kernel context: one core's CoreArgs plus the shared state, and the
 * C-internal lookup structures rebuilt at import (maps, page-table LRU
 * links) and scratch buffers.
 * ------------------------------------------------------------------------- */

typedef struct {
    CoreArgs *c;
    SharedArgs *s;
    Map infl;   /* line -> completion (hierarchy._inflight_prefetch) */
    Map merged; /* line -> 1 (hierarchy._merged_inflight) */
    Map byline; /* prefetch line -> EQ slot (eq._by_line) */
    Map pages;  /* page -> page-table slot (extractor._pages) */
    /* page-table LRU: doubly-linked slot list, oldest at head */
    int64_t *pt_prev;
    int64_t *pt_next;
    int64_t pt_head, pt_tail;
    int64_t *evicted_state; /* [nfeat] scratch for the SARSA update */
    int64_t *bases_scratch; /* [3 * nfeat * nplanes] element bases */
    Rng rng;
    double util_capacity; /* (double)(util_window * channels) */
    int64_t util_capacity_i;
} Ctx;

/* -- cache primitives ------------------------------------------------------ */

/* Way holding *line* (Cache._where), or -1.  Lines are non-negative, so
 * an empty way's -1 tag never matches. */
static inline int64_t tag_find(const CacheArgs *k, int64_t set, int64_t line) {
    const int64_t *tags = k->tag + set * k->ways;
    for (int64_t w = 0; w < k->ways; w++) {
        if (tags[w] == line) {
            return w;
        }
    }
    return -1;
}

/* Lowest empty way (Cache._filled[set]: empty ways are the set's
 * suffix), or -1 if the set is full. */
static inline int64_t free_way(const CacheArgs *k, int64_t set) {
    const int64_t *tags = k->tag + set * k->ways;
    for (int64_t w = 0; w < k->ways; w++) {
        if (tags[w] == -1) {
            return w;
        }
    }
    return -1;
}

/* LruPolicy.victim: meta.index(min(meta)) -- first way with minimal tick. */
static inline int64_t lru_victim(const int64_t *meta_a, int64_t ways) {
    int64_t best_way = 0;
    int64_t best = meta_a[0];
    for (int64_t w = 1; w < ways; w++) {
        if (meta_a[w] < best) {
            best = meta_a[w];
            best_way = w;
        }
    }
    return best_way;
}

/* ShipPolicy.victim: first way with maximal RRPV; age all by the gap. */
static inline int64_t ship_victim(int64_t *meta_a, int64_t ways) {
    int64_t best_way = 0;
    int64_t best_rrpv = meta_a[0];
    for (int64_t w = 1; w < ways; w++) {
        if (meta_a[w] > best_rrpv) {
            best_rrpv = meta_a[w];
            best_way = w;
        }
    }
    int64_t age = SHIP_RRPV_MAX - best_rrpv;
    if (age > 0) {
        for (int64_t w = 0; w < ways; w++) {
            meta_a[w] += age;
        }
    }
    return best_way;
}

static inline int64_t ship_signature(int64_t pc) {
    return imod(pc ^ (pc >> 10), SHIP_SHCT_SIZE);
}

static inline void ship_on_fill(CacheArgs *k, int64_t idx, int64_t pc,
                                int is_prefetch) {
    int64_t sig = ship_signature(pc);
    int64_t counter = k->shct[sig];
    k->meta_a[idx] =
        (counter == 0 || is_prefetch) ? SHIP_RRPV_MAX : SHIP_RRPV_MAX - 1;
    k->meta_b[idx] = sig;
    k->meta_c[idx] = 0;
}

static inline void ship_on_evict(CacheArgs *k, int64_t idx) {
    if (!k->meta_c[idx]) {
        int64_t sig = k->meta_b[idx];
        if (k->shct[sig] > 0) {
            k->shct[sig]--;
        }
    }
}

/* Replacement-policy hit update (LruPolicy / ShipPolicy.on_hit). */
static inline void policy_on_hit(CacheArgs *k, int64_t idx) {
    if (k->policy == POLICY_LRU) {
        k->meta_a[idx] = k->tick;
        return;
    }
    k->meta_a[idx] = 0;
    if (!k->meta_c[idx]) {
        k->meta_c[idx] = 1;
        int64_t sig = k->meta_b[idx];
        if (k->shct[sig] < SHIP_SHCT_MAX) {
            k->shct[sig]++;
        }
    }
}

/* Cache.lookup, demand flavor: 0 on a miss, 1 on a hit, HIT_FIRST_USE on
 * the first demand hit to a prefetched line. */
enum { HIT_FIRST_USE = 2 };

static inline int demand_lookup(CacheArgs *k, int64_t set, int64_t line,
                                int is_load) {
    k->tick++;
    k->stats[ST_DEMAND_ACCESSES]++;
    int64_t way = tag_find(k, set, line);
    if (way < 0) {
        k->stats[ST_DEMAND_MISSES]++;
        if (is_load) {
            k->stats[ST_LOAD_MISSES]++;
        }
        return 0;
    }
    int64_t idx = set * k->ways + way;
    policy_on_hit(k, idx);
    k->stats[ST_DEMAND_HITS]++;
    if (k->pf[idx] && !k->used[idx]) {
        k->used[idx] = 1;
        k->stats[ST_USEFUL_PREFETCHES]++;
        return HIT_FIRST_USE;
    }
    return 1;
}

/* Pick the slot a fill of a line absent from *set* takes: the lowest
 * empty way, else the policy's victim (evicted with its bookkeeping).
 * Returns the slot; *useless_tag gets an evicted unused prefetch's line
 * or -1. */
static inline int64_t fill_slot(CacheArgs *k, int64_t set,
                                int64_t *useless_tag) {
    int64_t base = set * k->ways;
    int64_t way = free_way(k, set);
    *useless_tag = -1;
    if (way < 0) {
        int is_lru = k->policy == POLICY_LRU;
        way = is_lru ? lru_victim(k->meta_a + base, k->ways)
                     : ship_victim(k->meta_a + base, k->ways);
        int64_t idx = base + way;
        k->stats[ST_EVICTIONS]++;
        if (k->pf[idx] && !k->used[idx]) {
            k->stats[ST_USELESS_EVICTIONS]++;
            *useless_tag = k->tag[idx];
        }
        if (!is_lru) {
            ship_on_evict(k, idx);
        }
    }
    return base + way;
}

/* Cache.fill, demand flavor (batch.py's inlined L1/L2/LLC demand fill):
 * duplicate fills never downgrade, real pc, is_prefetch=False. */
static void demand_fill(CacheArgs *k, int64_t set, int64_t line, int64_t pc) {
    k->tick++;
    int64_t way = tag_find(k, set, line);
    if (way >= 0) {
        int64_t idx = set * k->ways + way;
        k->pf[idx] = k->pf[idx] && k->used[idx];
        return;
    }
    int64_t useless_tag;
    int64_t idx = fill_slot(k, set, &useless_tag);
    k->tag[idx] = line;
    k->pf[idx] = 0;
    k->used[idx] = 1;
    if (k->policy == POLICY_LRU) {
        k->meta_a[idx] = k->tick;
    } else {
        ship_on_fill(k, idx, pc, 0);
    }
    k->stats[ST_FILLS]++;
}

/* Cache.fill with is_prefetch=as_prefetch (hierarchy.process_fills, with
 * pc=0, and the eager L1 prefetch fill); returns the evicted useless tag
 * or -1. */
static int64_t fill_as(CacheArgs *k, int64_t line, int64_t pc,
                       int as_prefetch) {
    k->tick++;
    int64_t set = imod(line, k->nsets);
    int64_t way = tag_find(k, set, line);
    if (way >= 0) {
        if (!as_prefetch) {
            int64_t idx = set * k->ways + way;
            k->pf[idx] = k->pf[idx] && k->used[idx];
        }
        return -1;
    }
    int64_t useless_tag;
    int64_t idx = fill_slot(k, set, &useless_tag);
    k->tag[idx] = line;
    k->pf[idx] = (uint8_t)(as_prefetch != 0);
    k->used[idx] = (uint8_t)(as_prefetch == 0);
    if (k->policy == POLICY_LRU) {
        k->meta_a[idx] = k->tick;
    } else {
        ship_on_fill(k, idx, pc, as_prefetch);
    }
    k->stats[ST_FILLS]++;
    if (as_prefetch) {
        k->stats[ST_PREFETCH_FILLS]++;
    }
    return useless_tag;
}

/* -- DRAM ------------------------------------------------------------------ */

static inline int64_t ev_phys(const SharedArgs *s, int64_t i) {
    return (s->ev_head + i) & (s->ev_cap - 1);
}

/* Dram.access (repro/sim/dram.py): _Channel.service + rolling-window
 * event recording + Fig 14 bucket charge, fused exactly as the Python. */
static int64_t dram_access(Ctx *x, int64_t line, int64_t now, int is_prefetch) {
    SharedArgs *s = x->s;
    int64_t ch = imod(line, s->channels);
    /* _Channel.service */
    int64_t bank = imod(fdiv(line, s->row_size_lines), s->banks);
    int64_t row = fdiv(line, s->row_size_lines * s->banks);
    double *bank_free = s->ch_bank_free + ch * s->banks;
    int64_t *open_row = s->ch_open_row + ch * s->banks;
    double start = (double)now;
    if (bank_free[bank] > start) {
        start = bank_free[bank];
    }
    double access_latency, bank_occupancy;
    if (open_row[bank] == row) {
        access_latency = (double)s->row_hit_lat;
        bank_occupancy = s->cycles_per_transfer;
        s->ch_row_hits[ch]++;
    } else {
        access_latency = (double)s->row_miss_lat;
        bank_occupancy = (double)s->row_miss_lat;
        open_row[bank] = row;
        s->ch_row_misses[ch]++;
    }
    double transfer = s->cycles_per_transfer;
    double data_at_bank = start + access_latency;
    double transfer_start;
    if (is_prefetch) {
        transfer_start = data_at_bank;
        if (s->ch_bus_free[ch] > transfer_start) {
            transfer_start = s->ch_bus_free[ch];
        }
    } else {
        transfer_start = data_at_bank;
        if (s->ch_demand_bus_free[ch] > transfer_start) {
            transfer_start = s->ch_demand_bus_free[ch];
        }
        s->ch_demand_bus_free[ch] = transfer_start + transfer;
    }
    double completion = transfer_start + transfer;
    bank_free[bank] = start + bank_occupancy;
    if (completion > s->ch_bus_free[ch]) {
        s->ch_bus_free[ch] = completion;
    }
    /* Dram.access bookkeeping */
    s->dram_total++;
    if (is_prefetch) {
        s->dram_prefetch++;
    } else {
        s->dram_demand++;
    }
    s->busy_cycles += transfer;
    s->ev_ts[ev_phys(s, s->ev_count)] = now;
    s->ev_busy[ev_phys(s, s->ev_count)] = transfer;
    s->ev_count++;
    double window_busy = s->window_busy + transfer;
    int64_t cutoff = now - s->util_window;
    while (s->ev_count > 0 && s->ev_ts[s->ev_head] < cutoff) {
        window_busy -= s->ev_busy[s->ev_head];
        s->ev_head = (s->ev_head + 1) & (s->ev_cap - 1);
        s->ev_count--;
    }
    s->window_busy = window_busy;
    int64_t last = s->last_bucket_cycle;
    if (now > last) {
        double util;
        if (x->util_capacity_i > 0) {
            util = window_busy / x->util_capacity;
            if (util > 1.0) {
                util = 1.0;
            }
        } else {
            util = 0.0;
        }
        int idx;
        if (util < 0.25) {
            idx = 0;
        } else if (util < 0.5) {
            idx = 1;
        } else if (util < 0.75) {
            idx = 2;
        } else {
            idx = 3;
        }
        s->bucket_cycles[idx] += (double)(now - last);
        s->last_bucket_cycle = now;
    }
    return (int64_t)completion;
}

/* Dram.utilization: the stale-head rescan (non-mutating). */
static double dram_utilization(const Ctx *x, int64_t now) {
    const SharedArgs *s = x->s;
    int64_t start = now - s->util_window;
    double busy = s->window_busy;
    if (s->ev_count > 0 && s->ev_ts[s->ev_head] < start) {
        for (int64_t i = 0; i < s->ev_count; i++) {
            int64_t p = ev_phys(s, i);
            if (s->ev_ts[p] >= start) {
                break;
            }
            busy -= s->ev_busy[p];
        }
    }
    if (x->util_capacity_i <= 0) {
        return 0.0;
    }
    double u = busy / x->util_capacity;
    return u > 1.0 ? 1.0 : u;
}

/* The bandwidth feedback a training event sees (batch.py's fast path:
 * the record-side drain keeps the event head inside the window, so the
 * busy fraction is the rolling counter unless the head went stale). */
static inline double training_util(const Ctx *x, int64_t now) {
    const SharedArgs *s = x->s;
    if (s->ev_count > 0 && s->ev_ts[s->ev_head] < now - s->util_window) {
        return dram_utilization(x, now);
    }
    if (x->util_capacity_i <= 0) {
        return 0.0;
    }
    double util = s->window_busy / x->util_capacity;
    return util > 1.0 ? 1.0 : util;
}

/* -- MSHR ------------------------------------------------------------------ */

static inline int64_t mshr_find(const CoreArgs *c, int64_t line) {
    for (int64_t i = 0; i < c->mshr_count; i++) {
        if (c->mshr_line[i] == line) {
            return i;
        }
    }
    return -1;
}

static inline void mshr_del(CoreArgs *c, int64_t i) {
    int64_t last = c->mshr_count - 1;
    c->mshr_line[i] = c->mshr_line[last];
    c->mshr_comp[i] = c->mshr_comp[last];
    c->mshr_ispf[i] = c->mshr_ispf[last];
    c->mshr_count = last;
}

/* MshrFile.reclaim: release entries completed by *now*. */
static void mshr_reclaim(CoreArgs *c, int64_t now) {
    while (c->mshrh_count > 0 && c->mshrh_comp[0] <= now) {
        int64_t m_comp, m_line;
        heap_pop(c->mshrh_comp, c->mshrh_line, &c->mshrh_count, &m_comp,
                 &m_line);
        int64_t i = mshr_find(c, m_line);
        if (i >= 0 && c->mshr_comp[i] == m_comp) {
            mshr_del(c, i);
        }
    }
}

/* MshrFile.earliest_completion (lazy stale prune); -1 when empty. */
static int64_t mshr_earliest(CoreArgs *c) {
    while (c->mshrh_count > 0) {
        int64_t comp = c->mshrh_comp[0];
        int64_t line = c->mshrh_line[0];
        int64_t i = mshr_find(c, line);
        if (i >= 0 && c->mshr_comp[i] == comp) {
            return comp;
        }
        int64_t cc, ll;
        heap_pop(c->mshrh_comp, c->mshrh_line, &c->mshrh_count, &cc, &ll);
    }
    return -1;
}

/* MshrFile.allocate. */
static inline void mshr_allocate(CoreArgs *c, int64_t line, int64_t comp,
                                 int is_prefetch) {
    c->mshr_line[c->mshr_count] = line;
    c->mshr_comp[c->mshr_count] = comp;
    c->mshr_ispf[c->mshr_count] = (uint8_t)is_prefetch;
    c->mshr_count++;
    heap_push(c->mshrh_comp, c->mshrh_line, &c->mshrh_count, comp, line);
    c->mshr_allocations++;
}

/* -- Pythia: EQ, features, tile-coded SARSA ------------------------------- */

/* tile_coding.hash_index */
static inline int64_t hash_index(int64_t value, int64_t shift,
                                 int64_t entries) {
    uint32_t v = (uint32_t)((uint64_t)(value >> shift) & 0xFFFFFFFFu);
    v ^= v >> 16;
    v *= 0x85EBCA6Bu;
    v ^= v >> 13;
    v *= 0xC2B2AE35u;
    v ^= v >> 16;
    return (int64_t)(v % (uint32_t)entries);
}

/* Element bases (row * nact) for a state, f-major p-minor row order. */
static void state_bases(const CoreArgs *c, const int64_t *state,
                        int64_t *bases) {
    int64_t entries = c->plane_entries;
    int64_t nact = c->nact;
    for (int64_t f = 0; f < c->nfeat; f++) {
        for (int64_t p = 0; p < c->nplanes; p++) {
            int64_t row = (f * c->nplanes + p) * entries +
                          hash_index(state[f], c->plane_shifts[p], entries);
            bases[f * c->nplanes + p] = row * nact;
        }
    }
}

/* NumpyQVStore._q_one: per-vault left-to-right sum, keep-first max. */
static double q_one(const CoreArgs *c, const int64_t *bases, int64_t action) {
    double best = 0.0;
    int first = 1;
    for (int64_t f = 0; f < c->nfeat; f++) {
        const int64_t *fb = bases + f * c->nplanes;
        double q = c->qcells[fb[0] + action];
        for (int64_t p = 1; p < c->nplanes; p++) {
            q += c->qcells[fb[p] + action];
        }
        if (first || q > best) {
            best = q;
            first = 0;
        }
    }
    return best;
}

/* NumpyQVStore.best_action: keep-first argmax over strict >. */
static int64_t best_action(const CoreArgs *c, const int64_t *bases) {
    int64_t best_a = 0;
    double best_q = q_one(c, bases, 0);
    for (int64_t act = 1; act < c->nact; act++) {
        double q = q_one(c, bases, act);
        if (q > best_q) {
            best_q = q;
            best_a = act;
        }
    }
    return best_a;
}

/* EQ physical slot of fifo position i. */
static inline int64_t eq_slot(const CoreArgs *c, int64_t i) {
    return imod(c->eq_head + i, c->eq_cap);
}

/* EvaluationQueue.mark_filled via on_prefetch_fill. */
static void eq_mark_filled(Ctx *x, int64_t line) {
    int64_t slot = map_get(&x->byline, line);
    if (slot >= 0) {
        x->c->eq_flags[slot] |= EQF_FILLED;
    }
}

/* FeatureExtractor.observe_basic_cols: page-history advance + the two
 * basic feature encodings.  Writes (pc_delta, last4_deltas_fold). */
static int observe_basic_cols(Ctx *x, int64_t pc, int64_t page,
                              int64_t offset, int64_t *s_out) {
    CoreArgs *c = x->c;
    int64_t slot = map_get(&x->pages, page);
    if (slot < 0) {
        if (c->ptab_count < c->ptab_cap) {
            slot = c->ptab_count++;
        } else {
            /* Evict the LRU page first, then reuse its slot: identical
             * to the OrderedDict's insert-then-popitem(last=False)
             * because the just-inserted page is never the oldest. */
            slot = x->pt_head;
            map_del(&x->pages, c->pt_page[slot]);
            x->pt_head = x->pt_next[slot];
            if (x->pt_head >= 0) {
                x->pt_prev[x->pt_head] = -1;
            } else {
                x->pt_tail = -1;
            }
        }
        c->pt_page[slot] = page;
        c->pt_lastoff[slot] = -1;
        c->pt_dlen[slot] = 0;
        c->pt_olen[slot] = 0;
        /* link at tail (most recent) */
        x->pt_prev[slot] = x->pt_tail;
        x->pt_next[slot] = -1;
        if (x->pt_tail >= 0) {
            x->pt_next[x->pt_tail] = slot;
        } else {
            x->pt_head = slot;
        }
        x->pt_tail = slot;
        if (map_put(&x->pages, page, slot) != 0) {
            return -1;
        }
    } else if (slot != x->pt_tail) {
        /* move_to_end */
        int64_t p = x->pt_prev[slot], n = x->pt_next[slot];
        if (p >= 0) {
            x->pt_next[p] = n;
        } else {
            x->pt_head = n;
        }
        x->pt_prev[n] = p;
        x->pt_prev[slot] = x->pt_tail;
        x->pt_next[slot] = -1;
        x->pt_next[x->pt_tail] = slot;
        x->pt_tail = slot;
    }

    int64_t last = c->pt_lastoff[slot];
    int64_t delta = last < 0 ? 0 : offset - last;
    c->pt_lastoff[slot] = offset;
    int64_t *deltas = c->pt_deltas + slot * 4;
    int64_t dlen = c->pt_dlen[slot];
    if (dlen < 4) {
        deltas[dlen] = delta;
        c->pt_dlen[slot] = (uint8_t)(dlen + 1);
        dlen++;
    } else {
        deltas[0] = deltas[1];
        deltas[1] = deltas[2];
        deltas[2] = deltas[3];
        deltas[3] = delta;
    }
    int64_t *offsets = c->pt_offsets + slot * 4;
    int64_t olen = c->pt_olen[slot];
    if (olen < 4) {
        offsets[olen] = offset;
        c->pt_olen[slot] = (uint8_t)(olen + 1);
    } else {
        offsets[0] = offsets[1];
        offsets[1] = offsets[2];
        offsets[2] = offsets[3];
        offsets[3] = offset;
    }
    if (c->lastpc_count < 3) {
        c->last_pcs[c->lastpc_count++] = pc;
    } else {
        c->last_pcs[0] = c->last_pcs[1];
        c->last_pcs[1] = c->last_pcs[2];
        c->last_pcs[2] = pc;
    }

    /* encode_feature(PC_DELTA): _mix(pc, delta & 0x7F), unrolled. */
    uint32_t acc =
        (0x811C9DC5u ^ (uint32_t)((uint64_t)pc & 0xFFFFFFFFu)) * 0x01000193u;
    uint32_t pc_delta =
        (acc ^ (uint32_t)((uint64_t)(delta & 0x7F))) * 0x01000193u;
    /* encode_feature(LAST4_DELTAS): the folded delta sequence. */
    uint32_t fold = 0;
    for (int64_t i = 0; i < dlen; i++) {
        fold = (fold << 7) ^ (uint32_t)((uint64_t)(deltas[i] & 0x7F));
    }
    s_out[0] = (int64_t)pc_delta;
    s_out[1] = (int64_t)fold;
    return 0;
}

/* Pythia.train_cols (Algorithm 1).  Returns the prefetch line to issue,
 * or -1 for none; RC_NOMEM on allocation failure. */
static int64_t train_cols(Ctx *x, int64_t pc, int64_t line, int64_t page,
                          int64_t offset, int bw_high) {
    CoreArgs *c = x->c;

    /* (1) Reward a resident entry whose prefetch this demand vindicates. */
    int64_t vslot = map_get(&x->byline, line);
    if (vslot >= 0 && !(c->eq_flags[vslot] & EQF_HAS_REWARD)) {
        if (c->eq_flags[vslot] & EQF_FILLED) {
            c->eq_reward[vslot] = c->rw[RW_AT];
            c->rw_assigned[RA_AT]++;
        } else {
            c->eq_reward[vslot] = c->rw[RW_AL];
            c->rw_assigned[RA_AL]++;
        }
        c->eq_flags[vslot] |= EQF_HAS_REWARD;
    }

    /* (2) Extract the state-vector. */
    int64_t state[2];
    if (observe_basic_cols(x, pc, page, offset, state) != 0) {
        return RC_NOMEM;
    }

    /* (3) Select an action (SarsaAgent.select_action). */
    int64_t *bases = x->bases_scratch; /* current state's bases */
    state_bases(c, state, bases);
    int64_t action;
    if (rng_random(&x->rng) <= c->epsilon) {
        c->agent_explorations++;
        action = rng_randrange(&x->rng, c->nact);
    } else {
        action = best_action(c, bases);
    }
    c->act_counts[action]++;
    int64_t offset_delta = c->act_deltas[action];

    /* (4) Generate the prefetch / classify degenerate actions. */
    int64_t prefetch_line = -1;
    double new_reward = 0.0;
    uint8_t new_flags = 0;
    int64_t target_offset = offset + offset_delta;
    if (offset_delta == 0) {
        new_reward = bw_high ? c->rw[RW_NP_HI] : c->rw[RW_NP_LO];
        new_flags = EQF_HAS_REWARD;
        c->rw_assigned[RA_NP]++;
    } else if (!(0 <= target_offset && target_offset < c->lines_per_page)) {
        new_reward = c->rw[RW_CL];
        new_flags = EQF_HAS_REWARD;
        c->rw_assigned[RA_CL]++;
    } else {
        prefetch_line = (page << c->page_shift) | target_offset;
    }

    /* (5) Insert; eviction assigns R_IN + the SARSA update
     * (SarsaAgent.record). */
    int have_evicted = 0;
    int64_t ev_action = 0;
    double ev_reward = 0.0;
    if (c->eq_count >= c->eq_cap) {
        int64_t slot_e = c->eq_head;
        /* Copy the evicted entry before the slot is overwritten. */
        have_evicted = 1;
        for (int64_t f = 0; f < c->nfeat; f++) {
            x->evicted_state[f] = c->eq_state[slot_e * c->nfeat + f];
        }
        ev_action = c->eq_action[slot_e];
        int64_t ev_line = c->eq_line[slot_e];
        if (c->eq_flags[slot_e] & EQF_HAS_REWARD) {
            ev_reward = c->eq_reward[slot_e];
        } else {
            ev_reward = bw_high ? c->rw[RW_IN_HI] : c->rw[RW_IN_LO];
            c->rw_assigned[RA_IN]++;
        }
        if (ev_line >= 0 && map_get(&x->byline, ev_line) == slot_e) {
            map_del(&x->byline, ev_line);
        }
        c->eq_head = imod(c->eq_head + 1, c->eq_cap);
        c->eq_count--;
    }
    int64_t slot_n = eq_slot(c, c->eq_count);
    for (int64_t f = 0; f < c->nfeat; f++) {
        c->eq_state[slot_n * c->nfeat + f] = state[f];
    }
    c->eq_action[slot_n] = action;
    c->eq_line[slot_n] = prefetch_line;
    c->eq_reward[slot_n] = new_reward;
    c->eq_flags[slot_n] = new_flags;
    c->eq_count++;
    if (prefetch_line >= 0) {
        if (map_put(&x->byline, prefetch_line, slot_n) != 0) {
            return RC_NOMEM;
        }
    }

    if (have_evicted) {
        /* Head after the insert (never empty here). */
        int64_t slot_h = c->eq_head;
        int64_t *bases_e = x->bases_scratch + c->nfeat * c->nplanes;
        int64_t *bases_h = x->bases_scratch + 2 * c->nfeat * c->nplanes;
        state_bases(c, x->evicted_state, bases_e);
        int64_t next_action = c->eq_action[slot_h];
        state_bases(c, c->eq_state + slot_h * c->nfeat, bases_h);
        /* NumpyQVStore.sarsa_update */
        double q_sa = q_one(c, bases_e, ev_action);
        double q_next = q_one(c, bases_h, next_action);
        double td_error = ev_reward + c->gamma * q_next - q_sa;
        double step = c->alpha * td_error;
        for (int64_t r = 0; r < c->nfeat * c->nplanes; r++) {
            int64_t e = bases_e[r] + ev_action;
            c->qcells[e] = c->qcells[e] + step;
        }
        c->agent_updates++;
    }
    return prefetch_line;
}

/* -- prefetch issue, fills and the Python hooks ---------------------------- */

/* Call outcome hook *fn* if the prefetcher overrides it; RC_HOOK_ABORT
 * once it (or any earlier hook) raised. */
static inline int64_t outcome(const HookArgs *h, OutcomeHook fn, int64_t line,
                              int64_t cycle) {
    if (fn == NULL) {
        return 0;
    }
    fn(line, cycle);
    return *h->abort ? RC_HOOK_ABORT : 0;
}

/* Call training hook *fn* with one access's fields; returns the candidate
 * count (candidates in h->cand) or a negative rc. */
static int64_t train_hook(Ctx *x, TrainHook fn, int64_t pc, int64_t line,
                          int64_t page, int64_t offset, int is_load,
                          int64_t now) {
    const HookArgs *h = &x->c->hooks;
    double util = training_util(x, now);
    int64_t n = fn(pc, line, page, offset, now, is_load != 0, util,
                   util >= x->c->hi_thresh);
    if (*h->abort) {
        return RC_HOOK_ABORT;
    }
    return (n < 0 || n > h->cand_cap) ? RC_HOOK_COUNT : n;
}

/* CacheHierarchy._fetch_for_prefetch: send a prefetch to the LLC/DRAM.
 * Returns its completion, -1 when dropped (MSHR hit or MSHRs full), or
 * RC_NOMEM. */
static int64_t fetch_for_prefetch(Ctx *x, int64_t pf, int64_t now) {
    CoreArgs *c = x->c;
    CacheArgs *llc = &x->s->llc;
    /* LLC prefetch lookup (Cache.lookup, prefetch flavor). */
    int64_t sp = imod(pf, llc->nsets);
    llc->tick++;
    llc->stats[ST_PREFETCH_ACCESSES]++;
    int64_t wp = tag_find(llc, sp, pf);
    int64_t comp;
    if (wp >= 0) {
        policy_on_hit(llc, sp * llc->ways + wp);
        llc->stats[ST_PREFETCH_HITS]++;
        comp = now + llc->lat;
    } else {
        llc->stats[ST_PREFETCH_MISSES]++;
        if (mshr_find(c, pf) >= 0 || c->mshr_count >= c->mshr_cap) {
            return -1;
        }
        comp = dram_access(x, pf, now + llc->lat, 1);
        mshr_allocate(c, pf, comp, 1);
    }
    heap_push(c->pend_comp, c->pend_line, &c->pend_count, comp, pf);
    return map_put(&x->infl, pf, comp) != 0 ? RC_NOMEM : comp;
}

/* CacheHierarchy._issue_prefetches: order-preserving dedup, degree cap,
 * then the negative / out-of-page / L2 / LLC / in-flight filters. */
static int64_t issue_prefetches(Ctx *x, const int64_t *cand, int64_t n,
                                int64_t page, int64_t now) {
    CoreArgs *c = x->c;
    CacheArgs *l2 = &c->l2, *llc = &x->s->llc;
    int64_t issued = 0;
    for (int64_t i = 0; i < n && issued < c->max_degree; i++) {
        int64_t pf = cand[i];
        int dup = 0;
        for (int64_t j = 0; j < i && !dup; j++) {
            dup = cand[j] == pf;
        }
        if (dup || pf < 0 || (pf >> c->page_shift) != page ||
            tag_find(l2, imod(pf, l2->nsets), pf) >= 0 ||
            tag_find(llc, imod(pf, llc->nsets), pf) >= 0 ||
            map_has(&x->infl, pf)) {
            continue;
        }
        int64_t comp = fetch_for_prefetch(x, pf, now);
        if (comp == RC_NOMEM) {
            return RC_NOMEM;
        }
        if (comp < 0) {
            c->pf_dropped++;
            int64_t rc = outcome(&c->hooks, c->hooks.on_dropped, pf, now);
            if (rc != 0) {
                return rc;
            }
            continue;
        }
        issued++;
        c->pf_issued++;
    }
    return 0;
}

/* CacheHierarchy._train_l1_prefetcher: the first max_degree candidates
 * not already in L1 are fetched like L2 prefetches and filled into L1
 * at once with the demand's pc; nothing is counted as issued. */
static int64_t train_l1(Ctx *x, int64_t pc, int64_t line, int64_t page,
                        int64_t offset, int is_load, int64_t now) {
    CoreArgs *c = x->c;
    CacheArgs *l1 = &c->l1;
    int64_t n = train_hook(x, c->hooks.l1_train, pc, line, page, offset,
                           is_load, now);
    if (n < 0) {
        return n;
    }
    if (n > c->max_degree) {
        n = c->max_degree;
    }
    const int64_t *cand = c->hooks.cand;
    for (int64_t i = 0; i < n; i++) {
        int64_t pf = cand[i];
        if (pf < 0 || tag_find(l1, imod(pf, l1->nsets), pf) >= 0) {
            continue;
        }
        int64_t comp = fetch_for_prefetch(x, pf, now);
        if (comp == RC_NOMEM) {
            return RC_NOMEM;
        }
        if (comp >= 0) {
            fill_as(l1, pf, pc, 1);
        }
    }
    return 0;
}

/* CacheHierarchy.process_fills: apply arrived prefetch fills. */
static int64_t process_fills(Ctx *x, int64_t now) {
    CoreArgs *c = x->c;
    const HookArgs *h = &c->hooks;
    while (c->pend_count > 0 && c->pend_comp[0] <= now) {
        int64_t completion, line, rc;
        heap_pop(c->pend_comp, c->pend_line, &c->pend_count, &completion,
                 &line);
        map_del(&x->infl, line);
        int as_prefetch = !map_has(&x->merged, line);
        map_del(&x->merged, line);
        int64_t useless = fill_as(&x->s->llc, line, 0, as_prefetch);
        if (useless >= 0 &&
            (rc = outcome(h, h->on_useless, useless, completion)) != 0) {
            return rc;
        }
        fill_as(&c->l2, line, 0, as_prefetch);
        if (c->train == TRAIN_PYTHIA) {
            eq_mark_filled(x, line); /* Pythia.on_prefetch_fill */
        } else if ((rc = outcome(h, h->on_fill, line, completion)) != 0) {
            return rc;
        }
    }
    return 0;
}

/* ---------------------------------------------------------------------------
 * The per-record body: one trace record through one core's hierarchy
 * (batch.py's loop body, op for op).  Returns 0, or a negative rc.
 * ------------------------------------------------------------------------- */

/* Room for one more record in every variable-size array it may grow:
 * up to max_degree prefetches each from the L2 and the L1 prefetcher. */
static inline int has_headroom(const Ctx *x) {
    const CoreArgs *c = x->c;
    int64_t d = c->max_degree * (c->hooks.l1_train != NULL ? 2 : 1);
    return c->pend_count + d + 1 <= c->pend_cap &&
           c->mshrh_count + d + 2 <= c->mshrh_cap &&
           x->infl.count + d + 1 <= c->infl_cap &&
           x->merged.count + 2 <= c->merged_cap &&
           x->s->ev_count + d + 2 <= x->s->ev_cap;
}

/* Always inlined: it is the hot body of both entry points' loops. */
static inline __attribute__((always_inline)) int64_t replay_record(Ctx *x,
                                                                    int64_t i) {
    CoreArgs *c = x->c;
    SharedArgs *s = x->s;
    CacheArgs *l1 = &c->l1, *l2 = &c->l2, *llc = &s->llc;
    const int64_t width = c->width;
    const int64_t rob = c->rob_size;
    const double recip = 1.0 / (double)width;
    double cycle = c->cycle;
    int64_t instructions = c->instructions;
    double stall_cycles = c->stall_cycles;
    int64_t cycle_int = c->cycle_int;
    const int64_t out_mask = c->out_cap - 1;

#define OUT_ISSUED(j) c->out_issued[(c->out_head + (j)) & out_mask]
#define OUT_COMP(j) c->out_comp[(c->out_head + (j)) & out_mask]
#define OUT_POPLEFT()                                                          \
    do {                                                                       \
        c->out_head = (c->out_head + 1) & out_mask;                            \
        c->out_count--;                                                        \
    } while (0)
#define OUT_DRAIN()                                                            \
    while (c->out_count > 0 && (double)OUT_COMP(0) <= cycle) {                 \
        OUT_POPLEFT();                                                         \
    }
/* CoreModel._enforce_rob: stall on the oldest load once the ROB filled
 * behind it (the stall leaves cycle a Python int). */
#define ENFORCE_ROB()                                                          \
    while (c->out_count > 0) {                                                 \
        int64_t issued_at = OUT_ISSUED(0);                                     \
        int64_t wait_c = OUT_COMP(0);                                          \
        if (instructions - issued_at < rob) {                                  \
            break;                                                             \
        }                                                                      \
        if ((double)wait_c > cycle) {                                          \
            stall_cycles += (double)wait_c - cycle;                            \
            cycle = (double)wait_c;                                            \
            cycle_int = 1;                                                     \
        }                                                                      \
        OUT_POPLEFT();                                                         \
        OUT_DRAIN();                                                           \
    }

    const int64_t pc = c->col_pc[i];
    const int64_t line = c->col_line[i];
    const int is_load = c->col_load[i] != 0;
    const int64_t gap = c->col_gap[i];
    const int64_t page = c->col_page[i];
    const int64_t offset = c->col_offset[i];
    const int64_t s1 = imod(line, l1->nsets);
    const int64_t s2 = imod(line, l2->nsets);
    const int64_t s3 = imod(line, llc->nsets);

    /* -- CoreModel.advance(gap) ------------------------------------------ */
    if (gap > 0) {
        instructions += gap;
        cycle += (double)gap / (double)width;
        cycle_int = 0;
        if (c->out_count > 0) {
            OUT_DRAIN();
            ENFORCE_ROB();
        }
    }

    /* -- CacheHierarchy.demand_access ------------------------------------ */
    int64_t now = (int64_t)cycle;
    int64_t rc;
    if (c->pend_count > 0 && c->pend_comp[0] <= now &&
        (rc = process_fills(x, now)) != 0) {
        return rc;
    }
    if (c->mshrh_count > 0 && c->mshrh_comp[0] <= now) {
        mshr_reclaim(c, now);
    }
    if (c->hooks.l1_train != NULL &&
        (rc = train_l1(x, pc, line, page, offset, is_load, now)) != 0) {
        return rc;
    }

    int64_t completion;
    if (demand_lookup(l1, s1, line, is_load)) {
        completion = now + l1->lat;
    } else {
        /* L1 miss: the prefetcher's training event. */
        if (c->train == TRAIN_PYTHIA) {
            int64_t pf = train_cols(x, pc, line, page, offset,
                                    training_util(x, now) >= c->hi_thresh);
            if (pf == RC_NOMEM) {
                return RC_NOMEM;
            }
            if (pf >= 0 && (rc = issue_prefetches(x, &pf, 1, page, now)) != 0) {
                return rc;
            }
        } else if (c->train == TRAIN_HOOK) {
            int64_t n = train_hook(x, c->hooks.train, pc, line, page, offset,
                                   is_load, now);
            if (n < 0) {
                return n;
            }
            if ((rc = issue_prefetches(x, c->hooks.cand, n, page, now)) != 0) {
                return rc;
            }
        }

        int fill_l1 = 1, fill_l2 = 0;
        int hit = demand_lookup(l2, s2, line, is_load);
        if (hit) {
            if (hit == HIT_FIRST_USE &&
                (rc = outcome(&c->hooks, c->hooks.on_hit, line, now)) != 0) {
                return rc;
            }
            completion = now + l2->lat;
        } else {
            int64_t in_comp = map_get(&x->infl, line);
            if (in_comp >= 0) {
                /* Late in-flight prefetch: merge, wait the rest. */
                c->late_merges++;
                if (map_put(&x->merged, line, 1) != 0) {
                    return RC_NOMEM;
                }
                llc->stats[ST_DEMAND_ACCESSES]++;
                llc->stats[ST_DEMAND_HITS]++;
                llc->stats[ST_USEFUL_PREFETCHES]++;
                if ((rc = outcome(&c->hooks, c->hooks.on_hit, line, now)) != 0) {
                    return rc;
                }
                int64_t base = now + llc->lat;
                completion = in_comp > base ? in_comp : base;
            } else if ((hit = demand_lookup(llc, s3, line, is_load)) != 0) {
                if (hit == HIT_FIRST_USE &&
                    (rc = outcome(&c->hooks, c->hooks.on_hit, line, now)) != 0) {
                    return rc;
                }
                completion = now + llc->lat;
                fill_l2 = 1;
            } else {
                int64_t m = mshr_find(c, line);
                if (m >= 0) {
                    /* Merge into the outstanding miss: no L1/L2 fill. */
                    int64_t base = now + llc->lat;
                    int64_t m_comp = c->mshr_comp[m];
                    completion = m_comp > base ? m_comp : base;
                    fill_l1 = 0;
                } else {
                    if (c->mshr_count >= c->mshr_cap) {
                        /* Structural stall. */
                        c->mshr_stalls++;
                        int64_t wait_until = mshr_earliest(c);
                        if (wait_until < 0) {
                            return RC_MSHR;
                        }
                        mshr_reclaim(c, wait_until);
                        if (wait_until > now) {
                            now = wait_until;
                        }
                    }
                    completion = dram_access(x, line, now + llc->lat, 0);
                    mshr_allocate(c, line, completion, 0);
                    demand_fill(llc, s3, line, pc);
                    fill_l2 = 1;
                }
            }
            if (fill_l2) {
                demand_fill(l2, s2, line, pc);
            }
        }
        if (fill_l1) {
            demand_fill(l1, s1, line, pc);
        }
    }

    /* -- CoreModel.issue_load(completion) -------------------------------- */
    instructions += 1;
    cycle += recip;
    cycle_int = 0;
    if (c->out_count > 0) {
        OUT_DRAIN();
    }
    if ((double)completion > cycle) {
        if (c->out_count >= c->out_cap) {
            return RC_ROB;
        }
        int64_t tail = (c->out_head + c->out_count) & out_mask;
        c->out_issued[tail] = instructions;
        c->out_comp[tail] = completion;
        c->out_count++;
    }
    ENFORCE_ROB();

#undef OUT_ISSUED
#undef OUT_COMP
#undef OUT_POPLEFT
#undef OUT_DRAIN
#undef ENFORCE_ROB

    c->cycle = cycle;
    c->instructions = instructions;
    c->stall_cycles = stall_cycles;
    c->cycle_int = cycle_int;
    return 0;
}

/* ---------------------------------------------------------------------------
 * Import / export: rebuild the C-side lookup structures from the arrays,
 * and write them back (plus linearized rings) at a record boundary.
 * ------------------------------------------------------------------------- */

static void ctx_close(Ctx *x) {
    map_free(&x->infl);
    map_free(&x->merged);
    map_free(&x->byline);
    map_free(&x->pages);
    free(x->pt_prev);
    free(x->pt_next);
    free(x->evicted_state);
    free(x->bases_scratch);
}

/* Returns 0, or -2 on allocation failure (the caller closes *x*). */
static int64_t ctx_open(Ctx *x, CoreArgs *c, SharedArgs *s) {
    memset(x, 0, sizeof(*x));
    x->c = c;
    x->s = s;
    x->rng.mt = c->mt;
    x->rng.index = c->mt_index;
    x->util_capacity_i = s->util_window * s->channels;
    x->util_capacity = (double)x->util_capacity_i;

    if (map_init(&x->infl, c->infl_cap) != 0 ||
        map_init(&x->merged, c->merged_cap) != 0) {
        return RC_NOMEM;
    }
    for (int64_t i = 0; i < c->infl_count; i++) {
        if (map_put(&x->infl, c->infl_line[i], c->infl_comp[i]) != 0) {
            return RC_NOMEM;
        }
    }
    for (int64_t i = 0; i < c->merged_count; i++) {
        if (map_put(&x->merged, c->merged_line[i], 1) != 0) {
            return RC_NOMEM;
        }
    }
    if (c->train != TRAIN_PYTHIA) {
        return 0;
    }
    if (map_init(&x->byline, c->eq_cap) != 0 ||
        map_init(&x->pages, c->ptab_cap) != 0) {
        return RC_NOMEM;
    }
    /* eq._by_line == most recent FIFO entry per prefetch line. */
    for (int64_t i = 0; i < c->eq_count; i++) {
        int64_t slot = eq_slot(c, i);
        if (c->eq_line[slot] >= 0) {
            if (map_put(&x->byline, c->eq_line[slot], slot) != 0) {
                return RC_NOMEM;
            }
        }
    }
    x->pt_prev = malloc((size_t)c->ptab_cap * sizeof(int64_t));
    x->pt_next = malloc((size_t)c->ptab_cap * sizeof(int64_t));
    x->evicted_state = malloc((size_t)c->nfeat * sizeof(int64_t));
    x->bases_scratch =
        malloc((size_t)(3 * c->nfeat * c->nplanes) * sizeof(int64_t));
    if (!x->pt_prev || !x->pt_next || !x->evicted_state || !x->bases_scratch) {
        return RC_NOMEM;
    }
    /* Chain the slots in the LRU order the bridge passed. */
    x->pt_head = c->ptab_count > 0 ? c->pt_order[0] : -1;
    x->pt_tail = c->ptab_count > 0 ? c->pt_order[c->ptab_count - 1] : -1;
    for (int64_t i = 0; i < c->ptab_count; i++) {
        int64_t slot = c->pt_order[i];
        x->pt_prev[slot] = i > 0 ? c->pt_order[i - 1] : -1;
        x->pt_next[slot] = i + 1 < c->ptab_count ? c->pt_order[i + 1] : -1;
        if (map_put(&x->pages, c->pt_page[slot], slot) != 0) {
            return RC_NOMEM;
        }
    }
    return 0;
}

static int64_t export_map_pairs(const Map *m, int64_t *keys, int64_t *vals) {
    int64_t n = 0;
    for (int64_t i = 0; i <= m->mask; i++) {
        if (m->keys[i] >= 0) {
            keys[n] = m->keys[i];
            if (vals) {
                vals[n] = m->vals[i];
            }
            n++;
        }
    }
    return n;
}

/* Rotate a ring of *count* elements of *size* bytes so its head lands at
 * index 0. */
static int ring_linearize(void *arr, size_t size, int64_t head, int64_t count,
                          int64_t cap) {
    if (head == 0 || count == 0) {
        return 0;
    }
    char *base = arr;
    char *tmp = malloc((size_t)count * size);
    if (!tmp) {
        return -1;
    }
    for (int64_t i = 0; i < count; i++) {
        memcpy(tmp + (size_t)i * size, base + (size_t)((head + i) % cap) * size,
               size);
    }
    memcpy(base, tmp, (size_t)count * size);
    free(tmp);
    return 0;
}

/* Write the page table's LRU order (oldest first) into pt_order. */
static void export_page_order(Ctx *x) {
    int64_t k = 0;
    for (int64_t slot = x->pt_head; slot >= 0 && k < x->c->ptab_count;
         slot = x->pt_next[slot]) {
        x->c->pt_order[k++] = slot;
    }
}

/* Write one core's C-side structures back into its arrays. */
static int64_t ctx_export(Ctx *x) {
    CoreArgs *c = x->c;
    c->mt_index = x->rng.index;
    c->infl_count = export_map_pairs(&x->infl, c->infl_line, c->infl_comp);
    c->merged_count = export_map_pairs(&x->merged, c->merged_line, NULL);
    if (ring_linearize(c->out_issued, sizeof(int64_t), c->out_head,
                       c->out_count, c->out_cap) != 0 ||
        ring_linearize(c->out_comp, sizeof(int64_t), c->out_head, c->out_count,
                       c->out_cap) != 0) {
        return RC_NOMEM;
    }
    c->out_head = 0;
    if (c->train == TRAIN_PYTHIA) {
        export_page_order(x);
    }
    return 0;
}

/* Linearize the shared DRAM event ring. */
static int64_t shared_export(SharedArgs *s) {
    if (ring_linearize(s->ev_ts, sizeof(int64_t), s->ev_head, s->ev_count,
                       s->ev_cap) != 0 ||
        ring_linearize(s->ev_busy, sizeof(double), s->ev_head, s->ev_count,
                       s->ev_cap) != 0) {
        return RC_NOMEM;
    }
    s->ev_head = 0;
    return 0;
}

/* ---------------------------------------------------------------------------
 * Entry points.
 * ------------------------------------------------------------------------- */

/* Size of argument struct *which* (0 core, 1 shared, 2 lockstep), or -1:
 * the bridge checks its ctypes mirrors against these at load. */
int64_t repro_abi_sizeof(int64_t which) {
    switch (which) {
    case 0:
        return (int64_t)sizeof(CoreArgs);
    case 1:
        return (int64_t)sizeof(SharedArgs);
    case 2:
        return (int64_t)sizeof(LockstepArgs);
    default:
        return -1;
    }
}

int64_t repro_replay_span(CoreArgs *c, SharedArgs *s) {
    Ctx x;
    int64_t rc = ctx_open(&x, c, s);
    int64_t i = c->start;
    for (; rc == 0 && i < c->stop; i++) {
        /* Capacity headroom: bail at a record boundary, the bridge
         * grows the arrays and re-enters. */
        if (!has_headroom(&x)) {
            rc = 1;
            break;
        }
        rc = replay_record(&x, i);
        if (rc != 0) {
            break;
        }
    }
    c->processed = i - c->start;
    if (rc >= 0 && (ctx_export(&x) != 0 || shared_export(s) != 0)) {
        rc = RC_NOMEM;
    }
    ctx_close(&x);
    return rc;
}

/* CounterMark.capture for core k, on the step its warmup ends. */
static void take_mark(LockstepArgs *l, int64_t k) {
    const CoreArgs *c = &l->cores[k];
    const SharedArgs *s = l->shared;
    int64_t *m = l->mark_i64 + k * MARK_I64;
    double *f = l->mark_f64 + k * MARK_F64;
    m[0] = c->instructions;
    m[1] = c->cycle_int;
    memcpy(m + 2, s->llc.stats, ST_COUNT * sizeof(int64_t));
    memcpy(m + 2 + ST_COUNT, c->l2.stats, ST_COUNT * sizeof(int64_t));
    m[26] = s->dram_total;
    m[27] = s->dram_demand;
    m[28] = s->dram_prefetch;
    m[29] = c->pf_issued;
    m[30] = c->late_merges;
    f[0] = c->cycle;
    f[1] = c->stall_cycles;
    l->marked[k] = 1;
}

/* MultiCoreEngine.run's lockstep loop (with _step inlined): the earliest
 * core still short of its quota replays its next record (cursor modulo
 * its trace length, so exhausted traces wrap), lowest index first on
 * ties, until every core has measured the quota. */
int64_t repro_replay_lockstep(LockstepArgs *l) {
    const int64_t n = l->ncores;
    const int64_t quota = l->quota;
    int64_t rc = 0;
    Ctx *xs = calloc((size_t)(n > 0 ? n : 1), sizeof(Ctx));
    if (!xs) {
        return RC_NOMEM;
    }
    for (int64_t k = 0; k < n && rc == 0; k++) {
        rc = ctx_open(&xs[k], &l->cores[k], l->shared);
    }
    while (rc == 0) {
        int64_t k = -1;
        double earliest = 0.0;
        for (int64_t j = 0; j < n; j++) {
            if (l->measured[j] < quota && (k < 0 || l->cores[j].cycle < earliest)) {
                k = j;
                earliest = l->cores[j].cycle;
            }
        }
        if (k < 0) {
            break;
        }
        Ctx *x = &xs[k];
        if (x->c->trace_len <= 0) {
            rc = RC_EMPTY_TRACE;
            break;
        }
        if (!has_headroom(x)) {
            rc = 1;
            break;
        }
        rc = replay_record(x, l->cursors[k] % x->c->trace_len);
        if (rc != 0) {
            break;
        }
        l->cursors[k]++;
        if (l->warm_remaining[k] > 0) {
            if (--l->warm_remaining[k] == 0) {
                take_mark(l, k);
            }
        } else {
            if (!l->marked[k]) {
                take_mark(l, k);
            }
            l->measured[k]++;
        }
        l->steps++;
    }
    if (rc >= 0) {
        for (int64_t k = 0; k < n; k++) {
            if (ctx_export(&xs[k]) != 0) {
                rc = RC_NOMEM;
            }
        }
        if (shared_export(l->shared) != 0) {
            rc = RC_NOMEM;
        }
    }
    for (int64_t k = 0; k < n; k++) {
        ctx_close(&xs[k]);
    }
    free(xs);
    return rc;
}
