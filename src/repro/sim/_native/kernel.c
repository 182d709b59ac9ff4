/* Native replay kernel: the batched-epoch loop compiled to C.
 *
 * This translation unit replays a record span through one core +
 * hierarchy exactly like repro.sim.batch.replay_span — same operations,
 * on the same state, in the same order — with every Python structure
 * imported into flat arrays by repro.sim._native.bridge before the call
 * and exported back after it (the caches' per-slot lists map one to one
 * onto the cache_* arrays).  Bit-identity with the Python kernels is
 * the hard invariant: every double below is computed with the exact
 * operand order of the matching Python expression (IEEE-754 doubles ==
 * Python floats when op order matches; the build passes -ffp-contract=off
 * so no fused multiply-adds perturb rounding), every int is 64-bit
 * two's complement, and the Mersenne Twister + randrange/ random()
 * implementations reproduce CPython's random.Random draw for draw.
 *
 * Mirrored sources (keep in sync; tests/test_hotpath_equivalence.py
 * pins the equivalence):
 *   repro/sim/batch.py        -- the record loop replayed here
 *   repro/sim/hierarchy.py    -- process_fills
 *   repro/sim/cache.py        -- lookup/fill bookkeeping, CacheStats order
 *   repro/sim/replacement.py  -- LruPolicy / ShipPolicy
 *   repro/sim/mshr.py         -- reclaim / allocate / earliest_completion
 *   repro/sim/dram.py         -- _Channel.service, Dram.access/utilization
 *   repro/sim/core.py         -- advance / issue_load / _enforce_rob
 *   repro/core/pythia.py      -- train_cols (Algorithm 1)
 *   repro/core/features.py    -- observe_basic_cols
 *   repro/core/qvstore.py     -- q_one / best_action / sarsa_update
 *   repro/core/eq.py          -- EvaluationQueue
 *   repro/core/tile_coding.py -- hash_index
 *
 * Heaps use CPython's exact heapq siftdown/siftup with lexicographic
 * (completion, line) compare so imported heap lists round-trip as valid
 * heaps; keys are unique, so pop order is content-determined either way.
 *
 * Entry point: repro_replay_span(ReplayArgs *).  Returns 0 when the
 * span completed, 1 when a capacity ran out (state is exported at a
 * record boundary; the bridge grows the arrays and re-enters), negative
 * on an internal invariant violation (state NOT exported; the bridge
 * raises and the engine's pre-span state stays consistent).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Field order must match bridge.py's ReplayArgs ctypes.Structure. */
typedef struct ReplayArgs {
    /* trace columns (full arrays; start/stop index into them) */
    const int64_t *col_pc;
    const int64_t *col_line;
    const uint8_t *col_load;
    const int64_t *col_gap;
    const int64_t *col_page;
    const int64_t *col_offset;
    /* caches, [0]=L1 [1]=L2 [2]=LLC; arrays are nsets*ways slots,
     * slot = set * ways + way (Cache's flat per-slot lists) */
    int64_t *cache_tag[3];        /* resident line, -1 == empty way */
    uint8_t *cache_pf[3];         /* prefetched bit */
    uint8_t *cache_used[3];       /* used bit */
    int64_t *cache_meta_a[3];     /* LRU tick or SHiP rrpv */
    int64_t *cache_meta_b[3];     /* SHiP sig */
    uint8_t *cache_meta_c[3];     /* SHiP reused */
    int64_t *cache_stats[3];      /* 12 counters, CacheStats field order */
    int64_t *cache_shct[3];       /* 1024 counters when policy==ship */
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
    /* DRAM: utilization events (linearized ring) + per-channel state */
    int64_t *ev_ts;
    double *ev_busy;
    double *ch_bus_free;
    double *ch_demand_bus_free;
    double *ch_bank_free;         /* channels*banks */
    int64_t *ch_open_row;         /* channels*banks */
    int64_t *ch_row_hits;
    int64_t *ch_row_misses;
    double *bucket_cycles;        /* [4] */
    /* core: outstanding loads (linearized ring) */
    int64_t *out_issued;
    int64_t *out_comp;
    /* Pythia (NULL / 0 when train == 0) */
    double *qcells;
    int64_t *act_deltas;          /* [nact] action offset deltas */
    int64_t *act_counts;          /* [nact] */
    double *rw;                   /* [7] AT AL CL IN_HI IN_LO NP_HI NP_LO */
    int64_t *rw_assigned;         /* [5] at al cl in np */
    int64_t *eq_state;            /* [eq_cap * nfeat] */
    int64_t *eq_action;
    int64_t *eq_line;             /* -1 == no prefetch line */
    double *eq_reward;
    uint8_t *eq_flags;            /* bit0 has_reward, bit1 filled */
    int64_t *pt_page;             /* page table slots, oldest-first */
    int64_t *pt_lastoff;
    int64_t *pt_deltas;           /* [ptab_cap * 4] */
    int64_t *pt_offsets;          /* [ptab_cap * 4] */
    uint8_t *pt_dlen;
    uint8_t *pt_olen;
    int64_t *last_pcs;            /* [3] */
    uint32_t *mt;                 /* [624] Mersenne Twister words */
    int64_t *plane_shifts;        /* [nplanes] */

    /* int64 scalars */
    int64_t start, stop, processed;
    int64_t width, rob_size, instructions;
    int64_t out_head, out_count, out_cap;
    int64_t nsets[3], ways[3], lat[3], tick[3], policy[3]; /* 0=lru 1=ship */
    int64_t mshr_count, mshr_cap;
    int64_t mshrh_count, mshrh_cap;
    int64_t pend_count, pend_cap;
    int64_t infl_count, infl_cap;
    int64_t merged_count, merged_cap;
    int64_t ev_head, ev_count, ev_cap;
    int64_t channels, banks, row_size_lines, row_hit_lat, row_miss_lat;
    int64_t util_window;
    int64_t dram_total, dram_demand, dram_prefetch;
    int64_t last_bucket_cycle;
    int64_t pf_issued, pf_dropped, late_merges;
    int64_t mshr_allocations, mshr_stalls;
    int64_t max_degree, page_shift, lines_per_page;
    int64_t train;
    int64_t nact, nfeat, nplanes, plane_entries;
    int64_t eq_cap, eq_head, eq_count;
    int64_t ptab_cap, ptab_count;
    int64_t lastpc_count;
    int64_t mt_index;
    int64_t agent_updates, agent_explorations;

    /* doubles */
    double cycle, stall_cycles;
    double cycles_per_transfer;
    double window_busy, busy_cycles;
    double hi_thresh, epsilon, alpha, gamma;
} ReplayArgs;

enum { L1 = 0, L2 = 1, LLC = 2 };
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
 * Kernel context: the ReplayArgs plus C-internal lookup structures
 * rebuilt at import (maps, page-table LRU links) and scratch buffers.
 * ------------------------------------------------------------------------- */

typedef struct {
    ReplayArgs *a;
    Map infl;    /* line -> completion (hierarchy._inflight_prefetch) */
    Map merged;  /* line -> 1 (hierarchy._merged_inflight) */
    Map byline;  /* prefetch line -> EQ slot (eq._by_line) */
    Map pages;   /* page -> page-table slot (extractor._pages) */
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
static inline int64_t tag_find(const ReplayArgs *a, int lv, int64_t set,
                               int64_t line) {
    int64_t ways = a->ways[lv];
    const int64_t *tags = a->cache_tag[lv] + set * ways;
    for (int64_t w = 0; w < ways; w++) {
        if (tags[w] == line) {
            return w;
        }
    }
    return -1;
}

/* Lowest empty way (Cache._filled[set]: empty ways are the set's
 * suffix), or -1 if the set is full. */
static inline int64_t free_way(const ReplayArgs *a, int lv, int64_t set) {
    int64_t ways = a->ways[lv];
    const int64_t *tags = a->cache_tag[lv] + set * ways;
    for (int64_t w = 0; w < ways; w++) {
        if (tags[w] == -1) {
            return w;
        }
    }
    return -1;
}

/* LruPolicy.victim: meta.index(min(meta)) — first way with minimal tick. */
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

static inline void ship_on_fill(const ReplayArgs *a, int lv, int64_t idx,
                                int64_t pc, int is_prefetch) {
    int64_t sig = ship_signature(pc);
    int64_t counter = a->cache_shct[lv][sig];
    a->cache_meta_a[lv][idx] =
        (counter == 0 || is_prefetch) ? SHIP_RRPV_MAX : SHIP_RRPV_MAX - 1;
    a->cache_meta_b[lv][idx] = sig;
    a->cache_meta_c[lv][idx] = 0;
}

static inline void ship_on_hit(const ReplayArgs *a, int lv, int64_t idx) {
    a->cache_meta_a[lv][idx] = 0;
    if (!a->cache_meta_c[lv][idx]) {
        a->cache_meta_c[lv][idx] = 1;
        int64_t sig = a->cache_meta_b[lv][idx];
        if (a->cache_shct[lv][sig] < SHIP_SHCT_MAX) {
            a->cache_shct[lv][sig]++;
        }
    }
}

static inline void ship_on_evict(const ReplayArgs *a, int lv, int64_t idx) {
    if (!a->cache_meta_c[lv][idx]) {
        int64_t sig = a->cache_meta_b[lv][idx];
        if (a->cache_shct[lv][sig] > 0) {
            a->cache_shct[lv][sig]--;
        }
    }
}

/* Cache.fill, demand flavor (batch.py's inlined L1/L2/LLC demand fill):
 * duplicate fills never downgrade, real pc, is_prefetch=False. */
static void demand_fill(ReplayArgs *a, int lv, int64_t set, int64_t line,
                        int64_t pc) {
    a->tick[lv]++;
    int64_t ways = a->ways[lv];
    int64_t base = set * ways;
    int64_t way = tag_find(a, lv, set, line);
    if (way >= 0) {
        int64_t idx = base + way;
        a->cache_pf[lv][idx] = a->cache_pf[lv][idx] && a->cache_used[lv][idx];
        return;
    }
    int64_t *stats = a->cache_stats[lv];
    way = free_way(a, lv, set);
    if (way < 0) {
        int is_lru = a->policy[lv] == POLICY_LRU;
        way = is_lru ? lru_victim(a->cache_meta_a[lv] + base, ways)
                     : ship_victim(a->cache_meta_a[lv] + base, ways);
        int64_t idx = base + way;
        stats[ST_EVICTIONS]++;
        if (a->cache_pf[lv][idx] && !a->cache_used[lv][idx]) {
            stats[ST_USELESS_EVICTIONS]++;
        }
        if (!is_lru) {
            ship_on_evict(a, lv, idx);
        }
    }
    int64_t idx = base + way;
    a->cache_tag[lv][idx] = line;
    a->cache_pf[lv][idx] = 0;
    a->cache_used[lv][idx] = 1;
    if (a->policy[lv] == POLICY_LRU) {
        a->cache_meta_a[lv][idx] = a->tick[lv];
    } else {
        ship_on_fill(a, lv, idx, pc, 0);
    }
    stats[ST_FILLS]++;
}

/* Cache.fill, prefetch-fill flavor (hierarchy.process_fills): pc=0,
 * as_prefetch semantics; returns the evicted useless tag or -1. */
static int64_t fill_as(ReplayArgs *a, int lv, int64_t line, int as_prefetch) {
    a->tick[lv]++;
    int64_t set = imod(line, a->nsets[lv]);
    int64_t ways = a->ways[lv];
    int64_t base = set * ways;
    int64_t way = tag_find(a, lv, set, line);
    int64_t useless_tag = -1;
    if (way >= 0) {
        if (!as_prefetch) {
            int64_t idx = base + way;
            a->cache_pf[lv][idx] =
                a->cache_pf[lv][idx] && a->cache_used[lv][idx];
        }
        return useless_tag;
    }
    int64_t *stats = a->cache_stats[lv];
    way = free_way(a, lv, set);
    if (way < 0) {
        int is_lru = a->policy[lv] == POLICY_LRU;
        way = is_lru ? lru_victim(a->cache_meta_a[lv] + base, ways)
                     : ship_victim(a->cache_meta_a[lv] + base, ways);
        int64_t idx = base + way;
        stats[ST_EVICTIONS]++;
        if (a->cache_pf[lv][idx] && !a->cache_used[lv][idx]) {
            stats[ST_USELESS_EVICTIONS]++;
            useless_tag = a->cache_tag[lv][idx];
        }
        if (!is_lru) {
            ship_on_evict(a, lv, idx);
        }
    }
    int64_t idx = base + way;
    a->cache_tag[lv][idx] = line;
    a->cache_pf[lv][idx] = (uint8_t)(as_prefetch != 0);
    a->cache_used[lv][idx] = (uint8_t)(as_prefetch == 0);
    if (a->policy[lv] == POLICY_LRU) {
        a->cache_meta_a[lv][idx] = a->tick[lv];
    } else {
        ship_on_fill(a, lv, idx, 0, as_prefetch);
    }
    stats[ST_FILLS]++;
    if (as_prefetch) {
        stats[ST_PREFETCH_FILLS]++;
    }
    return useless_tag;
}

/* -- DRAM ------------------------------------------------------------------ */

static inline int64_t ev_phys(const ReplayArgs *a, int64_t i) {
    return (a->ev_head + i) & (a->ev_cap - 1);
}

/* Dram.access (repro/sim/dram.py): _Channel.service + rolling-window
 * event recording + Fig 14 bucket charge, fused exactly as the Python. */
static int64_t dram_access(Ctx *x, int64_t line, int64_t now, int is_prefetch) {
    ReplayArgs *a = x->a;
    int64_t ch = imod(line, a->channels);
    /* _Channel.service */
    int64_t bank = imod(fdiv(line, a->row_size_lines), a->banks);
    int64_t row = fdiv(line, a->row_size_lines * a->banks);
    double *bank_free = a->ch_bank_free + ch * a->banks;
    int64_t *open_row = a->ch_open_row + ch * a->banks;
    double start = (double)now;
    if (bank_free[bank] > start) {
        start = bank_free[bank];
    }
    double access_latency, bank_occupancy;
    if (open_row[bank] == row) {
        access_latency = (double)a->row_hit_lat;
        bank_occupancy = a->cycles_per_transfer;
        a->ch_row_hits[ch]++;
    } else {
        access_latency = (double)a->row_miss_lat;
        bank_occupancy = (double)a->row_miss_lat;
        open_row[bank] = row;
        a->ch_row_misses[ch]++;
    }
    double transfer = a->cycles_per_transfer;
    double data_at_bank = start + access_latency;
    double transfer_start;
    if (is_prefetch) {
        transfer_start = data_at_bank;
        if (a->ch_bus_free[ch] > transfer_start) {
            transfer_start = a->ch_bus_free[ch];
        }
    } else {
        transfer_start = data_at_bank;
        if (a->ch_demand_bus_free[ch] > transfer_start) {
            transfer_start = a->ch_demand_bus_free[ch];
        }
        a->ch_demand_bus_free[ch] = transfer_start + transfer;
    }
    double completion = transfer_start + transfer;
    bank_free[bank] = start + bank_occupancy;
    if (completion > a->ch_bus_free[ch]) {
        a->ch_bus_free[ch] = completion;
    }
    /* Dram.access bookkeeping */
    a->dram_total++;
    if (is_prefetch) {
        a->dram_prefetch++;
    } else {
        a->dram_demand++;
    }
    a->busy_cycles += transfer;
    a->ev_ts[ev_phys(a, a->ev_count)] = now;
    a->ev_busy[ev_phys(a, a->ev_count)] = transfer;
    a->ev_count++;
    double window_busy = a->window_busy + transfer;
    int64_t cutoff = now - a->util_window;
    while (a->ev_count > 0 && a->ev_ts[a->ev_head] < cutoff) {
        window_busy -= a->ev_busy[a->ev_head];
        a->ev_head = (a->ev_head + 1) & (a->ev_cap - 1);
        a->ev_count--;
    }
    a->window_busy = window_busy;
    int64_t last = a->last_bucket_cycle;
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
        a->bucket_cycles[idx] += (double)(now - last);
        a->last_bucket_cycle = now;
    }
    return (int64_t)completion;
}

/* Dram.utilization: the stale-head rescan (non-mutating). */
static double dram_utilization(const Ctx *x, int64_t now) {
    const ReplayArgs *a = x->a;
    int64_t start = now - a->util_window;
    double busy = a->window_busy;
    if (a->ev_count > 0 && a->ev_ts[a->ev_head] < start) {
        for (int64_t i = 0; i < a->ev_count; i++) {
            int64_t p = ev_phys(a, i);
            if (a->ev_ts[p] >= start) {
                break;
            }
            busy -= a->ev_busy[p];
        }
    }
    if (x->util_capacity_i <= 0) {
        return 0.0;
    }
    double u = busy / x->util_capacity;
    return u > 1.0 ? 1.0 : u;
}

/* -- MSHR ------------------------------------------------------------------ */

static inline int64_t mshr_find(const ReplayArgs *a, int64_t line) {
    for (int64_t i = 0; i < a->mshr_count; i++) {
        if (a->mshr_line[i] == line) {
            return i;
        }
    }
    return -1;
}

static inline void mshr_del(ReplayArgs *a, int64_t i) {
    int64_t last = a->mshr_count - 1;
    a->mshr_line[i] = a->mshr_line[last];
    a->mshr_comp[i] = a->mshr_comp[last];
    a->mshr_ispf[i] = a->mshr_ispf[last];
    a->mshr_count = last;
}

/* MshrFile.reclaim: release entries completed by *now*. */
static void mshr_reclaim(ReplayArgs *a, int64_t now) {
    while (a->mshrh_count > 0 && a->mshrh_comp[0] <= now) {
        int64_t m_comp, m_line;
        heap_pop(a->mshrh_comp, a->mshrh_line, &a->mshrh_count, &m_comp,
                 &m_line);
        int64_t i = mshr_find(a, m_line);
        if (i >= 0 && a->mshr_comp[i] == m_comp) {
            mshr_del(a, i);
        }
    }
}

/* MshrFile.earliest_completion (lazy stale prune); -1 when empty. */
static int64_t mshr_earliest(ReplayArgs *a) {
    while (a->mshrh_count > 0) {
        int64_t comp = a->mshrh_comp[0];
        int64_t line = a->mshrh_line[0];
        int64_t i = mshr_find(a, line);
        if (i >= 0 && a->mshr_comp[i] == comp) {
            return comp;
        }
        int64_t c, l;
        heap_pop(a->mshrh_comp, a->mshrh_line, &a->mshrh_count, &c, &l);
    }
    return -1;
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
static void state_bases(const ReplayArgs *a, const int64_t *state,
                        int64_t *bases) {
    int64_t entries = a->plane_entries;
    int64_t nact = a->nact;
    for (int64_t f = 0; f < a->nfeat; f++) {
        for (int64_t p = 0; p < a->nplanes; p++) {
            int64_t row = (f * a->nplanes + p) * entries +
                          hash_index(state[f], a->plane_shifts[p], entries);
            bases[f * a->nplanes + p] = row * nact;
        }
    }
}

/* NumpyQVStore._q_one: per-vault left-to-right sum, keep-first max. */
static double q_one(const ReplayArgs *a, const int64_t *bases,
                    int64_t action) {
    double best = 0.0;
    int first = 1;
    for (int64_t f = 0; f < a->nfeat; f++) {
        const int64_t *fb = bases + f * a->nplanes;
        double q = a->qcells[fb[0] + action];
        for (int64_t p = 1; p < a->nplanes; p++) {
            q += a->qcells[fb[p] + action];
        }
        if (first || q > best) {
            best = q;
            first = 0;
        }
    }
    return best;
}

/* NumpyQVStore.best_action: keep-first argmax over strict >. */
static int64_t best_action(const ReplayArgs *a, const int64_t *bases) {
    int64_t best_a = 0;
    double best_q = q_one(a, bases, 0);
    for (int64_t act = 1; act < a->nact; act++) {
        double q = q_one(a, bases, act);
        if (q > best_q) {
            best_q = q;
            best_a = act;
        }
    }
    return best_a;
}

/* EQ physical slot of fifo position i. */
static inline int64_t eq_slot(const ReplayArgs *a, int64_t i) {
    return imod(a->eq_head + i, a->eq_cap);
}

/* EvaluationQueue.mark_filled via on_prefetch_fill. */
static void eq_mark_filled(Ctx *x, int64_t line) {
    int64_t slot = map_get(&x->byline, line);
    if (slot >= 0) {
        x->a->eq_flags[slot] |= EQF_FILLED;
    }
}

/* FeatureExtractor.observe_basic_cols: page-history advance + the two
 * basic feature encodings.  Writes (pc_delta, last4_deltas_fold). */
static int observe_basic(Ctx *x, int64_t pc, int64_t page, int64_t offset,
                         int64_t *s_out) {
    ReplayArgs *a = x->a;
    int64_t slot = map_get(&x->pages, page);
    if (slot < 0) {
        if (a->ptab_count < a->ptab_cap) {
            slot = a->ptab_count++;
        } else {
            /* Evict the LRU page first, then reuse its slot: identical
             * to the OrderedDict's insert-then-popitem(last=False)
             * because the just-inserted page is never the oldest. */
            slot = x->pt_head;
            map_del(&x->pages, a->pt_page[slot]);
            x->pt_head = x->pt_next[slot];
            if (x->pt_head >= 0) {
                x->pt_prev[x->pt_head] = -1;
            } else {
                x->pt_tail = -1;
            }
        }
        a->pt_page[slot] = page;
        a->pt_lastoff[slot] = -1;
        a->pt_dlen[slot] = 0;
        a->pt_olen[slot] = 0;
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

    int64_t last = a->pt_lastoff[slot];
    int64_t delta = last < 0 ? 0 : offset - last;
    a->pt_lastoff[slot] = offset;
    int64_t *deltas = a->pt_deltas + slot * 4;
    int64_t dlen = a->pt_dlen[slot];
    if (dlen < 4) {
        deltas[dlen] = delta;
        a->pt_dlen[slot] = (uint8_t)(dlen + 1);
        dlen++;
    } else {
        deltas[0] = deltas[1];
        deltas[1] = deltas[2];
        deltas[2] = deltas[3];
        deltas[3] = delta;
    }
    int64_t *offsets = a->pt_offsets + slot * 4;
    int64_t olen = a->pt_olen[slot];
    if (olen < 4) {
        offsets[olen] = offset;
        a->pt_olen[slot] = (uint8_t)(olen + 1);
    } else {
        offsets[0] = offsets[1];
        offsets[1] = offsets[2];
        offsets[2] = offsets[3];
        offsets[3] = offset;
    }
    if (a->lastpc_count < 3) {
        a->last_pcs[a->lastpc_count++] = pc;
    } else {
        a->last_pcs[0] = a->last_pcs[1];
        a->last_pcs[1] = a->last_pcs[2];
        a->last_pcs[2] = pc;
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
 * or -1 for none; -2 on allocation failure. */
static int64_t train_cols(Ctx *x, int64_t pc, int64_t line, int64_t page,
                          int64_t offset, int bw_high) {
    ReplayArgs *a = x->a;

    /* (1) Reward a resident entry whose prefetch this demand vindicates. */
    int64_t vslot = map_get(&x->byline, line);
    if (vslot >= 0 && !(a->eq_flags[vslot] & EQF_HAS_REWARD)) {
        if (a->eq_flags[vslot] & EQF_FILLED) {
            a->eq_reward[vslot] = a->rw[RW_AT];
            a->rw_assigned[RA_AT]++;
        } else {
            a->eq_reward[vslot] = a->rw[RW_AL];
            a->rw_assigned[RA_AL]++;
        }
        a->eq_flags[vslot] |= EQF_HAS_REWARD;
    }

    /* (2) Extract the state-vector. */
    int64_t state[2];
    if (observe_basic(x, pc, page, offset, state) != 0) {
        return -2;
    }

    /* (3) Select an action (SarsaAgent.select_action, inlined). */
    int64_t *bases = x->bases_scratch; /* current state's bases */
    state_bases(a, state, bases);
    int64_t action;
    if (rng_random(&x->rng) <= a->epsilon) {
        a->agent_explorations++;
        action = rng_randrange(&x->rng, a->nact);
    } else {
        action = best_action(a, bases);
    }
    a->act_counts[action]++;
    int64_t offset_delta = a->act_deltas[action];

    /* (4) Generate the prefetch / classify degenerate actions. */
    int64_t prefetch_line = -1;
    double new_reward = 0.0;
    uint8_t new_flags = 0;
    int64_t target_offset = offset + offset_delta;
    if (offset_delta == 0) {
        new_reward = bw_high ? a->rw[RW_NP_HI] : a->rw[RW_NP_LO];
        new_flags = EQF_HAS_REWARD;
        a->rw_assigned[RA_NP]++;
    } else if (!(0 <= target_offset && target_offset < a->lines_per_page)) {
        new_reward = a->rw[RW_CL];
        new_flags = EQF_HAS_REWARD;
        a->rw_assigned[RA_CL]++;
    } else {
        prefetch_line = (page << a->page_shift) | target_offset;
    }

    /* (5) Insert; eviction assigns R_IN + the SARSA update. */
    int have_evicted = 0;
    int64_t ev_action = 0;
    double ev_reward = 0.0;
    if (a->eq_count >= a->eq_cap) {
        int64_t slot_e = a->eq_head;
        /* Copy the evicted entry before the slot is overwritten. */
        have_evicted = 1;
        for (int64_t f = 0; f < a->nfeat; f++) {
            x->evicted_state[f] = a->eq_state[slot_e * a->nfeat + f];
        }
        ev_action = a->eq_action[slot_e];
        int64_t ev_line = a->eq_line[slot_e];
        if (a->eq_flags[slot_e] & EQF_HAS_REWARD) {
            ev_reward = a->eq_reward[slot_e];
        } else {
            ev_reward = bw_high ? a->rw[RW_IN_HI] : a->rw[RW_IN_LO];
        }
        if (ev_line >= 0 && map_get(&x->byline, ev_line) == slot_e) {
            map_del(&x->byline, ev_line);
        }
        a->eq_head = imod(a->eq_head + 1, a->eq_cap);
        a->eq_count--;
    }
    int64_t slot_n = eq_slot(a, a->eq_count);
    for (int64_t f = 0; f < a->nfeat; f++) {
        a->eq_state[slot_n * a->nfeat + f] = state[f];
    }
    a->eq_action[slot_n] = action;
    a->eq_line[slot_n] = prefetch_line;
    a->eq_reward[slot_n] = new_reward;
    a->eq_flags[slot_n] = new_flags;
    a->eq_count++;
    if (prefetch_line >= 0) {
        if (map_put(&x->byline, prefetch_line, slot_n) != 0) {
            return -2;
        }
    }

    if (have_evicted) {
        /* Head after the insert (never empty here). */
        int64_t slot_h = a->eq_head;
        int64_t *bases_e = x->bases_scratch + a->nfeat * a->nplanes;
        int64_t *bases_h = x->bases_scratch + 2 * a->nfeat * a->nplanes;
        state_bases(a, x->evicted_state, bases_e);
        int64_t next_action = a->eq_action[slot_h];
        state_bases(a, a->eq_state + slot_h * a->nfeat, bases_h);
        /* NumpyQVStore.sarsa_update */
        double q_sa = q_one(a, bases_e, ev_action);
        double q_next = q_one(a, bases_h, next_action);
        double td_error = ev_reward + a->gamma * q_next - q_sa;
        double step = a->alpha * td_error;
        for (int64_t r = 0; r < a->nfeat * a->nplanes; r++) {
            int64_t e = bases_e[r] + ev_action;
            a->qcells[e] = a->qcells[e] + step;
        }
        a->agent_updates++;
    }
    return prefetch_line;
}

/* CacheHierarchy.process_fills: apply arrived prefetch fills. */
static void process_fills(Ctx *x, int64_t now) {
    ReplayArgs *a = x->a;
    while (a->pend_count > 0 && a->pend_comp[0] <= now) {
        int64_t completion, line;
        heap_pop(a->pend_comp, a->pend_line, &a->pend_count, &completion,
                 &line);
        map_del(&x->infl, line);
        int as_prefetch = !map_has(&x->merged, line);
        map_del(&x->merged, line);
        int64_t useless_tag = fill_as(a, LLC, line, as_prefetch);
        (void)useless_tag; /* on_prefetch_useless is a no-op for Pythia */
        fill_as(a, L2, line, as_prefetch);
        if (a->train) {
            eq_mark_filled(x, line); /* Pythia.on_prefetch_fill */
        }
    }
}
/* ---------------------------------------------------------------------------
 * Export helpers: write C-internal structures back into the arg arrays.
 * ------------------------------------------------------------------------- */

static int export_map_pairs(const Map *m, int64_t *keys, int64_t *vals) {
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
    return (int)n;
}

/* Rotate a linearizable ring so its head lands at index 0. */
static int ring_linearize_i64(int64_t *arr, int64_t head, int64_t count,
                              int64_t cap) {
    if (head == 0 || count == 0) {
        return 0;
    }
    int64_t *tmp = malloc((size_t)count * sizeof(int64_t));
    if (!tmp) {
        return -1;
    }
    for (int64_t i = 0; i < count; i++) {
        tmp[i] = arr[(head + i) % cap];
    }
    memcpy(arr, tmp, (size_t)count * sizeof(int64_t));
    free(tmp);
    return 0;
}

static int ring_linearize_f64(double *arr, int64_t head, int64_t count,
                              int64_t cap) {
    if (head == 0 || count == 0) {
        return 0;
    }
    double *tmp = malloc((size_t)count * sizeof(double));
    if (!tmp) {
        return -1;
    }
    for (int64_t i = 0; i < count; i++) {
        tmp[i] = arr[(head + i) % cap];
    }
    memcpy(arr, tmp, (size_t)count * sizeof(double));
    free(tmp);
    return 0;
}

static int ring_linearize_u8(uint8_t *arr, int64_t head, int64_t count,
                             int64_t cap) {
    if (head == 0 || count == 0) {
        return 0;
    }
    uint8_t *tmp = malloc((size_t)count);
    if (!tmp) {
        return -1;
    }
    for (int64_t i = 0; i < count; i++) {
        tmp[i] = arr[(head + i) % cap];
    }
    memcpy(arr, tmp, (size_t)count);
    free(tmp);
    return 0;
}

/* Rewrite the page-table slot arrays in LRU order (oldest first). */
static int export_page_table(Ctx *x) {
    ReplayArgs *a = x->a;
    int64_t n = a->ptab_count;
    if (n == 0) {
        return 0;
    }
    int64_t *order = malloc((size_t)n * sizeof(int64_t));
    int64_t *ti64 = malloc((size_t)(n * 4) * sizeof(int64_t));
    if (!order || !ti64) {
        free(order);
        free(ti64);
        return -1;
    }
    int64_t k = 0;
    for (int64_t s = x->pt_head; s >= 0 && k < n; s = x->pt_next[s]) {
        order[k++] = s;
    }
    if (k != n) {
        free(order);
        free(ti64);
        return -1;
    }
#define PT_PERMUTE_I64(field, stride)                                          \
    do {                                                                       \
        for (int64_t i = 0; i < n; i++) {                                      \
            for (int64_t j = 0; j < (stride); j++) {                           \
                ti64[i * (stride) + j] = a->field[order[i] * (stride) + j];    \
            }                                                                  \
        }                                                                      \
        memcpy(a->field, ti64, (size_t)(n * (stride)) * sizeof(int64_t));      \
    } while (0)
    PT_PERMUTE_I64(pt_page, 1);
    PT_PERMUTE_I64(pt_lastoff, 1);
    PT_PERMUTE_I64(pt_deltas, 4);
    PT_PERMUTE_I64(pt_offsets, 4);
#undef PT_PERMUTE_I64
    uint8_t *tu8 = (uint8_t *)ti64;
    for (int64_t i = 0; i < n; i++) {
        tu8[i] = a->pt_dlen[order[i]];
    }
    memcpy(a->pt_dlen, tu8, (size_t)n);
    for (int64_t i = 0; i < n; i++) {
        tu8[i] = a->pt_olen[order[i]];
    }
    memcpy(a->pt_olen, tu8, (size_t)n);
    free(order);
    free(ti64);
    return 0;
}

/* Rotate the EQ ring so the FIFO head lands at slot 0. */
static int export_eq(ReplayArgs *a) {
    if (a->eq_head == 0 || a->eq_count == 0) {
        a->eq_head = 0;
        return 0;
    }
    int rcode = 0;
    int64_t cap = a->eq_cap;
    /* Rotate full rings (count may be < cap only transiently before the
     * first wrap, in which case head is still 0 and we never get here
     * -- but rotate count entries defensively anyway). */
    int64_t count = a->eq_count;
    int64_t *ts = malloc((size_t)(count * a->nfeat) * sizeof(int64_t));
    if (!ts) {
        return -1;
    }
    for (int64_t i = 0; i < count; i++) {
        int64_t src = imod(a->eq_head + i, cap);
        for (int64_t f = 0; f < a->nfeat; f++) {
            ts[i * a->nfeat + f] = a->eq_state[src * a->nfeat + f];
        }
    }
    memcpy(a->eq_state, ts, (size_t)(count * a->nfeat) * sizeof(int64_t));
    free(ts);
    if (ring_linearize_i64(a->eq_action, a->eq_head, count, cap) != 0 ||
        ring_linearize_i64(a->eq_line, a->eq_head, count, cap) != 0 ||
        ring_linearize_f64(a->eq_reward, a->eq_head, count, cap) != 0 ||
        ring_linearize_u8(a->eq_flags, a->eq_head, count, cap) != 0) {
        rcode = -1;
    }
    a->eq_head = 0;
    return rcode;
}

/* ---------------------------------------------------------------------------
 * Entry points.
 * ------------------------------------------------------------------------- */

int64_t repro_abi_sizeof(void) { return (int64_t)sizeof(ReplayArgs); }

int64_t repro_replay_span(ReplayArgs *a) {
    Ctx x;
    memset(&x, 0, sizeof(x));
    x.a = a;
    x.rng.mt = a->mt;
    x.rng.index = a->mt_index;
    x.util_capacity_i = a->util_window * a->channels;
    x.util_capacity = (double)x.util_capacity_i;

    int64_t rc = 0;
    /* -- import: rebuild C-side lookup structures ----------------------- */
    if (map_init(&x.infl, a->infl_cap) != 0 ||
        map_init(&x.merged, a->merged_cap) != 0) {
        rc = -2;
        goto cleanup;
    }
    for (int64_t i = 0; i < a->infl_count; i++) {
        if (map_put(&x.infl, a->infl_line[i], a->infl_comp[i]) != 0) {
            rc = -2;
            goto cleanup;
        }
    }
    for (int64_t i = 0; i < a->merged_count; i++) {
        if (map_put(&x.merged, a->merged_line[i], 1) != 0) {
            rc = -2;
            goto cleanup;
        }
    }
    if (a->train) {
        if (map_init(&x.byline, a->eq_cap) != 0 ||
            map_init(&x.pages, a->ptab_cap) != 0) {
            rc = -2;
            goto cleanup;
        }
        /* eq._by_line == most recent FIFO entry per prefetch line. */
        for (int64_t i = 0; i < a->eq_count; i++) {
            int64_t slot = eq_slot(a, i);
            if (a->eq_line[slot] >= 0) {
                if (map_put(&x.byline, a->eq_line[slot], slot) != 0) {
                    rc = -2;
                    goto cleanup;
                }
            }
        }
        x.pt_prev = malloc((size_t)a->ptab_cap * sizeof(int64_t));
        x.pt_next = malloc((size_t)a->ptab_cap * sizeof(int64_t));
        x.evicted_state = malloc((size_t)a->nfeat * sizeof(int64_t));
        x.bases_scratch =
            malloc((size_t)(3 * a->nfeat * a->nplanes) * sizeof(int64_t));
        if (!x.pt_prev || !x.pt_next || !x.evicted_state ||
            !x.bases_scratch) {
            rc = -2;
            goto cleanup;
        }
        /* Slots are imported oldest-first; chain them in order. */
        x.pt_head = a->ptab_count > 0 ? 0 : -1;
        x.pt_tail = a->ptab_count > 0 ? a->ptab_count - 1 : -1;
        for (int64_t s = 0; s < a->ptab_count; s++) {
            x.pt_prev[s] = s - 1;
            x.pt_next[s] = s + 1 < a->ptab_count ? s + 1 : -1;
            if (map_put(&x.pages, a->pt_page[s], s) != 0) {
                rc = -2;
                goto cleanup;
            }
        }
    }

    /* -- hoists (batch.py's loop locals) -------------------------------- */
    const int64_t width = a->width;
    const int64_t rob = a->rob_size;
    const double recip = 1.0 / (double)width;
    double cycle = a->cycle;
    int64_t instructions = a->instructions;
    double stall_cycles = a->stall_cycles;
    const int64_t max_degree = a->max_degree;
    const double hi_thresh = a->hi_thresh;
    const int64_t pshift = a->page_shift;
    const int64_t l1_lat = a->lat[L1], l2_lat = a->lat[L2],
                  llc_lat = a->lat[LLC];
    const int64_t nsets1 = a->nsets[L1], nsets2 = a->nsets[L2],
                  nsets3 = a->nsets[LLC];
    const int64_t ways1 = a->ways[L1], ways3 = a->ways[LLC];
    const int l1_lru = a->policy[L1] == POLICY_LRU;
    const int l2_lru = a->policy[L2] == POLICY_LRU;
    const int llc_lru = a->policy[LLC] == POLICY_LRU;
    int64_t *st1 = a->cache_stats[L1];
    int64_t *st2 = a->cache_stats[L2];
    int64_t *st3 = a->cache_stats[LLC];
    const int64_t mshr_capacity = a->mshr_cap;
    const int64_t out_mask = a->out_cap - 1;

#define OUT_ISSUED(j) a->out_issued[(a->out_head + (j)) & out_mask]
#define OUT_COMP(j) a->out_comp[(a->out_head + (j)) & out_mask]
#define OUT_POPLEFT()                                                          \
    do {                                                                       \
        a->out_head = (a->out_head + 1) & out_mask;                            \
        a->out_count--;                                                        \
    } while (0)
#define OUT_DRAIN()                                                            \
    while (a->out_count > 0 && (double)OUT_COMP(0) <= cycle) {                 \
        OUT_POPLEFT();                                                         \
    }

    /* -- the record loop (batch.py lines 149-519, op for op) ------------ */
    int64_t i = a->start;
    for (; i < a->stop; i++) {
        /* Capacity headroom: bail at a record boundary, the bridge
         * grows the arrays and re-enters. */
        if (a->pend_count + max_degree + 1 > a->pend_cap ||
            a->mshrh_count + max_degree + 2 > a->mshrh_cap ||
            x.infl.count + max_degree + 1 > a->infl_cap ||
            x.merged.count + 2 > a->merged_cap ||
            a->ev_count + max_degree + 2 > a->ev_cap) {
            rc = 1;
            break;
        }
        const int64_t pc = a->col_pc[i];
        const int64_t line = a->col_line[i];
        const int is_load = a->col_load[i] != 0;
        const int64_t gap = a->col_gap[i];
        const int64_t page = a->col_page[i];
        const int64_t offset = a->col_offset[i];
        const int64_t s1 = imod(line, nsets1);
        const int64_t s2 = imod(line, nsets2);
        const int64_t s3 = imod(line, nsets3);

        /* -- CoreModel.advance(gap), inlined --------------------------- */
        if (gap > 0) {
            instructions += gap;
            cycle += (double)gap / (double)width;
            if (a->out_count > 0) {
                OUT_DRAIN();
                while (a->out_count > 0) {
                    int64_t issued_at = OUT_ISSUED(0);
                    int64_t wait_c = OUT_COMP(0);
                    if (instructions - issued_at < rob) {
                        break;
                    }
                    if ((double)wait_c > cycle) {
                        stall_cycles += (double)wait_c - cycle;
                        cycle = (double)wait_c;
                    }
                    OUT_POPLEFT();
                    OUT_DRAIN();
                }
            }
        }

        /* -- CacheHierarchy.demand_access, inlined --------------------- */
        int64_t now = (int64_t)cycle;
        if (a->pend_count > 0 && a->pend_comp[0] <= now) {
            process_fills(&x, now);
        }
        if (a->mshrh_count > 0 && a->mshrh_comp[0] <= now) {
            mshr_reclaim(a, now);
        }

        /* L1 demand lookup (Cache.lookup, inlined). */
        a->tick[L1]++;
        st1[ST_DEMAND_ACCESSES]++;
        int64_t completion;
        int64_t way = tag_find(a, L1, s1, line);
        if (way >= 0) {
            int64_t idx = s1 * ways1 + way;
            if (l1_lru) {
                a->cache_meta_a[L1][idx] = a->tick[L1];
            } else {
                ship_on_hit(a, L1, idx);
            }
            st1[ST_DEMAND_HITS]++;
            if (a->cache_pf[L1][idx] && !a->cache_used[L1][idx]) {
                a->cache_used[L1][idx] = 1;
                st1[ST_USEFUL_PREFETCHES]++;
            }
            completion = now + l1_lat;
        } else {
            st1[ST_DEMAND_MISSES]++;
            if (is_load) {
                st1[ST_LOAD_MISSES]++;
            }

            /* L1 miss: the prefetcher's training event. */
            if (a->train) {
                double util;
                if (a->ev_count > 0 &&
                    a->ev_ts[a->ev_head] < now - a->util_window) {
                    util = dram_utilization(&x, now);
                } else if (x.util_capacity_i > 0) {
                    util = a->window_busy / x.util_capacity;
                    if (util > 1.0) {
                        util = 1.0;
                    }
                } else {
                    util = 0.0;
                }
                int bw_high = util >= hi_thresh;
                int64_t cand =
                    train_cols(&x, pc, line, page, offset, bw_high);
                if (cand == -2) {
                    rc = -2;
                    goto cleanup;
                }
                if (cand >= 0) {
                    /* _issue_prefetches + _fetch_for_prefetch, inlined
                     * (train_cols yields at most one candidate). */
                    int64_t pf = cand;
                    do {
                        if (0 >= max_degree) {
                            break;
                        }
                        if ((pf >> pshift) != page) {
                            break;
                        }
                        if (tag_find(a, L2, imod(pf, nsets2), pf) >= 0) {
                            break;
                        }
                        int64_t sp = imod(pf, nsets3);
                        if (tag_find(a, LLC, sp, pf) >= 0) {
                            break;
                        }
                        if (map_has(&x.infl, pf)) {
                            break;
                        }
                        /* LLC prefetch lookup (Cache.lookup, inlined). */
                        a->tick[LLC]++;
                        st3[ST_PREFETCH_ACCESSES]++;
                        int64_t wp = tag_find(a, LLC, sp, pf);
                        int64_t pf_comp;
                        if (wp >= 0) {
                            int64_t idx = sp * ways3 + wp;
                            if (llc_lru) {
                                a->cache_meta_a[LLC][idx] = a->tick[LLC];
                            } else {
                                ship_on_hit(a, LLC, idx);
                            }
                            st3[ST_PREFETCH_HITS]++;
                            pf_comp = now + llc_lat;
                        } else if (mshr_find(a, pf) >= 0) {
                            st3[ST_PREFETCH_MISSES]++;
                            a->pf_dropped++;
                            break; /* on_prefetch_dropped is a no-op */
                        } else if (a->mshr_count >= mshr_capacity) {
                            st3[ST_PREFETCH_MISSES]++;
                            a->pf_dropped++;
                            break;
                        } else {
                            st3[ST_PREFETCH_MISSES]++;
                            pf_comp = dram_access(&x, pf, now + llc_lat, 1);
                            /* MshrFile.allocate, inlined. */
                            a->mshr_line[a->mshr_count] = pf;
                            a->mshr_comp[a->mshr_count] = pf_comp;
                            a->mshr_ispf[a->mshr_count] = 1;
                            a->mshr_count++;
                            heap_push(a->mshrh_comp, a->mshrh_line,
                                      &a->mshrh_count, pf_comp, pf);
                            a->mshr_allocations++;
                        }
                        heap_push(a->pend_comp, a->pend_line, &a->pend_count,
                                  pf_comp, pf);
                        if (map_put(&x.infl, pf, pf_comp) != 0) {
                            rc = -2;
                            goto cleanup;
                        }
                        a->pf_issued++;
                    } while (0);
                }
            }

            /* L2 demand lookup (Cache.lookup, inlined). */
            a->tick[L2]++;
            st2[ST_DEMAND_ACCESSES]++;
            int fill_l1, fill_l2;
            way = tag_find(a, L2, s2, line);
            if (way >= 0) {
                int64_t idx = s2 * a->ways[L2] + way;
                if (l2_lru) {
                    a->cache_meta_a[L2][idx] = a->tick[L2];
                } else {
                    ship_on_hit(a, L2, idx);
                }
                st2[ST_DEMAND_HITS]++;
                if (a->cache_pf[L2][idx] && !a->cache_used[L2][idx]) {
                    a->cache_used[L2][idx] = 1;
                    st2[ST_USEFUL_PREFETCHES]++;
                    /* on_demand_hit_prefetched is a no-op for Pythia */
                }
                completion = now + l2_lat;
                fill_l1 = 1;
                fill_l2 = 0;
            } else {
                st2[ST_DEMAND_MISSES]++;
                if (is_load) {
                    st2[ST_LOAD_MISSES]++;
                }

                int64_t in_comp = map_get(&x.infl, line);
                if (in_comp >= 0) {
                    /* Late in-flight prefetch: merge, wait the rest. */
                    a->late_merges++;
                    if (map_put(&x.merged, line, 1) != 0) {
                        rc = -2;
                        goto cleanup;
                    }
                    st3[ST_DEMAND_ACCESSES]++;
                    st3[ST_DEMAND_HITS]++;
                    st3[ST_USEFUL_PREFETCHES]++;
                    int64_t base = now + llc_lat;
                    completion = in_comp > base ? in_comp : base;
                    fill_l1 = 1;
                    fill_l2 = 0;
                } else {
                    /* LLC demand lookup (Cache.lookup, inlined). */
                    a->tick[LLC]++;
                    st3[ST_DEMAND_ACCESSES]++;
                    way = tag_find(a, LLC, s3, line);
                    if (way >= 0) {
                        int64_t idx = s3 * ways3 + way;
                        if (llc_lru) {
                            a->cache_meta_a[LLC][idx] = a->tick[LLC];
                        } else {
                            ship_on_hit(a, LLC, idx);
                        }
                        st3[ST_DEMAND_HITS]++;
                        if (a->cache_pf[LLC][idx] && !a->cache_used[LLC][idx]) {
                            a->cache_used[LLC][idx] = 1;
                            st3[ST_USEFUL_PREFETCHES]++;
                        }
                        completion = now + llc_lat;
                        fill_l1 = 1;
                        fill_l2 = 1;
                    } else {
                        st3[ST_DEMAND_MISSES]++;
                        if (is_load) {
                            st3[ST_LOAD_MISSES]++;
                        }
                        int64_t m = mshr_find(a, line);
                        if (m >= 0) {
                            /* Merge into the outstanding miss. */
                            int64_t base = now + llc_lat;
                            int64_t m_comp = a->mshr_comp[m];
                            completion = m_comp > base ? m_comp : base;
                            fill_l1 = 0;
                            fill_l2 = 0;
                        } else {
                            if (a->mshr_count >= mshr_capacity) {
                                /* Structural stall. */
                                a->mshr_stalls++;
                                int64_t wait_until = mshr_earliest(a);
                                if (wait_until < 0) {
                                    rc = -3;
                                    goto cleanup;
                                }
                                while (a->mshrh_count > 0 &&
                                       a->mshrh_comp[0] <= wait_until) {
                                    int64_t m_comp, m_line;
                                    heap_pop(a->mshrh_comp, a->mshrh_line,
                                             &a->mshrh_count, &m_comp,
                                             &m_line);
                                    int64_t mi = mshr_find(a, m_line);
                                    if (mi >= 0 &&
                                        a->mshr_comp[mi] == m_comp) {
                                        mshr_del(a, mi);
                                    }
                                }
                                if (wait_until > now) {
                                    now = wait_until;
                                }
                            }
                            completion =
                                dram_access(&x, line, now + llc_lat, 0);
                            /* MshrFile.allocate, inlined. */
                            a->mshr_line[a->mshr_count] = line;
                            a->mshr_comp[a->mshr_count] = completion;
                            a->mshr_ispf[a->mshr_count] = 0;
                            a->mshr_count++;
                            heap_push(a->mshrh_comp, a->mshrh_line,
                                      &a->mshrh_count, completion, line);
                            a->mshr_allocations++;
                            /* LLC demand fill (Cache.fill, inlined). */
                            demand_fill(a, LLC, s3, line, pc);
                            fill_l1 = 1;
                            fill_l2 = 1;
                        }
                    }

                    /* L2 demand fill (Cache.fill, inlined). */
                    if (fill_l2) {
                        demand_fill(a, L2, s2, line, pc);
                    }
                }

                /* NOTE: in batch.py the L2 fill sits inside the L2-miss
                 * branch; the merge path skips it via fill_l2 = 0.  The
                 * structure above mirrors that: the merge path never
                 * reaches the L2 fill. */
            }

            /* L1 demand fill (Cache.fill, inlined). */
            if (fill_l1) {
                demand_fill(a, L1, s1, line, pc);
            }
        }

        /* -- CoreModel.issue_load(completion), inlined ----------------- */
        instructions += 1;
        cycle += recip;
        if (a->out_count > 0) {
            OUT_DRAIN();
        }
        if ((double)completion > cycle) {
            if (a->out_count >= a->out_cap) {
                rc = -4;
                goto cleanup;
            }
            int64_t tail = (a->out_head + a->out_count) & out_mask;
            a->out_issued[tail] = instructions;
            a->out_comp[tail] = completion;
            a->out_count++;
        }
        if (a->out_count > 0) {
            while (a->out_count > 0) {
                int64_t issued_at = OUT_ISSUED(0);
                int64_t wait_c = OUT_COMP(0);
                if (instructions - issued_at < rob) {
                    break;
                }
                if ((double)wait_c > cycle) {
                    stall_cycles += (double)wait_c - cycle;
                    cycle = (double)wait_c;
                }
                OUT_POPLEFT();
                OUT_DRAIN();
            }
        }
    }
    a->processed = i - a->start;

    /* -- export --------------------------------------------------------- */
    a->cycle = cycle;
    a->instructions = instructions;
    a->stall_cycles = stall_cycles;
    a->mt_index = x.rng.index;
    a->infl_count = export_map_pairs(&x.infl, a->infl_line, a->infl_comp);
    a->merged_count = export_map_pairs(&x.merged, a->merged_line, NULL);
    if (ring_linearize_i64(a->out_issued, a->out_head, a->out_count,
                           a->out_cap) != 0 ||
        ring_linearize_i64(a->out_comp, a->out_head, a->out_count,
                           a->out_cap) != 0 ||
        ring_linearize_i64(a->ev_ts, a->ev_head, a->ev_count, a->ev_cap) !=
            0 ||
        ring_linearize_f64(a->ev_busy, a->ev_head, a->ev_count, a->ev_cap) !=
            0) {
        rc = -2;
        goto cleanup;
    }
    a->out_head = 0;
    a->ev_head = 0;
    if (a->train) {
        if (export_eq(a) != 0 || export_page_table(&x) != 0) {
            rc = -2;
            goto cleanup;
        }
    }

cleanup:
    map_free(&x.infl);
    map_free(&x.merged);
    map_free(&x.byline);
    map_free(&x.pages);
    free(x.pt_prev);
    free(x.pt_next);
    free(x.evicted_state);
    free(x.bases_scratch);
    return rc;
}
