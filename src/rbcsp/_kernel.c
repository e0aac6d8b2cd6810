/* The package's compiled kernel: ULSA's start and step loop, the build of
 * the packed search tables, the one-pass readers of the CSP and DIMACS
 * texts, the text writers, the conversions between a CSP and its
 * independent-set graph, and the Model RB sampler.
 *
 * The instance arrays are those of `rbcsp.core.CspInstance`: constraint i
 * joins variables con_a[i] and con_b[i] and disallows the value pairs (a, b)
 * whose codes a * d + b are codes[pair_start[i] .. pair_start[i+1]-1],
 * ascending; con_a, con_b and codes are int32 and pair_start int64.  Every
 * instance meets the caps of `rbcsp.core.check_size`, which bound d at
 * 4,472, so a code fits in an int32.
 *
 * -- the step loop ------------------------------------------------------------
 *
 * `ulsa_advance` applies whole iterations of `rbcsp.ulsa._step` to one run's
 * state in place and returns at a step boundary on the same events as the
 * loop of `rbcsp.ulsa.run`: no conflicts left, conflicts at or below the
 * target cap, conflicts below the best so far, the step budget reached (the
 * run's, or the end of the caller's slice), or a restart due.  Every step
 * draws from the block of uniforms exactly as `_step` does through
 * `rbcsp.ulsa._Uniforms`, and a used-up block is refilled in place from the
 * run's numpy bit generator, as `_Uniforms` does with
 * `rng.random(out=block)`; so a run follows the same trajectory with or
 * without the kernel.
 *
 * The tables are `rbcsp.core._FlatTables`: the incidence slots of
 * variable v are inc_start[v] .. inc_start[v+1]-1, in constraint id order;
 * slot s holds constraint slot_cid[s] with other endpoint slot_other[s], and
 * rev[s] is the constraint's slot at that other endpoint.  Its relation is
 * packed in rows of W = ceil(d / 64) words: bit u & 63 of
 * bits[(s*d + w) * W + (u >> 6)] is the violation flag when the other
 * endpoint holds w and v holds u, so word k of a row holds the values
 * 64k .. 64k+63.
 *
 * The step loop takes one of two paths, with the same trajectory, and keeps
 * the path's cache in the run's buffer `cache`:
 *
 * - The count path keeps the count table counts, n rows of 64 bytes: byte
 *   counts[v * 64 + u] is the number of conflicts v would have at value u
 *   under its neighbours' current values, the sum of flag u over the rows of
 *   v's slots.  A gather is one scan of v's row; a change of var from old to
 *   value takes, at the far end o = rev[s] of each slot s, the row
 *   bits[o * d + old] from its endpoint's counts and adds bits[o * d + value].
 *   A step takes it when the host has AVX-512BW, d <= 64, so that a row of
 *   counts is one vector, and no variable has more than 255 slots, so that
 *   no count overflows its byte.
 * - The bit-plane path, everywhere else, keeps the row cache cur: cur[s * W]
 *   holds slot s's row under the current value of its other endpoint, so the
 *   rows of a variable lie in order, one after another.  A gather counts
 *   them in bit planes, one word at a time; a change refreshes the rows at
 *   the far end of its slots.
 *
 * The caller sets `fresh` whenever it hands over a state the cache does not
 * hold (`rbcsp.ulsa._KernelRun`): the first call and every restart.  The
 * kernel then chooses the path, writes it to `counted`, and fills the cache
 * from x.  The field order of `ulsa_run` matches `rbcsp._native._RunStruct`.
 */
#include <stdint.h>
#include <string.h>
#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define COUNT_PATH 1
#else
#define COUNT_PATH 0
#endif

/* numpy's bitgen_t, as in numpy/random/bitgen.h */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

typedef struct {
    /* tables, read only */
    const uint64_t *bits;
    const int32_t *inc_start, *slot_other, *slot_cid, *rev, *con_a, *con_b;
    int64_t n, d;
    /* search state, updated in place: the path's cache, 64-byte aligned, of
     * 2m rows of W words or n rows of 64 bytes, whichever is larger */
    uint64_t *cache;
    int64_t fresh, counted;
    int64_t *x, *t;
    int32_t *ids, *pos;
    int64_t nviol, n_iter;
    /* step counters, updated in place */
    int64_t iterations, expansions, worsening;
    /* the block of uniforms, the cursor into it and the generator refilling it */
    double *u;
    int64_t nu, upos;
    bitgen_t *gen;
    /* exit thresholds; cap -1, budget 0 and interval 0 mean none */
    int64_t best, cap, budget, interval;
} ulsa_run;

/* the moves of one endpoint v: its conflicts now, the fewest at another
 * value, and the n values that reach the fewest, the set bits of the W words
 * of mask, value 64k + b at bit b of word k */
typedef struct {
    int32_t cur, min;
    int64_t n;
    uint64_t *mask;
} moves;

static double uniform(ulsa_run *r)
{
    if (r->upos == r->nu) {
        for (int64_t k = 0; k < r->nu; k++)
            r->u[k] = r->gen->next_double(r->gen->state);
        r->upos = 0;
    }
    return r->u[r->upos++];
}

/* the number of set bits of v: the POPCNT instruction where the target has
 * it, else Warren's branch-free count (Hacker's Delight, 5-1), as the
 * builtin would otherwise call into libgcc */
static inline __attribute__((always_inline)) int64_t popcount(uint64_t v)
{
#ifdef __POPCNT__
    return __builtin_popcountll(v);
#else
    v -= v >> 1 & 0x5555555555555555ULL;
    v = (v & 0x3333333333333333ULL) + (v >> 2 & 0x3333333333333333ULL);
    v = (v + (v >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (int64_t)(v * 0x0101010101010101ULL >> 56);
#endif
}

/* the words of slot s's row under the current value of its other endpoint:
 * read from bits at the start, where the endpoint may have no value yet, and
 * from the row cache in the search */
static inline __attribute__((always_inline)) const uint64_t *
row_of(const ulsa_run *r, int64_t W, int32_t s, int live)
{
    if (!live)
        return r->cache + (int64_t)s * W;
    return r->bits + ((int64_t)s * r->d + r->x[r->slot_other[s]]) * W;
}

/* the flag of value u in a row; with W = 1 the word is row[0] */
static inline __attribute__((always_inline)) int flag(const uint64_t *row, int64_t W,
                                                      int64_t u)
{
    return (int)(row[W == 1 ? 0 : u >> 6] >> (u & 63) & 1);
}

/* word k of the rows of slots s0 .. s1-1 summed into `depth` bit planes, one
 * carry chain per row: plane j holds bit j of every value's count; with
 * live set, only the slots whose other endpoint has a value (x >= 0) count */
static inline __attribute__((always_inline)) void
accumulate(const ulsa_run *r, int64_t W, int64_t k, int32_t s0, int32_t s1, uint64_t *plane,
           int depth, int live)
{
    for (int j = 0; j < depth; j++)
        plane[j] = 0;
    for (int32_t s = s0; s < s1; s++) {
        if (live && r->x[r->slot_other[s]] < 0)
            continue;
        uint64_t carry = row_of(r, W, s, live)[k];
        for (int j = 0; j < depth; j++) {
            uint64_t next = plane[j] & carry;
            plane[j] ^= carry;
            carry = next;
        }
    }
}

/* the least count among the values of *values, from the planes scanned from
 * the top; *values keeps those of its values that reach it */
static inline __attribute__((always_inline)) int32_t least(const uint64_t *plane, int depth,
                                                          uint64_t *values)
{
    int32_t min = 0;
    for (int j = depth - 1; j >= 0; j--) {
        uint64_t zero = *values & ~plane[j];
        if (zero)
            *values = zero;
        else
            min |= (int32_t)1 << j;
    }
    return min;
}

/* v's moves: word by word, v's incident rows are counted in bitlen(deg v)
 * bit planes, a carry-save count (Warren, Hacker's Delight, ch. 5), and the
 * least count of the word's values and the values that reach it are read
 * from the planes; the least over the words is mv->min.  In the search
 * (live unset) x[v] is masked out and its count is mv->cur; at the start
 * (live set) v has no value and all d values count */
static inline __attribute__((always_inline)) void
gather(const ulsa_run *r, int64_t W, int64_t v, int live, moves *mv)
{
    const int32_t s0 = r->inc_start[v], s1 = r->inc_start[v + 1];
    const int depth = s1 > s0 ? 64 - __builtin_clzll((uint64_t)(s1 - s0)) : 0;
    const int64_t xv = r->x[v], tail = r->d & 63;
    uint64_t plane[32];
    for (int64_t k = 0; k < W; k++) {
        switch (depth) { /* a constant depth unrolls, with the planes in registers */
#define DEPTH(j) case j: accumulate(r, W, k, s0, s1, plane, j, live); break;
        DEPTH(1) DEPTH(2) DEPTH(3) DEPTH(4) DEPTH(5) DEPTH(6) DEPTH(7) DEPTH(8)
#undef DEPTH
        default: accumulate(r, W, k, s0, s1, plane, depth, live);
        }
        uint64_t values = k < W - 1 || !tail ? ~0ULL : (1ULL << tail) - 1;
        if (!live && k == (W == 1 ? 0 : xv >> 6)) {
            int32_t cur = 0;
            for (int j = 0; j < depth; j++)
                cur |= (int32_t)(plane[j] >> (xv & 63) & 1) << j;
            mv->cur = cur;
            values &= ~(1ULL << (xv & 63));
        }
        /* a word left with no values reads 2^depth - 1, no less than any count */
        const int32_t min = least(plane, depth, &values);
        if (k == 0 || min < mv->min) {
            for (int64_t j = 0; j < k; j++)
                mv->mask[j] = 0;
            mv->min = min;
            mv->n = 0;
        }
        mv->mask[k] = min == mv->min ? values : 0;
        mv->n += popcount(mv->mask[k]);
    }
}

/* the k-th of mv's values, ascending, k < mv->n */
static inline __attribute__((always_inline)) int64_t value_at(const moves *mv, int64_t W,
                                                             int64_t k)
{
    int64_t w = 0;
    for (; w < W - 1; w++) {
        const int64_t c = popcount(mv->mask[w]);
        if (k < c)
            break;
        k -= c;
    }
    uint64_t mask = mv->mask[w];
    for (; k > 0; k--)
        mask &= mask - 1;
    return 64 * w + __builtin_ctzll(mask);
}

/* constraint cid, whose flag has just changed, enters the violated set if it
 * is not a member, and leaves it by a swap with the last member otherwise,
 * without a branch */
static inline __attribute__((always_inline)) void toggle(ulsa_run *r, int32_t cid)
{
    const int32_t at = r->pos[cid];
    const int now = at < 0;
    const int64_t tail = r->nviol - 1 + now;  /* the new end, or the last member */
    const int32_t last = r->ids[tail];
    const int32_t moved = now ? cid : last, p = now ? (int32_t)tail : at;
    r->ids[p] = moved;
    r->pos[moved] = p;
    r->pos[cid] = now ? p : -1;
    r->nviol += 2 * now - 1;
}

/* the slots of var listed, at most CHANGED at a time */
#define CHANGED 64

/* the bit-plane path's listing for slots c0 .. c1-1 of var: the slots whose
 * flag differs between old and value, read from the row cache, go to
 * changed, and the row at the far end of each slot is refreshed for value;
 * returns how many were listed */
static inline __attribute__((always_inline)) int
list_rows(ulsa_run *r, int64_t W, int64_t old, int64_t value, int32_t c0, int32_t c1,
          int32_t *changed)
{
    /* locals, as a store to cur could otherwise alias the struct's fields */
    uint64_t *const cur = r->cache;
    const uint64_t *const bits = r->bits;
    const int32_t *const rev = r->rev;
    const int64_t d = r->d;
    int n = 0;
    for (int32_t s = c0; s < c1; s++) {
        const uint64_t *row = cur + (int64_t)s * W;
        changed[n] = s;
        n += flag(row, W, value) != flag(row, W, old);
        const int64_t o = rev[s];
        const uint64_t *fresh = bits + (o * d + value) * W;
        for (int64_t k = 0; k < W; k++)
            cur[o * W + k] = fresh[k];
    }
    return n;
}

/* the bit-plane path's cache filled from x: row s of cur is slot s's row under
 * the current value of its other endpoint */
static void fill_rows(ulsa_run *r, int64_t W)
{
    for (int64_t s = 0; s < r->inc_start[r->n]; s++)
        memcpy(r->cache + s * W, r->bits + (s * r->d + r->x[r->slot_other[s]]) * W,
               (size_t)W * sizeof(uint64_t));
}

#if COUNT_PATH
/* the count path, in functions of their own, as GCC inlines no function
 * compiled for AVX-512 into one that is not; the row of counts of v is
 * counts + 64 v, a vector whose byte u is v's count at value u */
#define COUNTS_TARGET __attribute__((target("avx512f,avx512bw,popcnt")))

/* the count path's cache filled from x: v's row sums the rows of its slots
 * under their other endpoints' current values */
static COUNTS_TARGET void fill_counts(ulsa_run *r)
{
    uint8_t *const counts = (uint8_t *)r->cache;
    const __m512i one = _mm512_set1_epi8(1);
    for (int64_t v = 0; v < r->n; v++) {
        __m512i c = _mm512_setzero_si512();
        for (int32_t s = r->inc_start[v]; s < r->inc_start[v + 1]; s++)
            c = _mm512_mask_add_epi8(c, r->bits[s * r->d + r->x[r->slot_other[s]]], c, one);
        _mm512_store_si512(counts + 64 * v, c);
    }
}

/* `gather` on the count path: v's count at x[v], the least count at another
 * of the d values, and those that reach it, all read from v's row */
static COUNTS_TARGET void scan_counts(const ulsa_run *r, int64_t v, moves *mv)
{
    const uint8_t *row = (const uint8_t *)r->cache + 64 * v;
    const int64_t xv = r->x[v];
    const __mmask64 values = (r->d == 64 ? ~0ULL : (1ULL << r->d) - 1) & ~(1ULL << xv);
    const __m512i c = _mm512_load_si512(row);
    /* the least byte over values: the others read 255, no less than any count */
    const __m512i m = _mm512_mask_blend_epi8(values, _mm512_set1_epi8(-1), c);
    const __m256i h = _mm256_min_epu8(_mm512_castsi512_si256(m),
                                      _mm512_extracti64x4_epi64(m, 1));
    __m128i q = _mm_min_epu8(_mm256_castsi256_si128(h), _mm256_extracti128_si256(h, 1));
    q = _mm_min_epu8(q, _mm_srli_epi16(q, 8));  /* each 16-bit lane its pair's least */
    const int32_t min = _mm_cvtsi128_si32(_mm_minpos_epu16(q)) & 0xffff;
    const uint64_t at = _mm512_mask_cmpeq_epi8_mask(values, c, _mm512_set1_epi8((char)min));
    mv->cur = row[xv];
    mv->min = min;
    mv->mask[0] = at;
    mv->n = __builtin_popcountll(at);
}

/* the count path's listing for slots c0 .. c1-1 of var: with a and b the far
 * end's rows under old and under value, the slot's flag changes where a and
 * b differ at the other endpoint's value, and the other endpoint's counts
 * lose a and gain b; returns how many were listed */
static COUNTS_TARGET int list_counts(ulsa_run *r, int64_t old, int64_t value, int32_t c0,
                                     int32_t c1, int32_t *changed)
{
    uint8_t *const counts = (uint8_t *)r->cache;
    const uint64_t *const bits = r->bits;
    const int32_t *const rev = r->rev, *const other = r->slot_other;
    const int64_t *const x = r->x, d = r->d;
    const __m512i one = _mm512_set1_epi8(1);
    int n = 0;
    for (int32_t s = c0; s < c1; s++) {
        const int64_t o = rev[s], w = other[s];
        const uint64_t a = bits[o * d + old], b = bits[o * d + value];
        changed[n] = s;
        n += (a ^ b) >> x[w] & 1;
        uint8_t *row = counts + 64 * w;
        __m512i c = _mm512_load_si512(row);
        c = _mm512_mask_sub_epi8(c, a, c, one);
        _mm512_store_si512(row, _mm512_mask_add_epi8(c, b, c, one));
    }
    return n;
}

/* the count path serves the run when this host has AVX-512BW, d <= 64 and
 * no variable has more than 255 slots */
static int use_counts(const ulsa_run *r)
{
    __builtin_cpu_init();
    if (r->d > 64 || !__builtin_cpu_supports("avx512bw"))
        return 0;
    for (int64_t v = 0; v < r->n; v++)
        if (r->inc_start[v + 1] - r->inc_start[v] > 255)
            return 0;
    return 1;
}
#else
/* off x86-64 the count path is never taken */
static int use_counts(const ulsa_run *r) { (void)r; return 0; }
static void fill_counts(ulsa_run *r) { (void)r; __builtin_unreachable(); }
static void scan_counts(const ulsa_run *r, int64_t v, moves *mv)
{
    (void)r, (void)v, (void)mv;
    __builtin_unreachable();
}
static int list_counts(ulsa_run *r, int64_t old, int64_t value, int32_t c0, int32_t c1,
                       int32_t *changed)
{
    (void)r, (void)old, (void)value, (void)c0, (void)c1, (void)changed;
    __builtin_unreachable();
}
#endif

/* SearchState._apply_with_cols: slots whose flag differs between the old and
 * the new value enter or leave the violated set, in slot order.  The path
 * keeps its cache current as it lists them, and then they are toggled */
static inline __attribute__((always_inline)) void apply(ulsa_run *r, int64_t W, int counted,
                                                        int64_t var, int64_t value)
{
    const int64_t old = r->x[var];
    const int32_t s1 = r->inc_start[var + 1];
    int32_t changed[CHANGED];
    for (int32_t c0 = r->inc_start[var]; c0 < s1; c0 += CHANGED) {
        const int32_t c1 = s1 - c0 < CHANGED ? s1 : c0 + CHANGED;
        const int n = counted ? list_counts(r, old, value, c0, c1, changed)
                              : list_rows(r, W, old, value, c0, c1, changed);
        for (int k = 0; k < n; k++)
            toggle(r, r->slot_cid[changed[k]]);
    }
    r->x[var] = value;
    r->t[var] = ++r->n_iter;
}

/* v's moves on the run's path */
static inline __attribute__((always_inline)) void moves_of(const ulsa_run *r, int64_t W,
                                                           int counted, int64_t v, moves *mv)
{
    if (counted)
        scan_counts(r, v, mv);
    else
        gather(r, W, v, 0, mv);
}

/* the step loop for rows of W words, on the count path if counted is set;
 * mask holds 2W words, W for each endpoint */
static inline __attribute__((always_inline)) void advance(ulsa_run *r, int64_t W, int counted,
                                                          uint64_t *mask)
{
    for (;;) {
        int32_t cid = r->ids[(int64_t)(uniform(r) * (double)r->nviol)];
        int64_t a = r->con_a[cid], b = r->con_b[cid], i, j;
        if (r->t[a] < r->t[b] || (r->t[a] == r->t[b] && uniform(r) < 0.5))
            i = a, j = b;
        else
            i = b, j = a;

        moves mi = {.mask = mask}, mj = {.mask = mask + W};
        moves_of(r, W, counted, i, &mi);
        int expanded = mi.min > mi.cur && r->t[j] != r->n_iter;
        int64_t var, value, delta;
        if (!expanded) {
            var = i;
            value = value_at(&mi, W, (int64_t)(uniform(r) * (double)mi.n));
            delta = mi.min - mi.cur;
        } else {
            moves_of(r, W, counted, j, &mj);
            int64_t delta_i = mi.min - mi.cur, delta_j = mj.min - mj.cur;
            delta = delta_i < delta_j ? delta_i : delta_j;
            int64_t ni = delta_i == delta ? mi.n : 0;
            int64_t nj = delta_j == delta ? mj.n : 0;
            int64_t pick = (int64_t)(uniform(r) * (double)(ni + nj));
            var = pick < ni ? i : j;
            value = pick < ni ? value_at(&mi, W, pick) : value_at(&mj, W, pick - ni);
        }

        apply(r, W, counted, var, value);
        r->iterations++;
        r->expansions += expanded;
        r->worsening += delta > 0;

        if (r->nviol == 0 || r->nviol <= r->cap || r->nviol < r->best
            || (r->budget && r->iterations >= r->budget)
            || (r->interval && r->n_iter >= r->interval))
            return;
    }
}

/* a fresh state chooses the path and fills its cache; then one copy of the
 * loop runs for the count path, one for the bit planes with W fixed at 1, and
 * one for any W */
void ulsa_advance(ulsa_run *r)
{
    const int64_t W = (r->d + 63) / 64;
    if (r->fresh) {
        r->counted = use_counts(r);
        if (r->counted)
            fill_counts(r);
        else
            fill_rows(r, W);
        r->fresh = 0;
    }
    if (r->counted) {
        uint64_t mask[2];
        advance(r, 1, 1, mask);
    } else if (W == 1) {
        uint64_t mask[2];
        advance(r, 1, 0, mask);
    } else {
        uint64_t mask[2 * W];
        advance(r, W, 0, mask);
    }
}

/* the greedy loop for rows of W words; mask holds W words */
static inline __attribute__((always_inline)) void
start(ulsa_run *r, int64_t W, const int64_t *perm, int64_t n, bitgen_t *gen, uint64_t *mask)
{
    for (int64_t k = 0; k < n; k++) {
        const int64_t v = perm[k];
        moves mv = {.mask = mask};
        gather(r, W, v, 1, &mv);
        const double u = gen->next_double(gen->state);
        r->x[v] = value_at(&mv, W, (int64_t)(u * (double)mv.n));
    }
}

/* `ulsa_init` runs the greedy loop of `rbcsp.ulsa.init_state` on the tables
 * above: it visits the variables in the order perm[0..n-1], and counts, for
 * each value of the variable visited, its conflicts with the variables that
 * hold a value already.  It then draws u, the next double of gen, as
 * rng.random() does once per variable, and sets the variable to the k-th
 * value, ascending, of those with the least count, k = (int)(u * their
 * number).  x receives the n values.
 */
void ulsa_init(const uint64_t *bits, const int32_t *inc_start, const int32_t *slot_other,
               int64_t d, const int64_t *perm, int64_t n, bitgen_t *gen, int64_t *x)
{
    ulsa_run r = {.bits = bits, .inc_start = inc_start, .slot_other = slot_other, .d = d,
                  .x = x};
    const int64_t W = (d + 63) / 64;
    for (int64_t v = 0; v < n; v++)
        x[v] = -1; /* no value yet */
    if (W == 1) {
        uint64_t mask[1];
        start(&r, 1, perm, n, gen, mask);
    } else {
        uint64_t mask[W];
        start(&r, W, perm, n, gen, mask);
    }
}


/* -- the packed tables --------------------------------------------------------
 *
 * `build_bits` fills the packed rows `bits` of `rbcsp.core._FlatTables`, W =
 * ceil(d / 64) words a row, from the instance arrays of
 * `rbcsp.core.CspInstance`: constraint i disallows the pairs (a, b) whose
 * codes a * d + b are codes[pair_start[i] .. pair_start[i+1]-1], ascending.
 * Its var_a has the incidence slot slot[i] and its var_b the slot
 * slot[m + i].  A pair (a, b) sets flag a of row slot[i] * d + b, var_a's row
 * when var_b holds b, and flag b of row slot[m + i] * d + a; bits must hold
 * 2m * d * W zeros.
 */
/* the rows for W words; with W = 1 a flag's word is the row's one */
static inline __attribute__((always_inline)) void
fill(const int32_t *codes, const int64_t *pair_start, int64_t m, int64_t d, const int64_t *slot,
     uint64_t *bits, int64_t W)
{
    for (int64_t i = 0; i < m; i++) {
        uint64_t *row_a = bits + slot[i] * d * W, *row_b = bits + slot[m + i] * d * W;
        /* a = code / d, divided out only when the code leaves [base, base + d) */
        int64_t a = 0, base = 0;
        for (int64_t j = pair_start[i]; j < pair_start[i + 1]; j++) {
            const int64_t code = codes[j];
            if (code < base || code - base >= d) {
                a = code / d;
                base = a * d;
            }
            const int64_t b = code - base;
            row_a[b * W + (W == 1 ? 0 : a >> 6)] |= 1ULL << (a & 63);
            row_b[a * W + (W == 1 ? 0 : b >> 6)] |= 1ULL << (b & 63);
        }
    }
}

void build_bits(const int32_t *codes, const int64_t *pair_start, int64_t m, int64_t d,
                const int64_t *slot, uint64_t *bits)
{
    const int64_t W = (d + 63) / 64;
    if (W == 1)
        fill(codes, pair_start, m, d, slot, bits, 1);
    else
        fill(codes, pair_start, m, d, slot, bits, W);
}


/* -- the text readers ---------------------------------------------------------
 *
 * `read_header`, `read_csp` and `read_dimacs` read the texts of
 * `rbcsp.core.loads_csp` and `rbcsp.misbridge.parse_dimacs` in one pass,
 * straight into the arrays those functions return.  They accept a text only
 * when they can prove it valid, and return -1 for any other, after which
 * the caller reads it with its Python reference; so every error comes from
 * Python.  The callers pass the text as UTF-8 with no line break beyond
 * ASCII.  Lines end at each byte of class BREAK and tokens are the runs of
 * bytes of no class, as `str.splitlines()` and `str.split()` find them in
 * such a text: a byte of 0x80 or above, part of a character beyond ASCII,
 * is a token byte, which a comment line skips and any other line refuses.
 * A line break is a space too, and "\r\n" reads as a break and an empty
 * line, which needs no line number here.  Blank lines and lines whose first
 * token is "c" may stand anywhere.
 * Numbers are tokens of at most MAX_DIGITS ASCII digits after an optional
 * '+'; a '-', an underscore or a longer token is left to Python's `int()`.
 *
 * `read_header` skips the comment and blank lines before the first other
 * line, which must be "p <word> <v[0]> .. <v[nv-1]>", and returns the offset
 * after its break, with the numbers in v.  The caller checks them and sizes
 * the body's arrays from them and from the rest of the text, so that no
 * array is longer than the text could fill.
 *
 * `read_csp` reads the body after the "p bcsp n d m" header: 'k a b npairs'
 * lines, each followed by its npairs 'f va vb' lines, with a and b below n
 * and differing and va and vb below d, and at most one 's' line of n values
 * below d, standing outside a block.  It writes constraint i's endpoints to
 * con_a[i] and con_b[i] and its first code's place to pair_start[i], for
 * m constraints, and each pair's code va * d + vb to codes, in text order.
 * *ascending is set when the codes of every block ascend strictly, as in a
 * written file, so that they are in the order `rbcsp.core.CspInstance` keeps
 * and hold no repeat; else the caller sorts them and leaves a text whose
 * block repeats a pair to Python.  It returns the number of codes, and sets
 * *seen when it wrote an 's' line to solution.  con_a and con_b hold mcap
 * entries, pair_start mcap + 1, codes fcap and solution scap.
 *
 * `read_dimacs` reads the body after the "p edge V E" header: 'e u v' lines
 * with u and v in 1..V and differing.  It writes each edge as the 0-based row
 * (min, max) of pairs, two int32s, in text order: the caller passes no V
 * above 2^31 - 1 (`rbcsp.misbridge.MAX_VERTICES`).  It returns the number
 * of rows, or -2 once a line finds all cap rows written.  *ascending is set
 * when the rows ascend strictly, as in a written file, so that they need no
 * sort and hold no repeat.  Unless offsets is NULL, it also writes the
 * offset of each row's 'e' to offsets, so that the caller can name the
 * lines of repeated edges.
 *
 * On a host with AVX-512BW, VBMI and VBMI2 and BMI2, chosen at run time,
 * `read_csp` and `read_dimacs` (when offsets is NULL) first try, at each
 * line start with at least 64 bytes left, `window_lines`: one 64-byte load
 * that reads the canonical lines "f <a> <b>\n" or "e <u> <v>\n" at its
 * start, a and b, u and v of 1 to 4 ASCII digits with single spaces.  It
 * returns their numbers, and each reader checks and stores them with the
 * same checks as its line-by-line code.  It declines, returning 0 lines,
 * at the first line of any other form: a 'k', 's' or comment line, a blank
 * line, a '+', a tab, a '\r', a trailing space, a number of 5 or more
 * digits, or a line that ends past the window.  That line and every line
 * in the text's last 63 bytes are read by `tag` and `number` as before.  It
 * reads at most room lines: want - got and fcap - nf for `read_csp`, so a
 * block's last pair and the codes' capacity stop it, and cap - e for
 * `read_dimacs`.  The line past those bounds is then read line by line, so
 * -1 and -2 come at the same line as without the window.
 */

#define SPACE 1
#define BREAK 2
#define MAX_DIGITS 18 /* any 18 digits fit in int64 */

/* the ASCII whitespace of str.split() and line breaks of str.splitlines(),
 * rbcsp.core._SPACES and _BREAKS below 0x80; every other byte is a token's */
static const uint8_t CLASS[256] = {
    ['\t'] = SPACE, [' '] = SPACE, [0x1f] = SPACE,
    ['\n'] = SPACE | BREAK, ['\v'] = SPACE | BREAK, ['\f'] = SPACE | BREAK,
    ['\r'] = SPACE | BREAK, [0x1c] = SPACE | BREAK, [0x1d] = SPACE | BREAK,
    [0x1e] = SPACE | BREAK,
};

/* the first byte at or after i that is not a space within a line */
static inline int64_t skip_spaces(const uint8_t *s, int64_t i, int64_t len)
{
    while (i < len && CLASS[s[i]] == SPACE)
        i++;
    return i;
}

/* the offset after the break ending the line at i, or len */
static inline int64_t skip_line(const uint8_t *s, int64_t i, int64_t len)
{
    while (i < len && !(CLASS[s[i]] & BREAK))
        i++;
    return i < len ? i + 1 : len;
}

/* whether the next token of the line at *i is a number, then read into *v
 * with *i moved past it */
static inline int number(const uint8_t *s, int64_t *i, int64_t len, int64_t *v)
{
    int64_t j = skip_spaces(s, *i, len);
    if (j < len && s[j] == '+')
        j++;
    const int64_t start = j;
    uint64_t x = 0;
    unsigned digit;
    while (j < len && (digit = (unsigned)s[j] - '0') <= 9) {
        x = x * 10 + digit;
        j++;
    }
    if (j == start || j - start > MAX_DIGITS || (j < len && !CLASS[s[j]]))
        return 0;
    *v = (int64_t)x;
    *i = j;
    return 1;
}

/* whether the line at *i holds no more tokens, then with *i moved past it */
static inline int line_end(const uint8_t *s, int64_t *i, int64_t len)
{
    const int64_t j = skip_spaces(s, *i, len);
    if (j < len && !(CLASS[s[j]] & BREAK))
        return 0;
    *i = j < len ? j + 1 : len;
    return 1;
}

/* the tag of the next line with tokens at or after *i, with *i moved past
 * it, skipping blank and comment lines; -1 at the end of the text, and 0 if
 * the first token is longer than one byte (a NUL tag is no tag either) */
static inline int tag(const uint8_t *s, int64_t *i, int64_t len)
{
    for (;;) {
        const int64_t j = skip_spaces(s, *i, len);
        if (j == len)
            return -1;
        if (CLASS[s[j]] & BREAK) {
            *i = j + 1;
            continue;
        }
        if (j + 1 < len && !CLASS[s[j + 1]])
            return 0;
        if (s[j] == 'c') {
            *i = skip_line(s, j + 1, len);
            continue;
        }
        *i = j + 1;
        return s[j];
    }
}

#if COUNT_PATH
/* every host with AVX-512 has POPCNT too */
#define WINDOW_TARGET \
    __attribute__((target("avx512f,avx512bw,avx512vbmi,avx512vbmi2,bmi2,popcnt")))

/* the canonical lines "<t> <a> <b>\n", a and b of 1 to 4 digits, that start
 * the 64 bytes at *i, at most room >= 0 of them: their numbers go to num, a
 * then b for each, 32 entries at most, *i moves past them, and their count
 * is returned.  Every byte is a digit or not; the bytes that are not, in
 * order, must read t, ' ', ' ', '\n' line after line, and a line is cut at
 * the first byte that breaks the rule: a digit after a byte that is neither
 * a digit nor a space, a space before a byte that is no digit, or a fifth
 * digit in a row.  Each run of digits takes its value at its end, from
 * copies of the digits moved down by one, two and three bytes within the
 * run.  Needs 64 bytes at *i */
static WINDOW_TARGET int window_lines(const uint8_t *s, int64_t *i, uint8_t t, int64_t room,
                                      uint16_t *num)
{
    const __m512i v = _mm512_loadu_si512(s + *i);
    const __m512i dv = _mm512_sub_epi8(v, _mm512_set1_epi8('0'));
    const uint64_t dg = _mm512_cmplt_epu8_mask(dv, _mm512_set1_epi8(10));
    const uint64_t sp = _mm512_cmpeq_epi8_mask(v, _mm512_set1_epi8(' '));
    const uint64_t nl = _mm512_cmpeq_epi8_mask(v, _mm512_set1_epi8('\n'));
    const __m512i form = _mm512_set1_epi32((int)(t | ' ' << 8 | ' ' << 16 | '\n' << 24));
    const uint64_t same = _mm512_cmpeq_epi8_mask(_mm512_maskz_compress_epi8(~dg, v), form);
    const int64_t matched = (~same ? __builtin_ctzll(~same) : 64) / 4;
    const uint64_t bad = (dg & ~((dg | sp) << 1)) | (sp & ~(dg >> 1))
                         | (dg & dg >> 1 & dg >> 2 & dg >> 3 & dg >> 4);
    /* the breaks of the lines before the first bad byte, at most room of
     * them and none past the matched lines */
    const uint64_t ends = _pdep_u64(_bzhi_u64(~0ULL, (unsigned)(room < matched ? room : matched)),
                                    nl & (bad - 1) & ~bad);
    if (!ends)
        return 0;
    const unsigned size = 64 - (unsigned)__builtin_clzll(ends);
    /* the last digit of each run; the digits one, two and three before it in
     * its run, else zero */
    const uint64_t last = _bzhi_u64(dg & ~(dg >> 1), size), c1 = dg & dg << 1,
                   c2 = c1 & dg << 2, c3 = c2 & dg << 3;
    const __m512i at = _mm512_set_epi64(0x3f3e3d3c3b3a3938, 0x3736353433323130,
                                        0x2f2e2d2c2b2a2928, 0x2726252423222120,
                                        0x1f1e1d1c1b1a1918, 0x1716151413121110,
                                        0x0f0e0d0c0b0a0908, 0x0706050403020100);
    const __m512i one = _mm512_set1_epi8(1);
    const __m512i at1 = _mm512_sub_epi8(at, one), at2 = _mm512_sub_epi8(at1, one),
                  at3 = _mm512_sub_epi8(at2, one);
    const __m512i d1 = _mm512_maskz_permutexvar_epi8(c1, at1, dv),
                  d2 = _mm512_maskz_permutexvar_epi8(c2, at2, dv),
                  d3 = _mm512_maskz_permutexvar_epi8(c3, at3, dv);
    /* 10x as 8x + 2x in 16-bit lanes: x <= 9, so no bit crosses into the next byte */
#define TEN(x) _mm512_add_epi8(_mm512_slli_epi16(x, 3), _mm512_slli_epi16(x, 1))
    const __m512i low = _mm512_add_epi8(dv, TEN(d1)), high = _mm512_add_epi8(d2, TEN(d3));
#undef TEN
    const __m512i lo = _mm512_cvtepu8_epi16(
        _mm512_castsi512_si256(_mm512_maskz_compress_epi8(last, low)));
    const __m512i hi = _mm512_cvtepu8_epi16(
        _mm512_castsi512_si256(_mm512_maskz_compress_epi8(last, high)));
    _mm512_storeu_si512(num, _mm512_add_epi16(lo, _mm512_mullo_epi16(hi, _mm512_set1_epi16(100))));
    *i += size;
    return (int)__builtin_popcountll(ends);
}

/* the window serves a reader when this host has AVX-512BW, VBMI and VBMI2
 * and BMI2 */
static int use_window(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vbmi")
           && __builtin_cpu_supports("avx512vbmi2") && __builtin_cpu_supports("bmi2");
}
#else
/* off x86-64 the window is never taken */
static int use_window(void) { return 0; }
static int window_lines(const uint8_t *s, int64_t *i, uint8_t t, int64_t room, uint16_t *num)
{
    (void)s, (void)i, (void)t, (void)room, (void)num;
    __builtin_unreachable();
}
#endif

/* a block's next code at codes[*nf], with *got counting the block's codes;
 * *ascending is cleared unless it is above the block's last */
static inline void put_code(int64_t code, int32_t *codes, int64_t *nf, int64_t *got,
                            int64_t *ascending)
{
    if ((*got)++ && code <= codes[*nf - 1])
        *ascending = 0;
    codes[(*nf)++] = (int32_t)code;
}

/* the edge (u, v) as the 0-based row (min, max) of pairs at *e; *ascending is
 * cleared unless it is above the last row */
static inline void put_edge(int64_t u, int64_t v, int32_t *pairs, int64_t *e, int64_t *ascending)
{
    int32_t *row = pairs + 2 * (*e)++;
    row[0] = (int32_t)((u < v ? u : v) - 1);
    row[1] = (int32_t)((u < v ? v : u) - 1);
    if (*e > 1 && (row[-2] > row[0] || (row[-2] == row[0] && row[-1] >= row[1])))
        *ascending = 0;
}

int64_t read_header(const uint8_t *s, int64_t len, const char *word, int64_t nv, int64_t *v)
{
    int64_t i = 0;
    if (tag(s, &i, len) != 'p')
        return -1;
    i = skip_spaces(s, i, len);
    for (; *word; word++, i++)
        if (i == len || s[i] != (uint8_t)*word)
            return -1;
    if (i < len && !CLASS[s[i]])
        return -1;
    for (int64_t k = 0; k < nv; k++)
        if (!number(s, &i, len, &v[k]))
            return -1;
    return line_end(s, &i, len) ? i : -1;
}

int64_t read_csp(const uint8_t *s, int64_t len, int64_t i, int64_t n, int64_t d, int64_t m,
                 int32_t *con_a, int32_t *con_b, int64_t *pair_start, int64_t mcap,
                 int32_t *codes, int64_t fcap, int64_t *solution, int64_t scap, int64_t *seen,
                 int64_t *ascending)
{
    int64_t k = 0, nf = 0, want = 0, got = 0, a, b, c;
    const int window = use_window();
    uint16_t num[32];
    *seen = 0;
    *ascending = 1;
    for (int t;;) {
        const int64_t room = want - got < fcap - nf ? want - got : fcap - nf;
        const int lines = window && len - i >= 64 ? window_lines(s, &i, 'f', room, num) : 0;
        for (int j = 0; j < lines; j++) {
            if (num[2 * j] >= d || num[2 * j + 1] >= d)
                return -1;
            put_code(num[2 * j] * d + num[2 * j + 1], codes, &nf, &got, ascending);
        }
        if (lines)
            continue;
        if ((t = tag(s, &i, len)) < 0)
            break;
        if (t == 'f') {
            if (got == want || nf == fcap || !number(s, &i, len, &a) || a >= d
                || !number(s, &i, len, &b) || b >= d || !line_end(s, &i, len))
                return -1;
            put_code(a * d + b, codes, &nf, &got, ascending);
        } else if (t == 'k') {
            if (got < want || k == mcap || !number(s, &i, len, &a) || a >= n
                || !number(s, &i, len, &b) || b >= n || a == b
                || !number(s, &i, len, &c) || c < 1 || !line_end(s, &i, len))
                return -1;
            con_a[k] = (int32_t)a;
            con_b[k] = (int32_t)b;
            pair_start[k++] = nf;
            want = c;
            got = 0;
        } else if (t == 's') {
            if (*seen || got < want || n > scap)
                return -1;
            for (int64_t v = 0; v < n; v++)
                if (!number(s, &i, len, &solution[v]) || solution[v] >= d)
                    return -1;
            if (!line_end(s, &i, len))
                return -1;
            *seen = 1;
        } else {
            return -1;
        }
    }
    if (got < want || k != m)
        return -1;
    pair_start[k] = nf;
    return nf;
}

int64_t read_dimacs(const uint8_t *s, int64_t len, int64_t i, int64_t nv, int32_t *pairs,
                    int64_t cap, int64_t *ascending, int64_t *offsets)
{
    int64_t e = 0, u, v;
    const int window = use_window() && !offsets;
    uint16_t num[32];
    *ascending = 1;
    for (int t;;) {
        const int lines = window && len - i >= 64 ? window_lines(s, &i, 'e', cap - e, num) : 0;
        for (int j = 0; j < lines; j++) {
            u = num[2 * j], v = num[2 * j + 1];
            if (u < 1 || u > nv || v < 1 || v > nv || u == v)
                return -1;
            put_edge(u, v, pairs, &e, ascending);
        }
        if (lines)
            continue;
        if ((t = tag(s, &i, len)) < 0)
            break;
        const int64_t at = i - 1;
        if (t != 'e' || !number(s, &i, len, &u) || u < 1 || u > nv
            || !number(s, &i, len, &v) || v < 1 || v > nv || u == v || !line_end(s, &i, len))
            return -1;
        if (e == cap)
            return -2;
        if (offsets)
            offsets[e] = at;
        put_edge(u, v, pairs, &e, ascending);
    }
    return e;
}


/* -- the text writers ---------------------------------------------------------
 *
 * `write_blocks` writes the body of `rbcsp.core.dumps_csp`, its 'k' and 'f'
 * lines, from the instance arrays.  `write_edges` writes the 'e' lines of
 * `rbcsp.misbridge.emit_dimacs` from the (u, v) rows of `pairs`, two int32s
 * each, 1-based.
 * All numbers are nonnegative.
 *
 * Each writes its text into the caller's buffer of cap bytes at out, in one
 * pass, and returns its length; if the text does not fit, it returns -1,
 * having written nothing beyond cap bytes.
 *
 * The numbers of the 'f' and 'e' lines are copied from a digit table that
 * each call builds with `digit_table` in scratch allocated by the caller,
 * `rbcsp.core._write`, as `rbcsp.modelrb` allocates `rb_sample`'s: 9 * ntab
 * bytes at table, the word of k at table + 8k, " <k>" padded with zero
 * bytes to 8, and the lengths of the words, a byte each, at
 * table + 8 * ntab.  So the kernel keeps no state between calls, and
 * concurrent calls share nothing.  `write_blocks` looks up the values
 * 0 .. d-1, `write_edges` the vertex numbers 1 .. V (entry 0 unused).  A
 * word holds a space and 7 digits, so ntab <= 10^7; the caller passes
 * ntab = 0 when there would be more entries than the text has lines, as
 * the table would then cost more than it saves.  A line whose numbers are
 * both below ntab is its tag, two unaligned 8-byte stores, each advanced
 * by its word's length, and '\n': 18 bytes at most are touched, so it is
 * written that way only with 18 bytes of room before cap.  Any other line,
 * every 'k' line, and a line nearer cap, is written by `put_line`, which
 * divides out each digit and writes exactly its line.
 */

/* the number of decimal digits of v */
static int64_t count_digits(uint64_t v)
{
    int64_t k = 1;
    while (v >= 10) {
        v /= 10;
        k++;
    }
    return k;
}

/* the k decimal digits of v written at p; returns their end */
static inline char *put_uint(char *p, int64_t k, uint64_t v)
{
    for (char *q = p + k; q > p; v /= 10)
        *--q = (char)('0' + v % 10);
    return p + k;
}

/* the line "<tag> <v[0]> ... <v[nv-1]>\n" written at p, nv <= 3; returns its
 * end, or NULL, writing nothing, if it does not fit in end - p bytes */
static inline __attribute__((always_inline)) char *
put_line(char *p, const char *end, char tag, int nv, const uint64_t *v)
{
    int64_t k[3], len = 2 + nv; /* the tag, a space before each number, the break */
    for (int i = 0; i < nv; i++)
        len += k[i] = count_digits(v[i]);
    if (end - p < len)
        return NULL;
    *p++ = tag;
    for (int i = 0; i < nv; i++) {
        *p++ = ' ';
        p = put_uint(p, k[i], v[i]);
    }
    *p++ = '\n';
    return p;
}

/* the digit table: " <k>" padded with zero bytes at word + 8k, and its
 * length at len[k], for k = 0 .. count-1 */
static void digit_table(int64_t count, char *word, uint8_t *len)
{
    for (int64_t k = 0; k < count; k++) {
        const int64_t n = count_digits((uint64_t)k);
        char *w = word + 8 * k;
        memset(w, 0, 8);
        w[0] = ' ';
        put_uint(w + 1, n, (uint64_t)k);
        len[k] = (uint8_t)(n + 1);
    }
}

/* the line "<tag> <a> <b>\n" written at p; returns its end, or NULL, writing
 * nothing, if it does not fit in end - p bytes.  From the digit table when
 * a and b are in it and 18 bytes are free, else by `put_line` */
static inline __attribute__((always_inline)) char *
put_pair(char *p, const char *end, char tag, uint64_t a, uint64_t b, const char *word,
         const uint8_t *len, uint64_t ntab)
{
    if (a < ntab && b < ntab && end - p >= 18) {
        *p++ = tag;
        memcpy(p, word + 8 * a, 8);
        p += len[a];
        memcpy(p, word + 8 * b, 8);
        p += len[b];
        *p++ = '\n';
        return p;
    }
    const uint64_t v[2] = {a, b};
    return put_line(p, end, tag, 2, v);
}

int64_t write_blocks(const int32_t *con_a, const int32_t *con_b, const int64_t *pair_start,
                     int64_t m, const int32_t *codes, int64_t d, char *table, int64_t ntab,
                     char *out, int64_t cap)
{
    uint8_t *len = (uint8_t *)table + 8 * ntab;
    digit_table(ntab, table, len);
    char *p = out;
    for (int64_t i = 0; i < m; i++) {
        const uint64_t k[3] = {(uint64_t)con_a[i], (uint64_t)con_b[i],
                               (uint64_t)(pair_start[i + 1] - pair_start[i])};
        if (!(p = put_line(p, out + cap, 'k', 3, k)))
            return -1;
        /* a = code / d, divided out only when the code leaves [base, base + d):
         * at most d times per block, as a block's codes ascend */
        int64_t a = 0, base = 0;
        for (int64_t j = pair_start[i]; j < pair_start[i + 1]; j++) {
            const int64_t code = codes[j];
            if (code < base || code - base >= d) {
                a = code / d;
                base = a * d;
            }
            if (!(p = put_pair(p, out + cap, 'f', (uint64_t)a, (uint64_t)(code - base), table,
                               len, (uint64_t)ntab)))
                return -1;
        }
    }
    return p - out;
}

int64_t write_edges(const int32_t *pairs, int64_t num_edges, char *table, int64_t ntab,
                    char *out, int64_t cap)
{
    uint8_t *len = (uint8_t *)table + 8 * ntab;
    digit_table(ntab, table, len);
    char *p = out;
    for (int64_t i = 0; i < num_edges; i++) {
        if (!(p = put_pair(p, out + cap, 'e', (uint64_t)pairs[2 * i] + 1,
                           (uint64_t)pairs[2 * i + 1] + 1, table, len, (uint64_t)ntab)))
            return -1;
    }
    return p - out;
}


/* -- the MIS conversions ------------------------------------------------------
 *
 * `mis_edges` writes the edges of `rbcsp.misbridge.csp_to_mis`, and
 * `mis_constraints` the constraints of `rbcsp.misbridge.mis_to_csp`, each
 * in its final order, with no sort.  Vertex p * d + a stands for
 * variable p holding value a, and block p is variable p's d vertices.  The
 * caller sizes every buffer from a bound that holds by construction, and
 * each function returns the count it wrote.
 *
 * `mis_edges` takes the constraints in the order `order`, by (low endpoint,
 * high endpoint, id).  It first orients the codes of each constraint from
 * its low endpoint to its high one: a constraint with con_a > con_b has its
 * codes a * d + b rewritten as b * d + a into `oriented`, at the same
 * places, ascending by a counting sort on b.  Then for each vertex
 * u = (p, a) in ascending order it writes the rows (u, w), w > u: u's clique
 * neighbours (p, a+1 .. d-1), and then, constraint by constraint in `order`,
 * the vertices (q, b) of the oriented codes a * d + b of each constraint on
 * (p, q), read through the constraint's cursor.  Constraints on one block
 * pair, in either orientation, are neighbours in `order`, and their runs are
 * merged through a mask of ceil(d / 64) words, which drops repeated edges.
 * So the rows come out ascending and distinct.  pairs must hold
 * n * d(d-1)/2 + len(codes) rows of two int32s, cursor m int64s and, if
 * any constraint has con_a > con_b, oriented len(codes) int32s.
 *
 * `mis_constraints` walks the rows (u, w), u < w, two int32s each, of a
 * graph's `pairs` in their ascending order, one block p of u at a time.  A
 * row with w in block p is a clique edge, counted in inner[p]; any other is
 * a cross edge to a block q > p.  A u's rows into one block q form a run,
 * and the next run's q is one more, or else found by a multiplication by
 * 1 / d, so no row takes a division.  A block's cross edges come in the order (a, q, b), and
 * a counting sort by q reorders them, in two passes over the block's rows:
 * the first counts each q's rows and marks q in a mask of ceil(n / 64)
 * words; the marked blocks, taken in ascending order, become the block's
 * constraints (p, q); the second pass writes each row's code a * d + b at
 * the end of its constraint's codes.  That is the order (q, a, b) that
 * sorting them all would give.  It returns the number of constraints, whose
 * codes are codes[pair_start[i] .. pair_start[i+1]-1].  count must hold n
 * zeros and mask ceil(n / 64), and both are left so; inner takes n counts,
 * codes one code per cross edge, and con_a, con_b and pair_start one entry
 * per block pair with a cross edge, pair_start one more.
 */

/* the low and high endpoint of constraint i */
static inline int64_t low_end(const int32_t *con_a, const int32_t *con_b, int64_t i)
{
    return con_a[i] < con_b[i] ? con_a[i] : con_b[i];
}

static inline int64_t high_end(const int32_t *con_a, const int32_t *con_b, int64_t i)
{
    return con_a[i] < con_b[i] ? con_b[i] : con_a[i];
}

/* the ascending codes[s .. e-1], each a * d + b, written as b * d + a at
 * oriented[s .. e-1], ascending; count holds d + 1 int64s */
static void orient(const int32_t *codes, int64_t s, int64_t e, int64_t d, int64_t *count,
                   int32_t *oriented)
{
    for (int64_t b = 0; b <= d; b++)
        count[b] = 0;
    /* a = code / d, divided out only when the code leaves [base, base + d) */
    int64_t a = 0, base = 0;
    for (int64_t j = s; j < e; j++) {
        if (codes[j] - base >= d) {
            a = codes[j] / d;
            base = a * d;
        }
        count[codes[j] - base + 1]++;
    }
    for (int64_t b = 0; b < d; b++) /* count[b]: where b's codes start */
        count[b + 1] += count[b];
    a = base = 0;
    for (int64_t j = s; j < e; j++) {
        if (codes[j] - base >= d) {
            a = codes[j] / d;
            base = a * d;
        }
        const int64_t b = codes[j] - base;
        oriented[s + count[b]++] = (int32_t)(b * d + a);
    }
}

int64_t mis_edges(const int32_t *con_a, const int32_t *con_b, const int64_t *pair_start,
                  const int32_t *codes, const int64_t *order, int64_t m, int64_t n, int64_t d,
                  int64_t *cursor, int32_t *oriented, int32_t *pairs)
{
    {
        int64_t count[d + 1];
        for (int64_t i = 0; i < m; i++)
            if (con_a[i] > con_b[i])
                orient(codes, pair_start[i], pair_start[i + 1], d, count, oriented);
    }
    const int64_t W = (d + 63) / 64;
    uint64_t mask[W];
    memset(mask, 0, sizeof mask);
    int64_t e = 0; /* rows written */
    for (int64_t p = 0, k0 = 0, k1; p < n; p++, k0 = k1) {
        /* the constraints order[k0 .. k1-1] have low endpoint p */
        for (k1 = k0; k1 < m && low_end(con_a, con_b, order[k1]) == p; k1++)
            cursor[k1] = pair_start[order[k1]];
        for (int64_t a = 0; a < d; a++) {
            /* u's oriented codes are a * d + b, below limit */
            const int64_t u = p * d + a, limit = (a + 1) * d;
            for (int64_t w = u + 1; w < (p + 1) * d; w++, e++) {
                pairs[2 * e] = (int32_t)u;
                pairs[2 * e + 1] = (int32_t)w;
            }
            /* each group order[k .. g-1] of the constraints on (p, q) */
            for (int64_t k = k0, g; k < k1; k = g) {
                const int64_t q = high_end(con_a, con_b, order[k]), to = q * d - a * d;
                for (g = k + 1; g < k1 && high_end(con_a, con_b, order[g]) == q; g++)
                    ;
                for (int64_t j = k; j < g; j++) {
                    const int64_t i = order[j], end = pair_start[i + 1];
                    const int32_t *run = con_a[i] > con_b[i] ? oriented : codes;
                    int64_t c = cursor[j];
                    if (g == k + 1) /* one constraint: its run is u's rows into block q */
                        for (; c < end && run[c] < limit; c++, e++) {
                            pairs[2 * e] = (int32_t)u;
                            pairs[2 * e + 1] = (int32_t)(run[c] + to);
                        }
                    else
                        for (; c < end && run[c] < limit; c++) {
                            const int64_t b = run[c] - a * d;
                            mask[b >> 6] |= 1ULL << (b & 63);
                        }
                    cursor[j] = c;
                }
                if (g == k + 1)
                    continue;
                for (int64_t x = 0; x < W; x++) {
                    for (uint64_t bits = mask[x]; bits; bits &= bits - 1, e++) {
                        pairs[2 * e] = (int32_t)u;
                        pairs[2 * e + 1] = (int32_t)(q * d + 64 * x + __builtin_ctzll(bits));
                    }
                    mask[x] = 0;
                }
            }
        }
    }
    return e;
}

/* the end of the run of rows from r on that share u and have w below limit */
static inline int64_t run_end(const int32_t *pairs, int64_t r, int64_t num_edges, int64_t u,
                              int64_t limit)
{
    while (r < num_edges && pairs[2 * r] == u && pairs[2 * r + 1] < limit)
        r++;
    return r;
}

/* w / d from a multiplication by inv = 1.0 / d, which a division takes
 * several times as long as.  For w < 2^31 the product is within a few ulps
 * of w / d, so its floor can be one short, at a multiple of d (w = 49 at
 * d = 49), but never over: a fraction below an integer is at least 1 / d */
static inline int64_t block_of(int64_t w, int64_t d, double inv)
{
    const int64_t q = (int64_t)((double)w * inv);
    return q + ((q + 1) * d <= w);
}

int64_t mis_constraints(const int32_t *pairs, int64_t num_edges, int64_t n, int64_t d,
                        int64_t *inner, int64_t *count, uint64_t *mask, int32_t *con_a,
                        int32_t *con_b, int64_t *pair_start, int32_t *codes)
{
    const double inv = 1.0 / (double)d;
    int64_t r = 0, k = 0, total = 0; /* rows walked, constraints and codes written */
    for (int64_t p = 0; p < n; p++) {
        /* block p's rows are r0 .. r-1, its vertices p * d .. end - 1 */
        const int64_t r0 = r, k0 = k, end = (p + 1) * d;
        int64_t top = p;
        inner[p] = 0;
        /* each u's rows: its clique edges, then one run per block q, ascending */
        while (r < num_edges && pairs[2 * r] < end) {
            const int64_t u = pairs[2 * r], s = r;
            r = run_end(pairs, r, num_edges, u, end);
            inner[p] += r - s;
            for (int64_t q = p; r < num_edges && pairs[2 * r] == u;) {
                const int64_t w = pairs[2 * r + 1], s = r;
                q = w < (q + 2) * d ? q + 1 : block_of(w, d, inv);
                r = run_end(pairs, r, num_edges, u, (q + 1) * d);
                count[q] += r - s;
                mask[q >> 6] |= 1ULL << (q & 63);
                top = q > top ? q : top;
            }
        }
        /* one constraint per marked block, ascending; count[q]: where its codes start */
        for (int64_t x = (p + 1) >> 6; x <= top >> 6; x++) {
            for (uint64_t bits = mask[x]; bits; bits &= bits - 1, k++) {
                const int64_t q = 64 * x + __builtin_ctzll(bits), c = count[q];
                con_a[k] = (int32_t)p;
                con_b[k] = (int32_t)q;
                pair_start[k] = total;
                count[q] = total;
                total += c;
            }
            mask[x] = 0;
        }
        /* the same runs again, each copied to the end of its block's codes */
        for (int64_t t = r0; t < r;) {
            const int64_t u = pairs[2 * t];
            t = run_end(pairs, t, r, u, end);
            for (int64_t q = p; t < r && pairs[2 * t] == u;) {
                const int64_t w = pairs[2 * t + 1], s = t;
                q = w < (q + 2) * d ? q + 1 : block_of(w, d, inv);
                t = run_end(pairs, t, r, u, (q + 1) * d);
                /* the code (u - p * d) * d + w - q * d of each row's w */
                const int64_t shift = (u - p * d - q) * d;
                int32_t *out = codes + count[q];
                for (int64_t j = s; j < t; j++)
                    *out++ = (int32_t)(pairs[2 * j + 1] + shift);
                count[q] += t - s;
            }
        }
        for (int64_t j = k0; j < k; j++)
            count[con_b[j]] = 0;
    }
    pair_start[k] = total;
    return k;
}


/* -- Model RB sampling --------------------------------------------------------
 *
 * `rb_sample` runs the loop of `rbcsp.modelrb._sample` on a PCG64 stream of
 * its own, started from the state and increment of the freshly seeded
 * generator that `_sample` hands over, and draws what numpy's `Generator`
 * methods draw from that generator, in the same order, so that an instance
 * comes out byte for byte as the numpy loop writes it.  With hidden not
 * NULL it first draws the n hidden values, as `rng.integers(0, d, size=n)`
 * does.  Then for each of the m constraints it draws the variable pair as
 * `_draw_pair` does, two calls of `rng.integers`, and writes its low end to
 * con_a and its high end to con_b; then it draws the first q entries of
 * `rng.permutation(d * d)`, drawn afresh, while the hidden values' pair is
 * among them, and writes them in ascending order to
 * codes[i * q .. i * q + q - 1].  Under `rbcsp.core.check_size`
 * n <= 100,000 and d <= 4,472, so every draw takes the 32-bit paths below.
 * perm and js hold d * d entries of scratch, and mark d * d zero bytes, zero
 * again on return.
 */

/* PCG64 (O'Neill 2014) as numpy's bit generator steps it: a 128-bit LCG
 * state hi:lo with increment inc_hi:inc_lo, each step's XSL-RR output served
 * as two 32-bit draws, low half first, as numpy's next_uint32 buffers them */
typedef struct {
    uint64_t hi, lo, inc_hi, inc_lo;
    uint32_t half;
    int has_half;
} pcg64;

/* state = state * 0x2360ED051FC65DA44385DF649FCCF645 + inc, mod 2^128 */
static inline void pcg64_step(pcg64 *g)
{
    const uint64_t mul_hi = 0x2360ED051FC65DA4ULL, mul_lo = 0x4385DF649FCCF645ULL;
#if defined(__SIZEOF_INT128__)
    const unsigned __int128 low = (unsigned __int128)g->lo * mul_lo + g->inc_lo;
    uint64_t from_lo = (uint64_t)(low >> 64) + g->lo * mul_hi + g->inc_hi;
    /* opaque to the optimizer, which would otherwise add hi * mul_lo first
     * and put all four adds on the chain from one hi to the next */
    __asm__("" : "+r"(from_lo));
    g->hi = g->hi * mul_lo + from_lo;
    g->lo = (uint64_t)low;
#else
    /* the high word of lo * mul_lo, by 32-bit schoolbook multiplication */
    const uint64_t a0 = (uint32_t)g->lo, a1 = g->lo >> 32;
    const uint64_t b0 = (uint32_t)mul_lo, b1 = mul_lo >> 32;
    const uint64_t p01 = a0 * b1, p10 = a1 * b0;
    const uint64_t mid = ((a0 * b0) >> 32) + (uint32_t)p01 + (uint32_t)p10;
    const uint64_t lo_mul_hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
    const uint64_t lo = g->lo * mul_lo + g->inc_lo;
    g->hi = lo_mul_hi + g->lo * mul_hi + g->hi * mul_lo + g->inc_hi + (lo < g->inc_lo);
    g->lo = lo;
#endif
}

static inline uint32_t pcg64_next32(pcg64 *g)
{
    if (g->has_half) {
        g->has_half = 0;
        return g->half;
    }
    pcg64_step(g);
    const unsigned rot = (unsigned)(g->hi >> 58);
    const uint64_t x = g->hi ^ g->lo;
    const uint64_t out = (x >> rot) | (x << ((64 - rot) & 63));
    g->half = (uint32_t)(out >> 32);
    g->has_half = 1;
    return (uint32_t)out;
}

/* `rng.integers(rng + 1)` for rng < 2^32 - 1: numpy's
 * buffered_bounded_lemire_uint32 (Lemire, arXiv:1805.10941), which draws
 * nothing when the range holds one value; inline, as GCC would otherwise
 * split its redraw loop into a function placed ahead of `ulsa_advance`,
 * moving the code of every pass that does not sample */
static inline uint32_t bounded(pcg64 *g, uint32_t rng)
{
    if (rng == 0)
        return 0;
    const uint32_t excl = rng + 1;
    uint64_t v = (uint64_t)pcg64_next32(g) * excl;
    if ((uint32_t)v < excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % excl;
        while ((uint32_t)v < threshold)
            v = (uint64_t)pcg64_next32(g) * excl;
    }
    return (uint32_t)(v >> 32);
}

/* The set of the first q entries of `rng.permutation(D)`, in perm[0 .. q-1]:
 * numpy sets perm to 0 .. D-1, then for i from D-1 down to 1 swaps entries i
 * and j, j drawn as its random_interval(i) does: next_uint32 under the least
 * mask of ones that covers i, redrawn while above i.  The draws come first,
 * into js, one mask level at a time, with no branch on a draw's value: each
 * is written to js[i], and i moves on only when it is at most i, so js[i]
 * keeps the last draw for i.  Then the swaps run for i >= q only: one at
 * i < q exchanges two of the first q entries, so leaves their set as it is;
 * its draws are still made, as they advance the stream.  A swap at i only
 * moves entry i to j, as neither a later swap nor the caller reads entry i */
static void permute(pcg64 *g, int32_t *perm, uint32_t *js, int64_t D, int64_t q)
{
    uint32_t mask = (uint32_t)(D - 1);
    for (int s = 1; s < 32; s <<= 1)
        mask |= mask >> s;
    /* i unsigned, so that a step of i is a compare and an add with carry */
    for (uint64_t i = (uint64_t)D - 1; i > 0; mask >>= 1) {
        const uint64_t below = mask >> 1; /* the level holds i in (below, mask] */
        while (i > below) {
            const uint32_t j = pcg64_next32(g) & mask;
            js[i] = j;
            i -= j <= i;
        }
    }
    for (int64_t k = 0; k < D; k++)
        perm[k] = (int32_t)k;
    for (int64_t i = D - 1; i >= q; i--)
        perm[js[i]] = perm[i];
}

void rb_sample(uint64_t state_hi, uint64_t state_lo, uint64_t inc_hi, uint64_t inc_lo,
               int64_t n, int64_t d, int64_t m, int64_t q, int64_t *hidden,
               int32_t *con_a, int32_t *con_b, int32_t *codes, int32_t *perm, uint32_t *js,
               uint8_t *mark)
{
    pcg64 g = {state_hi, state_lo, inc_hi, inc_lo, 0, 0};
    const int64_t D = d * d;
    if (hidden)
        for (int64_t v = 0; v < n; v++)
            hidden[v] = bounded(&g, (uint32_t)(d - 1));
    for (int64_t i = 0; i < m; i++) {
        const int64_t a = bounded(&g, (uint32_t)(n - 1));
        int64_t b = bounded(&g, (uint32_t)(n - 2));
        b += b >= a;
        con_a[i] = (int32_t)(a < b ? a : b);
        con_b[i] = (int32_t)(a < b ? b : a);
        const int64_t hit = hidden ? hidden[con_a[i]] * d + hidden[con_b[i]] : -1;
        for (;;) {
            permute(&g, perm, js, D, q);
            for (int64_t k = 0; k < q; k++)
                mark[perm[k]] = 1;
            if (hit < 0 || !mark[hit])
                break;
            for (int64_t k = 0; k < q; k++)
                mark[perm[k]] = 0;
        }
        /* the marked codes, ascending: each code is written at the next
         * place and kept there when marked, so no write passes the q-th;
         * the scan ends at the last mark, and the marks it passed are
         * cleared in one go */
        int32_t *out = codes + i * q;
        int64_t c = 0;
        for (int64_t k = 0; k < q; c++) {
            out[k] = (int32_t)c;
            k += mark[c];
        }
        memset(mark, 0, (size_t)c);
    }
}
