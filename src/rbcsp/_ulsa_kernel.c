/* ULSA's step loop, compiled.
 *
 * `ulsa_advance` applies whole iterations of `rbcsp.ulsa._step` to one run's
 * state in place and returns at a step boundary on the same events as the
 * loop of `rbcsp.ulsa.run`: no conflicts left, conflicts at or below the
 * target cap, conflicts below the best so far, the step budget reached (the
 * run's, or the end of the caller's slice), or a restart due.  Every step draws from the block of uniforms exactly as
 * `_step` does through `rbcsp.ulsa._Uniforms`, and a used-up block is
 * refilled in place from the run's numpy bit generator, as `_Uniforms` does
 * with `rng.random(out=block)`; so a run follows the same trajectory with or
 * without the kernel.
 *
 * The tables are `rbcsp.core._FlatTables`: the incidence slots of
 * variable v are inc_start[v] .. inc_start[v+1]-1, in constraint id order;
 * slot s holds constraint slot_cid[s] with other endpoint slot_other[s] and
 * the d x d relation rows[s*d*d + w*d + u], the violation flag when the
 * other endpoint holds w and v holds u.  For d <= 64 the same flags are
 * packed in bits[s*d + w], bit u, and the counts are kept in bit planes;
 * for d > 64 bits is NULL and the byte rows are summed.  The field order of
 * `ulsa_run` matches `rbcsp.ulsa._RunStruct`.
 */
#include <stdint.h>
#include <string.h>

#define MASK (1 << 30) /* bigger than any conflict count; hides the current value */

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
    const uint8_t *rows;
    const uint64_t *bits;
    const int32_t *inc_start, *slot_other, *slot_cid, *con_a, *con_b;
    int64_t d;
    /* search state, updated in place */
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
    /* scratch for d > 64: a count vector of d and a candidate list of 2d */
    int32_t *counts, *cands;
} ulsa_run;

/* the moves of one endpoint v: its conflicts now, the fewest at another
 * value, and the n values other than x[v] that reach the fewest, ascending:
 * the set bits of mask when d <= 64, list[0..n-1] otherwise */
typedef struct {
    int32_t cur, min;
    int64_t n;
    uint64_t mask;
    const int32_t *list;
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

/* row index s*d + w of slot s under the current value w of its other endpoint */
static int64_t row_of(const ulsa_run *r, int32_t s)
{
    return (int64_t)s * r->d + r->x[r->slot_other[s]];
}

/* the packed rows of slots s0 .. s1-1 summed into `depth` bit planes, one
 * carry chain per row: plane k holds bit k of every value's count */
static inline __attribute__((always_inline)) void
accumulate(const ulsa_run *r, int32_t s0, int32_t s1, uint64_t *plane, int depth)
{
    for (int k = 0; k < depth; k++)
        plane[k] = 0;
    for (int32_t s = s0; s < s1; s++) {
        uint64_t carry = r->bits[row_of(r, s)];
        for (int k = 0; k < depth; k++) {
            uint64_t next = plane[k] & carry;
            plane[k] ^= carry;
            carry = next;
        }
    }
}

/* d <= 64: v's incident rows are counted in bitlen(deg v) bit planes, a
 * carry-save count (Warren, Hacker's Delight, ch. 5); the planes, scanned
 * from the top with x[v] masked out, give the least count and the values
 * that reach it */
static void gather_bits(const ulsa_run *r, int64_t v, moves *mv)
{
    const int32_t s0 = r->inc_start[v], s1 = r->inc_start[v + 1];
    const int depth = s1 > s0 ? 64 - __builtin_clzll((uint64_t)(s1 - s0)) : 0;
    uint64_t plane[32];
    switch (depth) { /* a constant depth unrolls, with the planes in registers */
#define DEPTH(k) case k: accumulate(r, s0, s1, plane, k); break;
    DEPTH(1) DEPTH(2) DEPTH(3) DEPTH(4) DEPTH(5) DEPTH(6) DEPTH(7) DEPTH(8)
#undef DEPTH
    default: accumulate(r, s0, s1, plane, depth);
    }
    const int64_t xv = r->x[v];
    uint64_t mask = (r->d == 64 ? ~0ULL : (1ULL << r->d) - 1) & ~(1ULL << xv);
    int32_t cur = 0, min = 0;
    for (int k = depth - 1; k >= 0; k--) {
        cur |= (int32_t)(plane[k] >> xv & 1) << k;
        uint64_t zero = mask & ~plane[k];
        if (zero)
            mask = zero;
        else
            min |= (int32_t)1 << k;
    }
    mv->cur = cur;
    mv->min = min;
    mv->mask = mask;
    mv->n = __builtin_popcountll(mask);
}

/* d > 64: the byte rows summed into counts, then the values at the least
 * count listed into out */
static void gather_bytes(const ulsa_run *r, int64_t v, moves *mv, int32_t *out)
{
    const int64_t d = r->d;
    int32_t *counts = r->counts;
    memset(counts, 0, (size_t)d * sizeof *counts);
    for (int32_t s = r->inc_start[v]; s < r->inc_start[v + 1]; s++) {
        const uint8_t *row = r->rows + row_of(r, s) * d;
        for (int64_t u = 0; u < d; u++)
            counts[u] += row[u];
    }
    mv->cur = counts[r->x[v]];
    counts[r->x[v]] = MASK;
    int32_t min = counts[0];
    for (int64_t u = 1; u < d; u++)
        if (counts[u] < min)
            min = counts[u];
    int64_t n = 0;
    for (int64_t u = 0; u < d; u++)
        if (counts[u] == min)
            out[n++] = (int32_t)u;
    mv->min = min;
    mv->n = n;
    mv->list = out;
}

static void gather(const ulsa_run *r, int64_t v, moves *mv, int32_t *out)
{
    if (r->bits)
        gather_bits(r, v, mv);
    else
        gather_bytes(r, v, mv, out);
}

/* the k-th of mv's values, k < mv->n */
static int64_t value_at(const ulsa_run *r, const moves *mv, int64_t k)
{
    if (!r->bits)
        return mv->list[k];
    uint64_t mask = mv->mask;
    for (; k > 0; k--)
        mask &= mask - 1;
    return __builtin_ctzll(mask);
}

static void add(ulsa_run *r, int32_t cid)
{
    if (r->pos[cid] < 0) {
        r->pos[cid] = (int32_t)r->nviol;
        r->ids[r->nviol++] = cid;
    }
}

static void discard(ulsa_run *r, int32_t cid)
{
    int32_t p = r->pos[cid];
    if (p < 0)
        return;
    int32_t last = r->ids[r->nviol - 1];
    r->ids[p] = last;
    r->pos[last] = p;
    r->nviol--;
    r->pos[cid] = -1;
}

/* SearchState._apply_with_cols: slots whose flag differs between the old and
 * the new value enter or leave the violated set, in slot order */
static void apply(ulsa_run *r, int64_t var, int64_t value)
{
    const int64_t old = r->x[var];
    for (int32_t s = r->inc_start[var]; s < r->inc_start[var + 1]; s++) {
        const int64_t w = row_of(r, s);
        int now, was;
        if (r->bits) {
            now = (int)(r->bits[w] >> value & 1);
            was = (int)(r->bits[w] >> old & 1);
        } else {
            now = r->rows[w * r->d + value];
            was = r->rows[w * r->d + old];
        }
        if (now != was) {
            if (now)
                add(r, r->slot_cid[s]);
            else
                discard(r, r->slot_cid[s]);
        }
    }
    r->x[var] = value;
    r->t[var] = ++r->n_iter;
}

void ulsa_advance(ulsa_run *r)
{
    for (;;) {
        int32_t cid = r->ids[(int64_t)(uniform(r) * (double)r->nviol)];
        int64_t a = r->con_a[cid], b = r->con_b[cid], i, j;
        if (r->t[a] < r->t[b] || (r->t[a] == r->t[b] && uniform(r) < 0.5))
            i = a, j = b;
        else
            i = b, j = a;

        moves mi, mj;
        gather(r, i, &mi, r->cands);
        int expanded = mi.min > mi.cur && r->t[j] != r->n_iter;
        int64_t var, value, delta;
        if (!expanded) {
            var = i;
            value = value_at(r, &mi, (int64_t)(uniform(r) * (double)mi.n));
            delta = mi.min - mi.cur;
        } else {
            gather(r, j, &mj, r->cands + r->d);
            int64_t delta_i = mi.min - mi.cur, delta_j = mj.min - mj.cur;
            delta = delta_i < delta_j ? delta_i : delta_j;
            int64_t ni = delta_i == delta ? mi.n : 0;
            int64_t nj = delta_j == delta ? mj.n : 0;
            int64_t pick = (int64_t)(uniform(r) * (double)(ni + nj));
            var = pick < ni ? i : j;
            value = pick < ni ? value_at(r, &mi, pick) : value_at(r, &mj, pick - ni);
        }

        apply(r, var, value);
        r->iterations++;
        r->expansions += expanded;
        r->worsening += delta > 0;

        if (r->nviol == 0 || r->nviol <= r->cap || r->nviol < r->best
            || (r->budget && r->iterations >= r->budget)
            || (r->interval && r->n_iter >= r->interval))
            return;
    }
}
