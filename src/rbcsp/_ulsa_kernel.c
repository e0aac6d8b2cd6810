/* ULSA's step loop, compiled.
 *
 * `ulsa_advance` applies whole iterations of `rbcsp.ulsa._step` to one run's
 * state in place and returns at a step boundary on the same events as the
 * loop of `rbcsp.ulsa.run`: no conflicts left, conflicts at or below the
 * target cap, conflicts below the best so far, the step budget reached, a
 * restart due, or fewer than 3 uniforms left in the current block.  Every
 * step draws from the block exactly as `_step` does, so a run follows the
 * same trajectory with or without the kernel.
 *
 * The tables are `rbcsp.core._FlatTables`: the incidence slots of
 * variable v are inc_start[v] .. inc_start[v+1]-1, in constraint id order;
 * slot s holds constraint slot_cid[s] with other endpoint slot_other[s] and
 * the d x d relation rows[s*d*d + w*d + u], the violation flag when the
 * other endpoint holds w and v holds u.  The field order of `ulsa_run`
 * matches `rbcsp.ulsa._RunStruct`.
 */
#include <stdint.h>
#include <string.h>

#define MASK (1 << 30) /* bigger than any conflict count; hides the current value */

typedef struct {
    /* tables, read only */
    const uint8_t *rows;
    const int32_t *inc_start, *slot_other, *slot_cid, *con_a, *con_b;
    int64_t d;
    /* search state, updated in place */
    int64_t *x, *t;
    int32_t *ids, *pos;
    int64_t nviol, n_iter;
    /* step counters, updated in place */
    int64_t iterations, expansions, worsening;
    /* the block of uniforms and the cursor into it */
    const double *u;
    int64_t nu, upos;
    /* exit thresholds; cap -1, budget 0 and interval 0 mean none */
    int64_t best, cap, budget, interval;
    /* scratch: two count vectors of d and a candidate list of 2d */
    int32_t *counts_i, *counts_j, *cands;
} ulsa_run;

/* counts[u] = violated incident constraints of v if x[v] were u, with the
 * current value masked; returns the count at the current value */
static int32_t gather(const ulsa_run *r, int64_t v, int32_t *counts)
{
    const int64_t d = r->d;
    memset(counts, 0, (size_t)d * sizeof *counts);
    for (int32_t s = r->inc_start[v]; s < r->inc_start[v + 1]; s++) {
        const uint8_t *row = r->rows + ((int64_t)s * d + r->x[r->slot_other[s]]) * d;
        for (int64_t u = 0; u < d; u++)
            counts[u] += row[u];
    }
    int32_t cur = counts[r->x[v]];
    counts[r->x[v]] = MASK;
    return cur;
}

static int32_t min_of(const int32_t *counts, int64_t d)
{
    int32_t m = counts[0];
    for (int64_t u = 1; u < d; u++)
        if (counts[u] < m)
            m = counts[u];
    return m;
}

/* the values with counts[u] == m, ascending, written to out; returns how many */
static int64_t cands_of(const int32_t *counts, int64_t d, int32_t m, int32_t *out)
{
    int64_t k = 0;
    for (int64_t u = 0; u < d; u++)
        if (counts[u] == m)
            out[k++] = (int32_t)u;
    return k;
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
    const int64_t d = r->d, old = r->x[var];
    for (int32_t s = r->inc_start[var]; s < r->inc_start[var + 1]; s++) {
        const uint8_t *row = r->rows + ((int64_t)s * d + r->x[r->slot_other[s]]) * d;
        if (row[value] != row[old]) {
            if (row[value])
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
    const int64_t d = r->d;
    while (r->nu - r->upos >= 3) {
        const double *u = r->u + r->upos;
        int k = 0;
        int32_t cid = r->ids[(int64_t)(u[k++] * (double)r->nviol)];
        int64_t a = r->con_a[cid], b = r->con_b[cid], i, j;
        if (r->t[a] < r->t[b] || (r->t[a] == r->t[b] && u[k++] < 0.5))
            i = a, j = b;
        else
            i = b, j = a;

        int32_t cur_i = gather(r, i, r->counts_i);
        int32_t min_i = min_of(r->counts_i, d);
        int expanded = min_i > cur_i && r->t[j] != r->n_iter;
        int64_t var, value, delta;
        if (!expanded) {
            int64_t nc = cands_of(r->counts_i, d, min_i, r->cands);
            var = i;
            value = r->cands[(int64_t)(u[k++] * (double)nc)];
            delta = min_i - cur_i;
        } else {
            int32_t cur_j = gather(r, j, r->counts_j);
            int32_t min_j = min_of(r->counts_j, d);
            int64_t delta_i = min_i - cur_i, delta_j = min_j - cur_j;
            delta = delta_i < delta_j ? delta_i : delta_j;
            int64_t ni = delta_i == delta ? cands_of(r->counts_i, d, min_i, r->cands) : 0;
            int64_t nj = delta_j == delta ? cands_of(r->counts_j, d, min_j, r->cands + ni) : 0;
            int64_t pick = (int64_t)(u[k++] * (double)(ni + nj));
            var = pick < ni ? i : j;
            value = r->cands[pick];
        }
        r->upos += k;

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
