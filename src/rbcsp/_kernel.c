/* The package's compiled kernel: ULSA's start and step loop, the build of
 * the packed search tables, the text reader and the text writers.
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
 * slot s holds constraint slot_cid[s] with other endpoint slot_other[s].
 * For d <= 64 its relation is packed in bits[s*d + w], whose bit u is the
 * violation flag when the other endpoint holds w and v holds u, and the
 * counts are kept in bit planes; rows is then NULL.  For d > 64 bits is
 * NULL, the same flags are the bytes rows[s*d*d + w*d + u], and they are
 * summed.  The field order of `ulsa_run` matches `rbcsp.ulsa._RunStruct`.
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
 * carry chain per row: plane k holds bit k of every value's count; with
 * live set, only the slots whose other endpoint has a value (x >= 0) count */
static inline __attribute__((always_inline)) void
accumulate(const ulsa_run *r, int32_t s0, int32_t s1, uint64_t *plane, int depth, int live)
{
    for (int k = 0; k < depth; k++)
        plane[k] = 0;
    for (int32_t s = s0; s < s1; s++) {
        if (live && r->x[r->slot_other[s]] < 0)
            continue;
        uint64_t carry = r->bits[row_of(r, s)];
        for (int k = 0; k < depth; k++) {
            uint64_t next = plane[k] & carry;
            plane[k] ^= carry;
            carry = next;
        }
    }
}

/* bitlen(deg v): the number of bit planes that hold any count of v's slots */
static int depth_of(const ulsa_run *r, int64_t v)
{
    const int32_t deg = r->inc_start[v + 1] - r->inc_start[v];
    return deg ? 64 - __builtin_clzll((uint64_t)deg) : 0;
}

/* the mask of all d values */
static uint64_t all_values(const ulsa_run *r)
{
    return r->d == 64 ? ~0ULL : (1ULL << r->d) - 1;
}

/* the planes, scanned from the top, give the least count among the values
 * of mask and the values of mask that reach it */
static void least_bits(const uint64_t *plane, int depth, uint64_t mask, moves *mv)
{
    int32_t min = 0;
    for (int k = depth - 1; k >= 0; k--) {
        uint64_t zero = mask & ~plane[k];
        if (zero)
            mask = zero;
        else
            min |= (int32_t)1 << k;
    }
    mv->min = min;
    mv->mask = mask;
    mv->n = __builtin_popcountll(mask);
}

/* d <= 64: v's incident rows are counted in bitlen(deg v) bit planes, a
 * carry-save count (Warren, Hacker's Delight, ch. 5); the least count and
 * the values that reach it are read from the planes with x[v] masked out */
static void gather_bits(const ulsa_run *r, int64_t v, moves *mv)
{
    const int32_t s0 = r->inc_start[v], s1 = r->inc_start[v + 1];
    const int depth = depth_of(r, v);
    uint64_t plane[32];
    switch (depth) { /* a constant depth unrolls, with the planes in registers */
#define DEPTH(k) case k: accumulate(r, s0, s1, plane, k, 0); break;
    DEPTH(1) DEPTH(2) DEPTH(3) DEPTH(4) DEPTH(5) DEPTH(6) DEPTH(7) DEPTH(8)
#undef DEPTH
    default: accumulate(r, s0, s1, plane, depth, 0);
    }
    const int64_t xv = r->x[v];
    int32_t cur = 0;
    for (int k = 0; k < depth; k++)
        cur |= (int32_t)(plane[k] >> xv & 1) << k;
    mv->cur = cur;
    least_bits(plane, depth, all_values(r) & ~(1ULL << xv), mv);
}

/* d > 64: the byte rows of v's slots summed into r->counts; with live set,
 * only the slots whose other endpoint has a value (x >= 0) count */
static void sum_bytes(const ulsa_run *r, int64_t v, int live)
{
    const int64_t d = r->d;
    int32_t *counts = r->counts;
    memset(counts, 0, (size_t)d * sizeof *counts);
    for (int32_t s = r->inc_start[v]; s < r->inc_start[v + 1]; s++) {
        if (live && r->x[r->slot_other[s]] < 0)
            continue;
        const uint8_t *row = r->rows + row_of(r, s) * d;
        for (int64_t u = 0; u < d; u++)
            counts[u] += row[u];
    }
}

/* the least of r->counts and the values that reach it, listed into out */
static void least_bytes(const ulsa_run *r, moves *mv, int32_t *out)
{
    const int64_t d = r->d;
    const int32_t *counts = r->counts;
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

/* d > 64: the byte rows summed into counts, then the values other than x[v]
 * at the least count listed into out */
static void gather_bytes(const ulsa_run *r, int64_t v, moves *mv, int32_t *out)
{
    sum_bytes(r, v, 0);
    mv->cur = r->counts[r->x[v]];
    r->counts[r->x[v]] = MASK;
    least_bytes(r, mv, out);
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

/* `ulsa_init` runs the greedy loop of `rbcsp.ulsa.init_state` on the tables
 * above: it visits the variables in the order perm[0..n-1], and counts, for
 * each value of the variable visited, its conflicts with the variables that
 * hold a value already.  It then draws u, the next double of gen, as
 * rng.random() does once per variable, and sets the variable to the k-th
 * value, ascending, of those with the least count, k = (int)(u * their
 * number).  x receives the n values; scratch holds 2d int32s, used when
 * d > 64, and rows may be NULL when bits is not.
 */
void ulsa_init(const uint64_t *bits, const uint8_t *rows, const int32_t *inc_start,
               const int32_t *slot_other, int64_t d, const int64_t *perm, int64_t n,
               bitgen_t *gen, int64_t *x, int32_t *scratch)
{
    ulsa_run r = {.rows = rows, .bits = bits, .inc_start = inc_start,
                  .slot_other = slot_other, .d = d, .x = x, .counts = scratch};
    for (int64_t v = 0; v < n; v++)
        x[v] = -1; /* no value yet */
    for (int64_t k = 0; k < n; k++) {
        const int64_t v = perm[k];
        moves mv;
        if (bits) {
            uint64_t plane[32];
            const int depth = depth_of(&r, v);
            accumulate(&r, inc_start[v], inc_start[v + 1], plane, depth, 1);
            least_bits(plane, depth, all_values(&r), &mv);
        } else {
            sum_bytes(&r, v, 1);
            least_bytes(&r, &mv, scratch + d);
        }
        const double u = gen->next_double(gen->state);
        x[v] = value_at(&r, &mv, (int64_t)(u * (double)mv.n));
    }
}


/* -- the packed tables --------------------------------------------------------
 *
 * `build_bits` fills the packed rows `bits` of `rbcsp.core._FlatTables` for
 * d <= 64 from the instance arrays of `rbcsp.core.CspInstance`: constraint
 * i disallows the pairs (a, b) whose codes a * d + b are
 * codes[pair_start[i] .. pair_start[i+1]-1], ascending.  Its var_a has the
 * incidence slot slot[i] and its var_b the slot slot[m + i].  A pair (a, b)
 * sets bit a of bits[slot[i] * d + b], var_a's row when var_b holds b, and
 * bit b of bits[slot[m + i] * d + a]; bits must hold 2m * d zeros.
 */
void build_bits(const int32_t *codes, const int64_t *pair_start, int64_t m, int64_t d,
                const int64_t *slot, uint64_t *bits)
{
    for (int64_t i = 0; i < m; i++) {
        uint64_t *row_a = bits + slot[i] * d, *row_b = bits + slot[m + i] * d;
        /* a = code / d, divided out only when the code leaves [base, base + d) */
        int64_t a = 0, base = 0;
        for (int64_t j = pair_start[i]; j < pair_start[i + 1]; j++) {
            const int64_t code = codes[j];
            if (code < base || code - base >= d) {
                a = code / d;
                base = a * d;
            }
            const int64_t b = code - base;
            row_a[b] |= 1ULL << a;
            row_b[a] |= 1ULL << b;
        }
    }
}


/* -- the text reader ----------------------------------------------------------
 *
 * `read_piece` finds the lines and tokens of one ASCII piece of text by the
 * rules of `rbcsp.core._read_piece`, and yields the same results: lines end
 * at each byte of class BREAK, "\r\n" being one break; tokens are the runs of
 * bytes not of class SPACE; a line whose first token is the one byte `tag` is
 * a bulk line, one whose first token is "c" a comment, and any other line
 * with tokens is one of the others.  The classes come from the caller, the
 * 256-byte table `rbcsp.core._ASCII_CLASS`.
 *
 * A bulk line of three tokens has its second and third read as integers,
 * clamped to limit; any other bulk line reads (-1, -1).  Only plain tokens of
 * at most MAX_DIGITS ASCII digits are read here: when a bulk line of three
 * tokens has any other value token, read_piece returns -1 and the caller reads
 * the piece with int()'s rules instead.
 *
 * The caller counts first, with out NULL: sizes receives the numbers of bulk
 * and other lines.  It then calls again with out holding 3 * (bulk + other)
 * int64s, which receive, in order: the bulk line numbers, their values as
 * (first, second) rows, the other line numbers, and their spans as
 * (start, end) rows, the line without its break.  Both calls return the
 * number of breaks in the piece; the second returns -1 as above, and also
 * if it finds more lines than counted, which the two passes rule out.
 */

#define SPACE 1
#define BREAK 2
#define MAX_DIGITS 18 /* core._MAX_DIGITS: any 18 digits fit in int64 */

/* the plain digit token s[0..len-1] clamped to limit, or -1 if it is not one */
static int64_t plain_value(const uint8_t *s, int64_t len, int64_t limit)
{
    if (len > MAX_DIGITS)
        return -1;
    int64_t v = 0;
    for (int64_t i = 0; i < len; i++) {
        unsigned digit = (unsigned)s[i] - '0';
        if (digit > 9)
            return -1;
        v = v * 10 + digit;
    }
    return v < limit ? v : limit;
}

/* the first pass: the bulk and other lines, told apart by their first token */
static int64_t count_lines(const uint8_t *s, int64_t len, const uint8_t *cls, int64_t tag,
                           int64_t *sizes)
{
    int64_t nbulk = 0, nother = 0, line = 0, i = 0;
    for (;;) {
        while (i < len && (cls[s[i]] & (SPACE | BREAK)) == SPACE)
            i++;
        if (i < len && !(cls[s[i]] & BREAK)) {
            const int one = i + 1 == len || cls[s[i + 1]] & (SPACE | BREAK);
            if (one && s[i] == tag)
                nbulk++;
            else if (!(one && s[i] == 'c'))
                nother++;
        }
        while (i < len && !(cls[s[i]] & BREAK))
            i++;
        if (i == len)
            break;
        i += s[i] == '\r' && i + 1 < len && s[i + 1] == '\n' ? 2 : 1;
        line++;
    }
    sizes[0] = nbulk;
    sizes[1] = nother;
    return line;
}

int64_t read_piece(const uint8_t *s, int64_t len, const uint8_t *cls, int64_t tag,
                   int64_t limit, int64_t *sizes, int64_t *out)
{
    if (!out)
        return count_lines(s, len, cls, tag, sizes);
    int64_t nbulk = 0, nother = 0, line = 0, i = 0;
    int64_t *bulk = out, *values = bulk + sizes[0];
    int64_t *others = values + 2 * sizes[0], *spans = others + sizes[1];
    for (;;) {
        int64_t end = i;
        while (end < len && !(cls[s[end]] & BREAK))
            end++;
        /* the line s[i..end): its token count and first three tokens */
        int64_t ntok = 0, tok[3][2];
        for (int64_t j = i;;) {
            while (j < end && cls[s[j]] & SPACE)
                j++;
            if (j == end)
                break;
            const int64_t t = j;
            while (j < end && !(cls[s[j]] & SPACE))
                j++;
            if (ntok < 3) {
                tok[ntok][0] = t;
                tok[ntok][1] = j;
            }
            ntok++;
        }
        if (ntok) {
            const int one = tok[0][1] - tok[0][0] == 1;
            if (one && s[tok[0][0]] == tag) {
                int64_t a = -1, b = -1;
                if (ntok == 3) {
                    a = plain_value(s + tok[1][0], tok[1][1] - tok[1][0], limit);
                    b = plain_value(s + tok[2][0], tok[2][1] - tok[2][0], limit);
                    if (a < 0 || b < 0)
                        return -1;
                }
                if (nbulk == sizes[0]) /* never, if the passes agree */
                    return -1;
                bulk[nbulk] = line;
                values[2 * nbulk] = a;
                values[2 * nbulk + 1] = b;
                nbulk++;
            } else if (!(one && s[tok[0][0]] == 'c')) {
                if (nother == sizes[1])
                    return -1;
                others[nother] = line;
                spans[2 * nother] = i;
                spans[2 * nother + 1] = end;
                nother++;
            }
        }
        if (end == len)
            break;
        i = end + (s[end] == '\r' && end + 1 < len && s[end + 1] == '\n' ? 2 : 1);
        line++;
    }
    return line;
}


/* -- the text writers ---------------------------------------------------------
 *
 * `write_blocks` writes the body of `rbcsp.core.dumps_csp`, its 'k' and 'f'
 * lines, from the instance arrays of `rbcsp.core.CspInstance`: constraint i
 * joins con_a[i] and con_b[i] and disallows the pairs whose codes a * d + b
 * are codes[pair_start[i] .. pair_start[i+1]-1], int32 codes, or int64 ones
 * when wide is nonzero.  `write_edges` writes the 'e' lines of
 * `rbcsp.misbridge.emit_dimacs` from the (u, v) rows of `pairs`, 1-based.
 * All numbers are nonnegative.
 *
 * Each is called twice: with out NULL it returns the exact length of the
 * text, and then with out holding that many bytes it writes the text there
 * and returns the length again.
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

/* the decimal digits of v written at out, or only counted if out is NULL;
 * inlined with a constant out == NULL or not, the test folds away */
static inline __attribute__((always_inline)) int64_t put_uint(char *out, uint64_t v)
{
    const int64_t k = count_digits(v);
    if (out)
        for (char *p = out + k; p > out; v /= 10)
            *--p = (char)('0' + v % 10);
    return k;
}

/* the line "<tag> <v[0]> ... <v[nv-1]>\n" at out, or its length if out is NULL */
static inline __attribute__((always_inline)) int64_t put_line(char *out, char tag, int nv,
                                                              const uint64_t *v)
{
    int64_t len = 1;
    if (out)
        out[0] = tag;
    for (int i = 0; i < nv; i++) {
        if (out)
            out[len] = ' ';
        len++;
        len += put_uint(out ? out + len : NULL, v[i]);
    }
    if (out)
        out[len] = '\n';
    return len + 1;
}

/* write_blocks' text at out, or its length if out is NULL */
static inline __attribute__((always_inline)) int64_t
blocks(const int32_t *con_a, const int32_t *con_b, const int64_t *pair_start, int64_t m,
       const void *codes, int64_t wide, int64_t d, char *out)
{
    const int32_t *narrow_codes = codes;
    const int64_t *wide_codes = codes;
    int64_t len = 0;
    for (int64_t i = 0; i < m; i++) {
        const uint64_t k[3] = {(uint64_t)con_a[i], (uint64_t)con_b[i],
                               (uint64_t)(pair_start[i + 1] - pair_start[i])};
        len += put_line(out ? out + len : NULL, 'k', 3, k);
        /* a = code / d, divided out only when the code leaves [base, base + d):
         * at most d times per block, as a block's codes ascend */
        int64_t a = 0, base = 0;
        for (int64_t j = pair_start[i]; j < pair_start[i + 1]; j++) {
            const int64_t code = wide ? wide_codes[j] : narrow_codes[j];
            if (code < base || code - base >= d) {
                a = code / d;
                base = a * d;
            }
            const uint64_t f[2] = {(uint64_t)a, (uint64_t)(code - base)};
            len += put_line(out ? out + len : NULL, 'f', 2, f);
        }
    }
    return len;
}

/* two inlined copies of the loop: one only counts, one only writes */
int64_t write_blocks(const int32_t *con_a, const int32_t *con_b, const int64_t *pair_start,
                     int64_t m, const void *codes, int64_t wide, int64_t d, char *out)
{
    if (!out)
        return blocks(con_a, con_b, pair_start, m, codes, wide, d, NULL);
    return blocks(con_a, con_b, pair_start, m, codes, wide, d, out);
}

/* write_edges' text at out, or its length if out is NULL */
static inline __attribute__((always_inline)) int64_t edges(const int64_t *pairs,
                                                           int64_t num_edges, char *out)
{
    int64_t len = 0;
    for (int64_t i = 0; i < num_edges; i++) {
        const uint64_t e[2] = {(uint64_t)pairs[2 * i] + 1, (uint64_t)pairs[2 * i + 1] + 1};
        len += put_line(out ? out + len : NULL, 'e', 2, e);
    }
    return len;
}

int64_t write_edges(const int64_t *pairs, int64_t num_edges, char *out)
{
    if (!out)
        return edges(pairs, num_edges, NULL);
    return edges(pairs, num_edges, out);
}
