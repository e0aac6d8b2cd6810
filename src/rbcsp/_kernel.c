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
 * Its relation is packed in rows of W = ceil(d / 64) words: bit u & 63 of
 * bits[(s*d + w) * W + (u >> 6)] is the violation flag when the other
 * endpoint holds w and v holds u, so word k of a row holds the values
 * 64k .. 64k+63.  Counts are kept in bit planes, one word at a time.  The
 * field order of `ulsa_run` matches `rbcsp._native._RunStruct`.
 */
#include <stdint.h>
#include <string.h>

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

/* the words of slot s's row under the current value of its other endpoint */
static inline __attribute__((always_inline)) const uint64_t *
row_of(const ulsa_run *r, int64_t W, int32_t s)
{
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
        uint64_t carry = row_of(r, W, s)[k];
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
        mv->n += __builtin_popcountll(mv->mask[k]);
    }
}

/* the k-th of mv's values, ascending, k < mv->n */
static inline __attribute__((always_inline)) int64_t value_at(const moves *mv, int64_t W,
                                                             int64_t k)
{
    int64_t w = 0;
    for (; w < W - 1; w++) {
        const int64_t c = __builtin_popcountll(mv->mask[w]);
        if (k < c)
            break;
        k -= c;
    }
    uint64_t mask = mv->mask[w];
    for (; k > 0; k--)
        mask &= mask - 1;
    return 64 * w + __builtin_ctzll(mask);
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
static inline __attribute__((always_inline)) void apply(ulsa_run *r, int64_t W, int64_t var,
                                                        int64_t value)
{
    const int64_t old = r->x[var];
    for (int32_t s = r->inc_start[var]; s < r->inc_start[var + 1]; s++) {
        const uint64_t *row = row_of(r, W, s);
        const int now = flag(row, W, value);
        if (now != flag(row, W, old)) {
            if (now)
                add(r, r->slot_cid[s]);
            else
                discard(r, r->slot_cid[s]);
        }
    }
    r->x[var] = value;
    r->t[var] = ++r->n_iter;
}

/* the step loop for rows of W words; mask holds 2W words, W for each endpoint */
static inline __attribute__((always_inline)) void advance(ulsa_run *r, int64_t W,
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
        gather(r, W, i, 0, &mi);
        int expanded = mi.min > mi.cur && r->t[j] != r->n_iter;
        int64_t var, value, delta;
        if (!expanded) {
            var = i;
            value = value_at(&mi, W, (int64_t)(uniform(r) * (double)mi.n));
            delta = mi.min - mi.cur;
        } else {
            gather(r, W, j, 0, &mj);
            int64_t delta_i = mi.min - mi.cur, delta_j = mj.min - mj.cur;
            delta = delta_i < delta_j ? delta_i : delta_j;
            int64_t ni = delta_i == delta ? mi.n : 0;
            int64_t nj = delta_j == delta ? mj.n : 0;
            int64_t pick = (int64_t)(uniform(r) * (double)(ni + nj));
            var = pick < ni ? i : j;
            value = pick < ni ? value_at(&mi, W, pick) : value_at(&mj, W, pick - ni);
        }

        apply(r, W, var, value);
        r->iterations++;
        r->expansions += expanded;
        r->worsening += delta > 0;

        if (r->nviol == 0 || r->nviol <= r->cap || r->nviol < r->best
            || (r->budget && r->iterations >= r->budget)
            || (r->interval && r->n_iter >= r->interval))
            return;
    }
}

/* one copy of the loop with W fixed at 1, and one for any W */
void ulsa_advance(ulsa_run *r)
{
    const int64_t W = (r->d + 63) / 64;
    if (W == 1) {
        uint64_t mask[2];
        advance(r, 1, mask);
    } else {
        uint64_t mask[2 * W];
        advance(r, W, mask);
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
    } else if (inc_start[n]) {
        uint64_t mask[W];
        start(&r, W, perm, n, gen, mask);
    } else { /* no constraints: all d values tie at 0, and the k-th is k */
        for (int64_t k = 0; k < n; k++)
            x[perm[k]] = (int64_t)(gen->next_double(gen->state) * (double)d);
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


/* -- the text reader ----------------------------------------------------------
 *
 * `read_piece` finds the lines and tokens of one ASCII piece of text by the
 * rules of `rbcsp.core._read_piece`, and yields the same results: lines end
 * at each byte of class BREAK, "\r\n" being one break; tokens are the runs of
 * bytes not of class SPACE; a line whose first token is the one byte `tag` is
 * a bulk line, one whose first token is "c" a comment, and any other line
 * with tokens is one of the others.  The classes come from the caller, the
 * 256-byte table `rbcsp.core._ASCII_CLASS`, in which every BREAK byte is a
 * SPACE byte too.
 *
 * A bulk line of three tokens has its second and third read as integers,
 * clamped to limit; any other bulk line reads (-1, -1).  Only plain tokens of
 * at most MAX_DIGITS ASCII digits are read here: when a bulk line of three
 * tokens has any other value token, read_piece returns -1 and the caller reads
 * the piece with int()'s rules instead.
 *
 * The piece is walked once, each line's end and tokens found in one scan; a
 * line of exactly "<tag> <digits> <digits>\n" is read without class lookups.
 * Rows go to the caller's block of 3 * cap int64s, cap line numbers and then
 * cap pairs: bulk lines from the front, with their values as pairs, and the
 * others from the back, with their spans (start, end), without the break.
 * Line numbers and spans count from the piece's start.  read_piece returns 0
 * with the piece's numbers of breaks, bulk rows and other rows in at[0..2],
 * or -1, writing nothing beyond the block, if the piece has more than cap rows.
 */

#define SPACE 1
#define BREAK 2
#define MAX_DIGITS 18 /* core._MAX_DIGITS: any 18 digits fit in int64 */

/* the value of the ASCII digits at s[*i..end), at most MAX_DIGITS of them,
 * clamped to limit, with *i moved past them; -1 if there are none */
static inline int64_t digits(const uint8_t *s, int64_t *i, int64_t end, int64_t limit)
{
    const int64_t start = *i;
    int64_t v = 0;
    unsigned digit;
    while (*i < end && *i - start < MAX_DIGITS && (digit = (unsigned)s[*i] - '0') <= 9) {
        v = v * 10 + digit;
        ++*i;
    }
    return *i == start ? -1 : v < limit ? v : limit;
}

/* the index of the '\n' ending the line s[i..] if the line is a plain
 * "<tag> <digits> <digits>\n", its values in v; else 0 */
static inline int64_t plain_line(const uint8_t *s, int64_t i, int64_t len, int64_t tag,
                                 int64_t limit, int64_t *v)
{
    if (len - i < 2 || s[i] != tag || s[i + 1] != ' ')
        return 0;
    i += 2;
    v[0] = digits(s, &i, len, limit);
    if (v[0] < 0 || i == len || s[i++] != ' ')
        return 0;
    v[1] = digits(s, &i, len, limit);
    return v[1] < 0 || i == len || s[i] != '\n' ? 0 : i;
}

int64_t read_piece(const uint8_t *s, int64_t len, const uint8_t *cls, int64_t tag,
                   int64_t limit, int64_t *at, int64_t cap, int64_t *block)
{
    int64_t *lines = block, *pairs = block + cap;
    int64_t i = 0, line = 0, nbulk = 0, nother = 0;
    while (i < len) {
        /* the line s[i..end): whether it has a row, a bulk one, and its pair */
        int64_t pair[2], end = plain_line(s, i, len, tag, limit, pair);
        int row = 1, bulk = 1;
        if (!end) {
            int64_t ntok = 0, tok[3][2];
            for (end = i;;) {
                while (end < len && cls[s[end]] == SPACE)
                    end++;
                if (end == len || cls[s[end]] & BREAK)
                    break;
                const int64_t t = end;
                while (end < len && !cls[s[end]]) /* neither a space nor a break */
                    end++;
                if (ntok < 3) {
                    tok[ntok][0] = t;
                    tok[ntok][1] = end;
                }
                ntok++;
            }
            const int one = ntok && tok[0][1] - tok[0][0] == 1;
            row = ntok && !(one && s[tok[0][0]] == 'c');
            bulk = one && s[tok[0][0]] == tag;
            pair[0] = bulk ? -1 : i;
            pair[1] = bulk ? -1 : end;
            for (int k = 0; bulk && ntok == 3 && k < 2; k++) {
                int64_t j = tok[k + 1][0];
                pair[k] = digits(s, &j, tok[k + 1][1], limit);
                if (j != tok[k + 1][1]) /* not plain digits, or too many */
                    return -1;
            }
        }
        if (row) {
            if (nbulk + nother == cap)
                return -1;
            const int64_t k = bulk ? nbulk++ : cap - ++nother;
            lines[k] = line;
            pairs[2 * k] = pair[0];
            pairs[2 * k + 1] = pair[1];
        }
        if (end == len)
            break;
        i = end + (s[end] == '\r' && end + 1 < len && s[end + 1] == '\n' ? 2 : 1);
        line++;
    }
    at[0] = line;
    at[1] = nbulk;
    at[2] = nother;
    return 0;
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
 * Each writes its text into the caller's buffer of cap bytes at out, in one
 * pass, and returns its length; if the text does not fit, it returns -1,
 * having written nothing beyond cap bytes.
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

int64_t write_blocks(const int32_t *con_a, const int32_t *con_b, const int64_t *pair_start,
                     int64_t m, const void *codes, int64_t wide, int64_t d, char *out,
                     int64_t cap)
{
    const int32_t *narrow_codes = codes;
    const int64_t *wide_codes = codes;
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
            const int64_t code = wide ? wide_codes[j] : narrow_codes[j];
            if (code < base || code - base >= d) {
                a = code / d;
                base = a * d;
            }
            const uint64_t f[2] = {(uint64_t)a, (uint64_t)(code - base)};
            if (!(p = put_line(p, out + cap, 'f', 2, f)))
                return -1;
        }
    }
    return p - out;
}

int64_t write_edges(const int64_t *pairs, int64_t num_edges, char *out, int64_t cap)
{
    char *p = out;
    for (int64_t i = 0; i < num_edges; i++) {
        const uint64_t e[2] = {(uint64_t)pairs[2 * i] + 1, (uint64_t)pairs[2 * i + 1] + 1};
        if (!(p = put_line(p, out + cap, 'e', 2, e)))
            return -1;
    }
    return p - out;
}
