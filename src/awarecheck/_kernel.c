/* Native kernels: the profile closure and the formula-program interpreter,
   with the same results bit for bit as _kernel_py.close_profiles and
   _kernel_py._Eval.run.  Plain C99 without Python.h, called through ctypes
   by awarecheck.kernel.  Masks are uint64_t, so a structure may have at most
   64 worlds and 64 propositions (the caller checks); every other size comes
   from the inputs.  Python owns the input buffers; the only memory that
   outlives a call is ak_close's output, which the caller copies and then
   releases with ak_free. */

#include <stdint.h>
#include <stdlib.h>

enum { OP_PROP, OP_TOP, OP_NOT, OP_AND, OP_K, OP_A, OP_X };
enum { P_PROP, P_TOP, P_VAR, P_NOT, P_AND, P_K, P_A, P_X, P_FORALL };
enum { USE_NOT = 1, USE_AND = 2, USE_K = 4, USE_A = 8, USE_X = 16,
       USE_TOP = 32 };

#define BIT(w) ((uint64_t)1 << (w))

static uint64_t full_mask(int64_t n_worlds) {
    return n_worlds >= 64 ? ~(uint64_t)0 : BIT(n_worlds) - 1;
}

/* Records as parallel columns (vocab, truth, op, arg1, arg2, aux, layer, the
   last five holding int64 values), an open-addressing hash set over their
   (vocab, truth) pairs (record index + 1 per slot, 0 when empty), and a
   flag set when memory ran out.  Mirrored by kernel._Records. */
typedef struct {
    int64_t count, cap;
    uint64_t *col[7];
    int64_t *table;
    uint64_t mask;
    int64_t failed;
} Records;

static uint64_t slot_of(const Records *r, uint64_t vocab, uint64_t truth) {
    uint64_t h = vocab * 0x9E3779B97F4A7C15u ^ truth;
    h = (h ^ h >> 33) * 0xFF51AFD7ED558CCDu;
    return (h ^ h >> 33) & r->mask;
}

/* Rebuilds the hash set at a new size; 1 when out of memory. */
static int rehash(Records *r, uint64_t size) {
    int64_t *table = calloc(size, sizeof *table);
    if (!table) return 1;
    free(r->table);
    r->table = table;
    r->mask = size - 1;
    for (int64_t k = 0; k < r->count; k++) {
        uint64_t h = slot_of(r, r->col[0][k], r->col[1][k]);
        while (table[h]) h = (h + 1) & r->mask;
        table[h] = k + 1;
    }
    return 0;
}

/* Appends a record unless its (vocab, truth) pair is known. */
static void add(Records *r, uint64_t vocab, uint64_t truth, int64_t op,
                int64_t a1, int64_t a2, int64_t aux, int64_t layer) {
    if (r->failed) return;
    uint64_t h = slot_of(r, vocab, truth);
    for (; r->table[h]; h = (h + 1) & r->mask) {
        int64_t k = r->table[h] - 1;
        if (r->col[0][k] == vocab && r->col[1][k] == truth) return;
    }
    if (r->count == r->cap) {
        r->cap = r->cap ? 2 * r->cap : 256;
        for (int j = 0; j < 7 && !r->failed; j++) {
            uint64_t *grown = realloc(r->col[j], r->cap * sizeof *grown);
            r->failed = !grown;
            r->col[j] = grown ? grown : r->col[j];
        }
        if (r->failed) return;
    }
    uint64_t row[7] = {vocab, truth, (uint64_t)op, (uint64_t)a1,
                       (uint64_t)a2, (uint64_t)aux, (uint64_t)layer};
    for (int j = 0; j < 7; j++) r->col[j][r->count] = row[j];
    r->table[h] = ++r->count;
    if (2 * (uint64_t)r->count > r->mask)
        r->failed = rehash(r, 2 * r->mask + 2);
}

/* Least fixpoint of the profile closure into r, which must be zeroed; succ
   and aware hold n_worlds masks per agent.  Returns 0, 1 when the closure
   exceeded max_profiles, or -1 when out of memory. */
int ak_close(int64_t n_worlds, int64_t n_props, int64_t n_agents,
             const uint64_t *lang, const uint64_t *ptrue, const uint64_t *succ,
             const uint64_t *aware, int64_t use, int64_t max_profiles,
             Records *r) {
    uint64_t full = full_mask(n_worlds);
    int64_t known = 0;
    r->failed = rehash(r, 1024);
    for (int64_t j = 0; j < n_props; j++)
        add(r, BIT(j), ptrue[j], OP_PROP, -1, -1, j, 0);
    if (use & USE_TOP) add(r, 0, full, OP_TOP, -1, -1, -1, 0);
    for (int64_t layer = 1; !r->failed; layer++) {
        int64_t frontier = known;
        known = r->count;
        for (int64_t i = frontier; i < known; i++) {
            uint64_t v = r->col[0][i], t = r->col[1][i], d = full;
            for (int64_t w = 0; w < n_worlds; w++)
                if (v & ~lang[w]) d &= ~BIT(w);
            if (use & USE_NOT) add(r, v, d & ~t, OP_NOT, i, -1, -1, layer);
            for (int64_t ai = 0; ai < n_agents; ai++) {
                const uint64_t *s = succ + ai * n_worlds;
                const uint64_t *aw = aware + ai * n_worlds;
                uint64_t gk = 0, gx = 0;
                for (int64_t w = 0; w < n_worlds; w++) {
                    gk |= (d >> w & 1) && !(s[w] & ~t) ? BIT(w) : 0;
                    gx |= (gk >> w & 1) && !(v & ~aw[w]) ? BIT(w) : 0;
                }
                if (use & USE_K) add(r, v, gk, OP_K, i, -1, ai, layer);
                if (use & USE_X) add(r, v, gx, OP_X, i, -1, ai, layer);
            }
            for (int64_t ai = 0; ai < n_agents && (use & USE_A); ai++) {
                const uint64_t *aw = aware + ai * n_worlds;
                uint64_t ga = 0;
                for (int64_t w = 0; w < n_worlds; w++)
                    ga |= (d >> w & 1) && !(v & ~aw[w]) ? BIT(w) : 0;
                add(r, v, ga, OP_A, i, -1, ai, layer);
            }
        }
        /* new conjunctions need at least one argument from the last layer */
        for (int64_t i = frontier; i < known && (use & USE_AND); i++)
            for (int64_t i2 = 0; i2 < known; i2++)
                add(r, r->col[0][i] | r->col[0][i2],
                    r->col[1][i] & r->col[1][i2], OP_AND, i, i2, -1, layer);
        if (r->count == known || r->count > max_profiles) break;
    }
    free(r->table);
    r->table = NULL;
    return r->failed ? -1 : r->count > known;
}

void ak_free(Records *r) {
    for (int j = 0; j < 7; j++) free(r->col[j]);
}

/* One (model, domain) pair; succ and aware hold n_worlds masks per agent.
   Mirrored by kernel._Model. */
typedef struct {
    int64_t n_worlds, n_profiles;
    const uint64_t *pwm, *ptrue, *succ, *aware, *prof_v, *prof_f;
} Model;

typedef struct { uint64_t v, f; } VF;

/* A program being run: its columns (see _kernel_py), the slots each node
   uses as a bitset of `words` words, the slot bindings, and the values of
   the nodes that use no slot (state 2 once known, 1 before, else 0). */
typedef struct {
    const Model *m;
    const int *op, *a1, *a2, *aux;
    const uint64_t *props;
    int64_t nslots, words;
    uint64_t *uses;
    VF *val, *env;
    char *state;
} Run;

static uint64_t dom(const Model *m, uint64_t vocab) {
    uint64_t d = full_mask(m->n_worlds);
    for (int j = 0; vocab; vocab >>= 1, j++)
        if (vocab & 1) d &= m->pwm[j];
    return d;
}

static VF eval(Run *r, int i) {
    const Model *m = r->m;
    int code = r->op[i], aux = r->aux[i];
    VF out, x, y;
    if (r->state[i] == 2) return r->val[i];
    if (code == P_PROP) {
        out = (VF){BIT(aux), m->ptrue[aux]};
    } else if (code == P_TOP) {
        out = (VF){0, full_mask(m->n_worlds)};
    } else if (code == P_VAR) {
        out = r->env[aux];
    } else if (code == P_NOT) {
        x = eval(r, r->a1[i]);
        out = (VF){x.v, dom(m, x.v) & ~x.f};
    } else if (code == P_AND) {
        x = eval(r, r->a1[i]);
        y = eval(r, r->a2[i]);
        out = (VF){x.v | y.v, x.f & y.f};
    } else if (code == P_FORALL) {
        const uint64_t *u = r->uses + i * r->words;
        out.v = r->props[i];
        for (int64_t s = 0; s < r->nslots; s++)
            out.v |= u[s / 64] >> s % 64 & 1 ? r->env[s].v : 0;
        out.f = dom(m, out.v);
        for (int64_t k = 0; k < m->n_profiles && out.f; k++) {
            r->env[aux] = (VF){m->prof_v[k], m->prof_f[k]};
            out.f &= ~(dom(m, m->prof_v[k]) & ~eval(r, r->a1[i]).f);
        }
    } else {  /* P_K, P_A, P_X */
        const uint64_t *s = m->succ + aux * m->n_worlds;
        const uint64_t *aw = m->aware + aux * m->n_worlds;
        x = eval(r, r->a1[i]);
        out = (VF){x.v, dom(m, x.v)};
        for (int64_t w = 0; w < m->n_worlds; w++)
            if ((code != P_A && (s[w] & ~x.f))
                || (code != P_K && (x.v & ~aw[w])))
                out.f &= ~BIT(w);
    }
    if (r->state[i]) {
        r->val[i] = out;
        r->state[i] = 2;
    }
    return out;
}

/* Runs node root of an n-node program with nslots quantifier slots and
   writes its (vocab, truth) masks to out; -1 when out of memory.  The slots
   each node uses are derived here, at any width. */
int ak_run(const Model *m, const int *op, const int *a1, const int *a2,
           const int *aux, const uint64_t *props, int64_t n, int64_t nslots,
           int64_t root, uint64_t *out) {
    int64_t words = (nslots + 63) / 64, cells = n * words + 2 * (n + nslots);
    uint64_t *mem = calloc(cells * sizeof *mem + n + 1, 1);
    if (!mem) return -1;
    Run r = {m, op, a1, a2, aux, props, nslots, words, mem,
             (VF *)(mem + n * words), (VF *)(mem + n * words + 2 * n),
             (char *)(mem + cells)};
    for (int64_t i = 0; i < n; i++) {
        uint64_t *u = r.uses + i * words, any = 0;
        if (op[i] == P_VAR)
            u[aux[i] / 64] = BIT(aux[i] % 64);
        else if (op[i] != P_PROP && op[i] != P_TOP)
            for (int64_t j = 0; j < words; j++)
                u[j] = r.uses[a1[i] * words + j]
                       | (op[i] == P_AND ? r.uses[a2[i] * words + j] : 0);
        if (op[i] == P_FORALL) u[aux[i] / 64] &= ~BIT(aux[i] % 64);
        for (int64_t j = 0; j < words; j++) any |= u[j];
        r.state[i] = !any;
    }
    VF got = eval(&r, (int)root);
    out[0] = got.v;
    out[1] = got.f;
    free(mem);
    return 0;
}
