/* Native kernels: the profile closure and the formula-program interpreter,
   bit for bit the same as _kernel_py's, in plain C99 without Python.h,
   called through ctypes by awarecheck.kernel.  Both take one model encoding
   (Model) and share one opcode set (P_*) and one operator step (step): a
   closure record is a program node with its (vocab, truth) profile in
   front.  Masks are uint64_t, so a structure may have at most 64 worlds and
   64 propositions (the caller checks); every other size comes from the
   inputs.  A program (see _kernel_py) may have many roots, one per
   sentence, sharing their common nodes; ak_run evaluates all of them in
   one call and, into a buffer the caller may pass, records for each
   quantifier node that uses no slot the first profile that falsifies it at
   each world, which the witness search reads.  ak_close keys its records
   by (vocab, truth), which gives every realizable profile.  It closes by
   BFS layer and can stop at any layer and resume later: the records closed
   through a layer are a prefix of the whole closure's, so a quantifier with
   a quantifier-free body that a prefix falsifies at a world is False there,
   with the same first falsifier, and a world query may stop at the layer
   that decides it.  The checker closes a structure only when a program
   with quantifier slots is to run (layer by layer for a query at one
   world) or a caller reads the profiles themselves; ak_run must not see a
   program with slots before ak_close ran.
   Python owns the input buffers; the only memory that outlives a call is
   ak_close's output, which the caller keeps: ak_run reads its vocab and
   truth columns in place as the model's profiles, the caller copies out
   only what it reads, and releases it with ak_free exactly once. */

#include <stdint.h>
#include <stdlib.h>

enum { P_PROP, P_TOP, P_VAR, P_NOT, P_AND, P_K, P_A, P_X, P_FORALL };

#define BIT(w) ((uint64_t)1 << (w))
#define HAS(ops, code) ((ops) >> (code) & 1)

/* A model: per proposition the worlds whose language contains it and the
   worlds where it is true, per 0-based agent n_worlds successor and
   awareness masks, and, for ak_run, the profiles of the quantifier domain.
   Mirrored by kernel._Model. */
typedef struct {
    int64_t n_worlds, n_props, n_agents, n_profiles;
    const uint64_t *pwm, *ptrue, *succ, *aware, *prof_v, *prof_f;
} Model;

typedef struct { uint64_t v, f; } VF;

/* Worlds whose language contains the vocabulary: all of them for 0. */
static uint64_t dom(const Model *m, uint64_t vocab) {
    uint64_t d = m->n_worlds >= 64 ? ~(uint64_t)0 : BIT(m->n_worlds) - 1;
    for (int j = 0; vocab; vocab >>= 1, j++)
        if (vocab & 1) d &= m->pwm[j];
    return d;
}

/* P_NOT, P_K, P_A or P_X applied to x, or P_AND applied to x and y; agent
   is 0-based. */
static VF step(const Model *m, int code, int64_t agent, VF x, VF y) {
    if (code == P_AND) return (VF){x.v | y.v, x.f & y.f};
    VF out = {x.v, dom(m, x.v)};
    if (code == P_NOT) return (VF){x.v, out.f & ~x.f};
    const uint64_t *s = m->succ + agent * m->n_worlds;
    const uint64_t *aw = m->aware + agent * m->n_worlds;
    for (int64_t w = 0; w < m->n_worlds; w++)
        if ((code != P_A && (s[w] & ~x.f)) || (code != P_K && (x.v & ~aw[w])))
            out.f &= ~BIT(w);
    return out;
}

/* Records as parallel columns (vocab, truth, op, arg1, arg2, aux, layer,
   the last five holding int64 values), an open-addressing hash set over
   their (vocab, truth) pairs (record index + 1 per slot, 0 when empty), and
   a flag set when memory ran out.  A closure resumes from frontier, the
   first record of the last layer closed, layer, that layer's number, and
   done, set once a layer added nothing: the fixpoint, which frees the hash
   set.  Mirrored by kernel._Records. */
enum { C_VOCAB, C_TRUTH, NCOLS = 7 };
typedef struct {
    int64_t count, cap;
    uint64_t *col[NCOLS];
    int64_t *table;
    uint64_t mask;
    int64_t failed, frontier, layer, done;
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
        uint64_t h = slot_of(r, r->col[C_VOCAB][k], r->col[C_TRUTH][k]);
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
        if (r->col[C_VOCAB][k] == vocab && r->col[C_TRUTH][k] == truth)
            return;
    }
    if (r->count == r->cap) {
        r->cap = r->cap ? 2 * r->cap : 256;
        for (int j = 0; j < NCOLS && !r->failed; j++) {
            uint64_t *grown = realloc(r->col[j], r->cap * sizeof *grown);
            r->failed = !grown;
            r->col[j] = grown ? grown : r->col[j];
        }
        if (r->failed) return;
    }
    uint64_t row[NCOLS] = {vocab, truth, (uint64_t)op, (uint64_t)a1,
                           (uint64_t)a2, (uint64_t)aux, (uint64_t)layer};
    for (int j = 0; j < NCOLS; j++) r->col[j][r->count] = row[j];
    r->table[h] = ++r->count;
    if (2 * (uint64_t)r->count > r->mask)
        r->failed = rehash(r, 2 * r->mask + 2);
}

/* Adds the record of P_NOT, or of P_K, P_A or P_X of a 0-based agent,
   applied to record i, whose vocabulary it keeps. */
static void apply(Records *r, const Model *m, int code, int64_t agent,
                  int64_t i, int64_t layer) {
    VF x = {r->col[C_VOCAB][i], r->col[C_TRUTH][i]};
    VF y = step(m, code, agent, x, x);
    add(r, y.v, y.f, code, i, -1, agent, layer);
}

/* Frees what only a closure still to resume needs. */
static void settle(Records *r) {
    free(r->table);
    r->table = NULL;
}

/* The profile closure into r under the opcodes set in the bitmask ops,
   through BFS layer depth, or to its least fixpoint when depth is negative;
   the seeds are layer 0.  r must be zeroed on the first call, and a later
   call with the same m and ops resumes where the last one stopped, so the
   records through a layer do not depend on the calls that closed them.
   Returns 0, 1 when the closure exceeded max_profiles, or -1 when out of
   memory. */
int ak_close(const Model *m, int64_t ops, int64_t max_profiles,
             int64_t depth, Records *r) {
    if (!r->mask) {
        r->failed = rehash(r, 1024);
        for (int64_t j = 0; j < m->n_props; j++)
            add(r, BIT(j), m->ptrue[j], P_PROP, -1, -1, j, 0);
        if (HAS(ops, P_TOP)) add(r, 0, dom(m, 0), P_TOP, -1, -1, -1, 0);
    }
    while (!r->failed && !r->done && r->count <= max_profiles &&
           (depth < 0 || r->layer < depth)) {
        int64_t frontier = r->frontier, known = r->count, layer = ++r->layer;
        for (int64_t i = frontier; i < known; i++) {
            if (HAS(ops, P_NOT)) apply(r, m, P_NOT, -1, i, layer);
            for (int64_t ai = 0; ai < m->n_agents; ai++) {
                if (HAS(ops, P_K)) apply(r, m, P_K, ai, i, layer);
                if (HAS(ops, P_X)) apply(r, m, P_X, ai, i, layer);
            }
            for (int64_t ai = 0; ai < m->n_agents && HAS(ops, P_A); ai++)
                apply(r, m, P_A, ai, i, layer);
        }
        /* new conjunctions need an argument from the last layer; a probe
           (i, i2) with frontier <= i2 <= i repeats (i2, i) or record i */
        for (int64_t i = frontier; i < known && HAS(ops, P_AND); i++)
            for (int64_t i2 = frontier ? 0 : i + 1; i2 < known;
                 i2 = i2 + 1 == frontier ? i + 1 : i2 + 1) {
                VF y = step(m, P_AND, -1,
                            (VF){r->col[C_VOCAB][i], r->col[C_TRUTH][i]},
                            (VF){r->col[C_VOCAB][i2], r->col[C_TRUTH][i2]});
                add(r, y.v, y.f, P_AND, i, i2, -1, layer);
            }
        r->frontier = known;
        r->done = r->count == known;
    }
    if (r->done) settle(r);
    return r->failed ? -1 : !r->done && r->count > max_profiles;
}

void ak_free(Records *r) {
    settle(r);
    for (int j = 0; j < NCOLS; j++) free(r->col[j]);
}

/* A program being run: its columns, per node a bitset of `words` words
   holding the propositions it mentions (word 0) and the slots it uses (from
   word 1), the slot bindings, the values of the nodes that use no slot
   (state 2 once known, 1 before, else 0), and the caller's falsifier
   buffer or NULL. */
typedef struct {
    const Model *m;
    const int *op, *a1, *a2, *aux;
    int64_t nslots, words;
    uint64_t *uses;
    VF *val, *env;
    char *state;
    int64_t *falsifiers;
} Run;

static VF eval(Run *r, int i) {
    const Model *m = r->m;
    int code = r->op[i], aux = r->aux[i];
    VF out, x, y;
    if (r->state[i] == 2) return r->val[i];
    if (code == P_PROP) {
        out = (VF){BIT(aux), m->ptrue[aux]};
    } else if (code == P_TOP) {
        out = (VF){0, dom(m, 0)};
    } else if (code == P_VAR) {
        out = r->env[aux];
    } else if (code == P_FORALL) {
        const uint64_t *u = r->uses + i * r->words;
        out.v = u[0];
        for (int64_t s = 0; s < r->nslots; s++)
            out.v |= u[1 + s / 64] >> s % 64 & 1 ? r->env[s].v : 0;
        out.f = dom(m, out.v);
        for (int64_t k = 0; k < m->n_profiles && out.f; k++) {
            r->env[aux] = (VF){m->prof_v[k], m->prof_f[k]};
            uint64_t bad = dom(m, m->prof_v[k]) & ~eval(r, r->a1[i]).f;
            bad &= out.f;  /* the worlds profile k is the first to falsify */
            out.f &= ~bad;
            if (r->state[i] && r->falsifiers)
                for (int64_t w = 0; bad; w++, bad >>= 1)
                    if (bad & 1) r->falsifiers[i * m->n_worlds + w] = k;
        }
    } else {  /* P_NOT, P_AND, P_K, P_A, P_X */
        x = eval(r, r->a1[i]);
        y = code == P_AND ? eval(r, r->a2[i]) : x;
        out = step(m, code, aux, x, y);
    }
    if (r->state[i]) {
        r->val[i] = out;
        r->state[i] = 2;
    }
    return out;
}

/* Runs the nroots nodes roots of an n-node program with nslots quantifier
   slots and writes, per root, its (vocab, truth) masks and the mask of the
   worlds where it is False to out, three words per root; -1 when out of
   memory.  The propositions and the slots of each node are derived here,
   once per call, the slots at any width, and the nodes that use no slot are
   evaluated once for all roots.  Unless falsifiers is NULL, it holds
   n * n_worlds words, and for each quantifier node i that uses no slot and
   each world w where it is False, ak_run writes to falsifiers[i * n_worlds
   + w] the index of the first profile that falsifies its body at w. */
int ak_run(const Model *m, const int *op, const int *a1, const int *a2,
           const int *aux, int64_t n, int64_t nslots, const int *roots,
           int64_t nroots, uint64_t *out, int64_t *falsifiers) {
    int64_t words = 1 + (nslots + 63) / 64;
    int64_t cells = n * (words + 2) + 2 * nslots;
    uint64_t *mem = calloc(cells * sizeof *mem + n + 1, 1);
    if (!mem) return -1;
    Run r = {m, op, a1, a2, aux, nslots, words, mem,
             (VF *)(mem + n * words), (VF *)(mem + n * (words + 2)),
             (char *)(mem + cells), falsifiers};
    for (int64_t i = 0; i < n; i++) {
        uint64_t *u = r.uses + i * words, any = 0;
        if (op[i] == P_PROP)
            u[0] = BIT(aux[i]);
        else if (op[i] == P_VAR)
            u[1 + aux[i] / 64] = BIT(aux[i] % 64);
        else if (op[i] != P_TOP)
            for (int64_t j = 0; j < words; j++)
                u[j] = r.uses[a1[i] * words + j]
                       | (op[i] == P_AND ? r.uses[a2[i] * words + j] : 0);
        if (op[i] == P_FORALL) u[1 + aux[i] / 64] &= ~BIT(aux[i] % 64);
        for (int64_t j = 1; j < words; j++) any |= u[j];
        r.state[i] = !any;
    }
    for (int64_t k = 0; k < nroots; k++) {
        VF got = eval(&r, roots[k]);
        out[3 * k] = got.v;
        out[3 * k + 1] = got.f;
        out[3 * k + 2] = dom(m, got.v) & ~got.f;
    }
    free(mem);
    return 0;
}
