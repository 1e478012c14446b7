"""Pure-Python kernels: the profile closure and the formula-program
interpreter.

A profile is a pair (vocab mask over propositions, truth mask over worlds);
the truth mask is meaningful only on the worlds whose language contains the
vocabulary.  Closing the seed profiles (one per proposition) under the
language's operators yields every (vocabulary, truth map) realizable by a
quantifier-free sentence, which is what the quantifier clause ranges over.

A formula program is the one formula IR that both interpreters run:
parallel arrays (ops, arg1, arg2, aux, prop masks, used-slot masks) plus the
slot count, as checker._compile_program builds them.  Arguments are earlier
nodes; aux is a proposition index, a quantifier slot or a 0-based agent.

These are the reference kernels: _kernel.c implements both natively, bit for
bit the same; awarecheck.kernel uses these when it cannot build or load it.
"""

# record ops
OP_PROP = 0
OP_TOP = 1
OP_NOT = 2
OP_AND = 3
OP_K = 4
OP_A = 5
OP_X = 6

# program opcodes
P_PROP, P_TOP, P_VAR, P_NOT, P_AND, P_K, P_A, P_X, P_FORALL = range(9)


def close_profiles(n_worlds, lang_masks, prop_true_masks, succ_masks,
                   aware_masks, use_not, use_and, use_k, use_a, use_x,
                   include_top, max_profiles):
    """Least fixpoint of the profile closure, with BFS layers.

    Returns (records, layers) where records[i] = (vocab_mask, truth_mask, op,
    arg1, arg2, aux) and layers[i] is the minimal witness depth (seeds are 0).
    arg1/arg2 index earlier records; aux is a proposition index for OP_PROP
    and an agent index (0-based) for OP_K/OP_A/OP_X.
    """
    n_props = len(prop_true_masks)
    n_agents = len(succ_masks)
    full = (1 << n_worlds) - 1

    dom_cache = {0: full}

    def dom(vocab):
        d = dom_cache.get(vocab)
        if d is None:
            d = full
            for w in range(n_worlds):
                if vocab & ~lang_masks[w]:
                    d &= ~(1 << w)
            dom_cache[vocab] = d
        return d

    records = []
    layers = []
    index = {}

    def add(vocab, truth, op, a1, a2, aux, layer):
        key = (vocab, truth)
        if key in index:
            return
        index[key] = len(records)
        records.append((vocab, truth, op, a1, a2, aux))
        layers.append(layer)

    for j in range(n_props):
        add(1 << j, prop_true_masks[j], OP_PROP, -1, -1, j, 0)
    if include_top:
        add(0, full, OP_TOP, -1, -1, -1, 0)

    layer = 0
    frontier = 0
    while True:
        layer += 1
        known = len(records)
        for i1 in range(frontier, known):
            vocab, truth = records[i1][0], records[i1][1]
            d = dom(vocab)
            if use_not:
                add(vocab, d & ~truth, OP_NOT, i1, -1, -1, layer)
            if use_k or use_x:
                for ai in range(n_agents):
                    succ = succ_masks[ai]
                    gk = 0
                    for w in range(n_worlds):
                        if (d >> w) & 1 and not succ[w] & ~truth:
                            gk |= 1 << w
                    if use_k:
                        add(vocab, gk, OP_K, i1, -1, ai, layer)
                    if use_x:
                        aware = aware_masks[ai]
                        gx = 0
                        for w in range(n_worlds):
                            if (gk >> w) & 1 and not vocab & ~aware[w]:
                                gx |= 1 << w
                        add(vocab, gx, OP_X, i1, -1, ai, layer)
            if use_a:
                for ai in range(n_agents):
                    aware = aware_masks[ai]
                    ga = 0
                    for w in range(n_worlds):
                        if (d >> w) & 1 and not vocab & ~aware[w]:
                            ga |= 1 << w
                    add(vocab, ga, OP_A, i1, -1, ai, layer)
        if use_and:
            # new conjunctions need at least one argument from the last layer
            for i1 in range(frontier, known):
                v1, t1 = records[i1][0], records[i1][1]
                for i2 in range(known):
                    rec2 = records[i2]
                    add(v1 | rec2[0], t1 & rec2[1], OP_AND, i1, i2, -1, layer)
        if len(records) == known:
            return records, layers
        if len(records) > max_profiles:
            raise RuntimeError(
                f"profile closure exceeded {max_profiles} profiles")
        frontier = known


class _Eval:
    """Runs formula programs against one (model, domain) pair; the pure
    twin of the native interpreter, with the same results bit for bit.

    env[s] is the index of the profile bound to slot s.  Node values are
    memoized per loaded program under the profiles bound to the slots they
    use, so a node that does not use a quantifier's slot is evaluated once,
    not once per profile."""

    def __init__(self, n_worlds, prop_world_masks, prop_true, succ_masks,
                 aware_masks, profiles):
        self.n_worlds = n_worlds
        self.full = (1 << n_worlds) - 1
        self.pwm = prop_world_masks
        self.ptrue = prop_true
        self.succ = succ_masks
        self.aware = aware_masks
        self.profiles = profiles
        self.dom_cache = {0: self.full}
        self.program = None

    def dom(self, vocab):
        """Worlds whose language contains the vocabulary."""
        d = self.dom_cache.get(vocab)
        if d is None:
            d = self.full
            for j, worlds in enumerate(self.pwm):
                if (vocab >> j) & 1:
                    d &= worlds
            self.dom_cache[vocab] = d
        return d

    def run(self, program, root):
        """(vocab mask, truth mask) over all worlds of a program's root.  The
        program and its node values stay loaded for node() and for runs of
        the same program until another one runs."""
        if program is not self.program:
            self.program = program
            (self.op, self.a1, self.a2, self.aux, self.props, self.uses,
             nslots) = program
            self.used = [tuple(s for s in range(nslots) if (u >> s) & 1)
                         if u else () for u in self.uses]
            self.env = [0] * nslots
            self.memo = {}
        return self.node(root)

    def node(self, i):
        """(vocab mask, truth mask) of node i of the loaded program under the
        slot bindings in env."""
        used = self.used[i]
        key = (i, *map(self.env.__getitem__, used)) if used else i
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        code = self.op[i]
        if code == P_PROP:
            j = self.aux[i]
            out = (1 << j, self.ptrue[j])
        elif code == P_TOP:
            out = (0, self.full)
        elif code == P_VAR:
            out = self.profiles[self.env[self.aux[i]]]
        elif code == P_NOT:
            v, t = self.node(self.a1[i])
            out = (v, self.dom(v) & ~t)
        elif code == P_AND:
            v, t = self.node(self.a1[i])
            v2, t2 = self.node(self.a2[i])
            out = (v | v2, t & t2)
        elif code == P_FORALL:
            slot, body = self.aux[i], self.a1[i]
            veff = self.props[i]
            for s in used:
                veff |= self.profiles[self.env[s]][0]
            result = self.dom(veff)
            for k, (pv, _) in enumerate(self.profiles):
                if not result:
                    break
                self.env[slot] = k
                result &= ~(self.dom(pv) & ~self.node(body)[1])
            out = (veff, result)
        else:  # P_K, P_A, P_X
            v, t = self.node(self.a1[i])
            succ, aware = self.succ[self.aux[i]], self.aware[self.aux[i]]
            g = self.dom(v)
            for w in range(self.n_worlds):
                if (code != P_A and succ[w] & ~t) or \
                        (code != P_K and v & ~aware[w]):
                    g &= ~(1 << w)
            out = (v, g)
        self.memo[key] = out
        return out


# make_evaluator(n_worlds, prop_world_masks, prop_true, succ_masks,
#                aware_masks, profiles), as in awarecheck.kernel
make_evaluator = _Eval
