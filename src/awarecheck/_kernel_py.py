"""Pure-Python kernels: the profile closure and the formula-program
interpreter, over one node format, one operator step and one model encoding,
all held by one Kernel per structure.

A model is (n_worlds, prop_world_masks, prop_true, succ, aware): per
proposition the worlds whose language contains it and the worlds where it is
true, and per 0-based agent one successor and one awareness mask per world.

A formula program is the one formula IR that both interpreters run, as
checker._compile_program builds it: four parallel int columns (op, arg1,
arg2, aux), per node the mask of the propositions it mentions and the tuple
of the quantifier slots it uses, and the slot count.  Arguments are earlier
nodes; aux is a proposition index, a quantifier slot or a 0-based agent.  A
program has any number of roots, one per sentence, which share the nodes
they have in common; a run evaluates a list of roots in one go.  A run may
also report, for each quantifier node that uses no slot and each world
where it is False, the first profile that falsifies it there: the witness
search reads its answer from these, so each backend needs no interpreter
but its own.  A kernel's interface is close() and run().

A profile is a pair (vocab mask over propositions, truth mask over worlds);
the truth mask is meaningful only on the worlds whose language contains the
vocabulary.  Closing the seed profiles (one per proposition) under the
domain's operators yields every (vocabulary, truth map) realizable by a
quantifier-free sentence, which is what the quantifier clause ranges over.
A closure record is a program node with its profile in front, so the records
up to k form a program whose node k is profile k's witness.

The closure goes by BFS layer (the seeds are layer 0) and may stop after any
layer and resume later; a kernel's layer is the last one closed (-1 before
any).  The records through a layer are a prefix of the whole closure's, so
the checker can answer a query at one world from the layers that decide
it.

Records are keyed by (vocab, truth), so the closure holds every profile.
The checker closes nothing for a program without quantifier slots, and one
kernel per structure and domain otherwise, which its world queries resume
layer by layer and the profile readers carry to the fixpoint.  A kernel
that was never closed refuses to load a program with slots.

These are the reference kernels: _kernel.c implements both natively, bit for
bit the same, and kernel.NativeKernel runs it; the checker uses Kernel when
the native kernel is not built or a structure's masks do not fit it.
"""

from itertools import chain

P_PROP, P_TOP, P_VAR, P_NOT, P_AND, P_K, P_A, P_X, P_FORALL = range(9)


class Kernel:
    """A model's encoding, its domain function and operator step, the
    profile closure, whose profiles become the quantifier's domain, and the
    interpreter over them, run(); the same results, bit for bit, as the
    native kernels.

    env[s] is the index of the profile bound to slot s.  Node values are
    memoized per loaded program under the profiles bound to the slots they
    use, so a node that does not use a quantifier's slot is evaluated once,
    not once per profile; the falsifiers of such a quantifier are kept with
    its value, so a repeated run of the same program evaluates nothing."""

    def __init__(self, n_worlds, prop_world_masks, prop_true, succ, aware):
        self.n_worlds = n_worlds
        self.pwm = prop_world_masks
        self.ptrue = prop_true
        self.succ = succ
        self.aware = aware
        self.profiles = None  # until close()
        self._closing = None  # ops of the closure
        self.done = False  # whether the closure reached its fixpoint
        self.layer = -1  # the last BFS layer closed
        self.dom_cache = {0: (1 << n_worlds) - 1}
        self.program = None

    def dom(self, vocab):
        """Worlds whose language contains the vocabulary (all for 0)."""
        d = self.dom_cache.get(vocab)
        if d is None:
            d = self.dom_cache[0]
            for j, worlds in enumerate(self.pwm):
                if (vocab >> j) & 1:
                    d &= worlds
            self.dom_cache[vocab] = d
        return d

    def step(self, code, agent, x):
        """(vocab mask, truth mask) of P_NOT, P_K, P_A or P_X applied to the
        profile x; agent is 0-based.  Both pure kernels conjoin inline: a
        call per conjunction probe would double the closure's time."""
        v, t = x
        g = self.dom(v)
        if code == P_NOT:
            return v, g & ~t
        if code != P_K:  # A and X: the agent is aware of the vocabulary
            for w, vocab in enumerate(self.aware[agent]):
                if v & ~vocab:
                    g &= ~(1 << w)
        if code != P_A:  # K and X: the sentence holds at every successor
            for w, succ in enumerate(self.succ[agent]):
                if succ & ~t:
                    g &= ~(1 << w)
        return v, g

    def close(self, ops, max_profiles, depth=-1):
        """The profile closure under the opcodes set in the bitmask ops
        (bits P_TOP, P_NOT, P_AND, P_K, P_A, P_X), by BFS layer, through
        layer depth, or to its least fixpoint when depth is negative; its
        profiles become the quantifier's domain.  A later call with the same
        ops resumes where the last one stopped; layer is the last BFS layer
        closed, and done says whether the fixpoint is reached.  Returns
        (records, layers), which the kernel keeps under those names, where
        records[i] = (vocab_mask, truth_mask, op, arg1, arg2, aux) is the
        record of the i-th distinct (vocab, truth) pair found and layers[i]
        is its minimal witness depth (seeds are 0).  (op, arg1, arg2, aux)
        is a program node over earlier records.
        """
        if self._closing != ops:
            self._closing = ops
            self.records, self.layers, self.profiles = [], [], []
            self._index = set()
            self._frontier = self.layer = 0
            self.done = False
        records, layers, index = self.records, self.layers, self._index

        def add(profile, op, a1, a2, aux, layer):
            if profile not in index:
                index.add(profile)
                records.append((*profile, op, a1, a2, aux))
                layers.append(layer)

        if not records:
            for j, truth in enumerate(self.ptrue):
                add((1 << j, truth), P_PROP, -1, -1, j, 0)
            if (ops >> P_TOP) & 1:
                add((0, self.dom(0)), P_TOP, -1, -1, -1, 0)
        step = self.step
        # per new record: NOT, then K and X per agent, then A per agent
        agents = range(len(self.succ))
        unary = [(P_NOT, -1)]
        unary += [(code, ai) for ai in agents for code in (P_K, P_X)]
        unary += [(P_A, ai) for ai in agents]
        unary = [(code, ai) for code, ai in unary if (ops >> code) & 1]
        while not self.done and len(records) <= max_profiles and (
                depth < 0 or self.layer < depth):
            frontier, known = self._frontier, len(records)
            self.layer = layer = self.layer + 1
            for i in range(frontier, known):
                x = records[i][:2]
                for code, ai in unary:  # each keeps the vocabulary
                    add(step(code, ai, x), code, i, -1, ai, layer)
            if (ops >> P_AND) & 1:
                # new conjunctions need an argument from the last layer;
                # (i, i2) with frontier <= i2 <= i repeats (i2, i) or i
                for i in range(frontier, known):
                    v, t = records[i][:2]
                    for i2 in chain(range(frontier), range(i + 1, known)):
                        rec2 = records[i2]
                        add((v | rec2[0], t & rec2[1]), P_AND, i, i2, -1,
                            layer)
            self._frontier, self.done = known, len(records) == known
        if self.done:  # nothing resumes the closure: drop its hash set
            self._index = None
        self.profiles += [rec[:2] for rec in records[len(self.profiles):]]
        self.program = None  # node values over fewer profiles
        if not self.done and len(records) > max_profiles:
            raise RuntimeError(
                f"profile closure exceeded {max_profiles} profiles")
        return records, layers

    def run(self, program, roots, falsifiers=None):
        """Per root of a program, flat, its (vocab mask, truth mask) over all
        worlds and the mask of the worlds where it is False.  falsifiers,
        unless None, is an array('q') of len(op) * n_worlds: for each
        quantifier node i that uses no slot and is reached from a root, and
        each world w where it is False, falsifiers[i * n_worlds + w] becomes
        the index of the first profile, in closure order, that falsifies its
        body at w.  This kernel also writes those of the program's earlier
        runs, which it keeps with their node values."""
        self._load(program)
        out = []
        for root in roots:
            v, t = self._node(root)
            out += v, t, self.dom(v) & ~t
        if falsifiers is not None:
            for (i, w), k in self.falsified.items():
                falsifiers[i * self.n_worlds + w] = k
        return out

    def _load(self, program):
        """Makes program the one _node() evaluates.  It, its node values and
        their falsifiers stay loaded until another program is loaded or the
        kernel closes again."""
        if program is not self.program:
            if program[6] and self.profiles is None:
                raise RuntimeError("quantified program on an unclosed kernel")
            self.program = program
            (self.op, self.a1, self.a2, self.aux, self.vocab, self.used,
             nslots) = program
            self.env = [0] * nslots
            self.memo = {}
            self.falsified = {}  # (quantifier node, world) -> profile

    def _node(self, i):
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
            out = (0, self.dom(0))
        elif code == P_VAR:
            out = self.profiles[self.env[self.aux[i]]]
        elif code == P_AND:
            v, t = self._node(self.a1[i])
            v2, t2 = self._node(self.a2[i])
            out = (v | v2, t & t2)
        elif code == P_FORALL:
            slot, body = self.aux[i], self.a1[i]
            veff = self.vocab[i]
            for s in used:
                veff |= self.profiles[self.env[s]][0]
            result = self.dom(veff)
            for k, (pv, _) in enumerate(self.profiles):
                if not result:
                    break
                self.env[slot] = k
                bad = result & self.dom(pv) & ~self._node(body)[1]
                result &= ~bad
                while bad and not used:  # the worlds k is first to falsify
                    self.falsified[i, (bad & -bad).bit_length() - 1] = k
                    bad &= bad - 1
            out = (veff, result)
        else:  # P_NOT, P_K, P_A, P_X
            out = self.step(code, self.aux[i], self._node(self.a1[i]))
        self.memo[key] = out
        return out
