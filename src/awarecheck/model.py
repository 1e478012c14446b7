"""Extended awareness structures: finite Kripke models in which every world
carries its own sublanguage, plus per-agent awareness vocabularies.

Includes structural validation, JSON (de)serialization, seeded random
generation, exhaustive enumeration at desk scale, and the two
truth-preserving transformations (injective renaming, label swap).
"""

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, lru_cache, reduce
from itertools import product
from operator import and_

__all__ = [
    "AwarenessStructure", "InvalidStructure", "PropertyReport",
    "parse_model_class", "validate", "generate_random", "enumerate_models",
    "count_models", "rename_props", "swap_model", "model_to_dict",
    "model_from_dict", "load_model", "save_model",
]


class InvalidStructure(ValueError):
    pass


def parse_model_class(text):
    """Parses a class spec like 'r,t,e', 'rte' or '' into a frozenset."""
    letters = [c for c in text.replace(",", "").replace(" ", "")]
    cls = frozenset(letters)
    if not cls <= {"r", "t", "e"}:
        raise ValueError(f"unknown class properties in {text!r}")
    return cls


class AwarenessStructure:
    """A finite structure (S, L, pi, K_1..K_n, A_1..A_n) over propositions
    props.

    A structure is stored as its kernels' model encoding (see encoding()):
    per proposition the mask of the worlds whose language has it and of those
    where it is true, per agent a successor mask and an awareness mask per
    world.  The constructor copies, freezes and validates its arguments and
    encodes them once.  The set views lang, val, rel and aware keep their
    types: lang and val dicts from world to frozenset, rel a dict from agent
    to a frozenset of (world, world) tuples, aware a dict from agent to a
    dict from world to frozenset; by generation from primitive propositions,
    the awareness vocabulary A_i(s) determines the full sentence set the
    agent is aware of.  A structure that the generators, rename_props or
    evaluate_hr build from masks holds only its encoding until a set view is
    first read, and then decodes them all.
    """

    __slots__ = ("agents", "props", "worlds", "lang", "val", "rel", "aware",
                 "_ctx_cache", "_encoding")

    def __init__(self, agents, props, worlds, lang, val, rel, aware):
        self._ctx_cache = {}
        self.agents = int(agents)
        self.props = tuple(props)
        self.worlds = tuple(worlds)
        self.lang = {w: frozenset(lang[w]) for w in self.worlds}
        self.val = {w: frozenset(val[w]) for w in self.worlds}
        self.rel = {i: frozenset(map(tuple, rel[i]))
                    for i in range(1, self.agents + 1)}
        self.aware = {i: {w: frozenset(aware[i][w]) for w in self.worlds}
                      for i in range(1, self.agents + 1)}
        self._check()
        worlds, agents = self.worlds, range(1, self.agents + 1)
        widx = {w: j for j, w in enumerate(worlds)}
        bit = {p: 1 << j for j, p in enumerate(self.props)}
        succ = [[0] * len(worlds) for _ in agents]
        for i in agents:
            for s, t in self.rel[i]:
                succ[i - 1][widx[s]] |= 1 << widx[t]
        self._encoding = (
            len(worlds),
            *[tuple([sum([1 << j for j, w in enumerate(worlds)
                          if p in sets[w]]) for p in self.props])
              for sets in (self.lang, self.val)],
            tuple(map(tuple, succ)),
            tuple([tuple([sum(map(bit.__getitem__, self.aware[i][w]))
                          for w in worlds]) for i in agents]))

    @staticmethod
    def _of(agents, props, worlds, encoding):
        """The structure with this encoding, checked by no one: agents an
        int, props and worlds tuples, and encoding in encoding()'s form."""
        m = _Encoded.__new__(_Encoded)
        m.agents, m.props, m.worlds = agents, props, worlds
        m._encoding, m._ctx_cache = encoding, {}
        return m

    def __reduce__(self):  # copy and pickle carry the encoding, no cache
        return AwarenessStructure._of, (self.agents, self.props, self.worlds,
                                        self._encoding)

    def _check(self):
        if self.agents < 1 or not self.worlds:
            raise InvalidStructure("need at least one "
                                   + ("agent" if self.agents < 1 else "world"))
        if len(set(self.worlds)) != len(self.worlds):
            raise InvalidStructure("duplicate world ids")
        if len(set(self.props)) != len(self.props):
            raise InvalidStructure("duplicate proposition ids")
        props = set(self.props)
        worlds = set(self.worlds)
        for w in self.worlds:
            if not self.lang[w]:
                raise InvalidStructure(f"empty language at world {w!r}")
            if not self.lang[w] <= props:
                raise InvalidStructure(f"language at {w!r} mentions unknown "
                                       "propositions")
            if not self.val[w] <= self.lang[w]:
                raise InvalidStructure(
                    f"valuation at {w!r} not contained in its language")
        for i in range(1, self.agents + 1):
            for (s, t) in sorted(self.rel[i]):
                if s not in worlds or t not in worlds:
                    raise InvalidStructure(
                        f"relation of agent {i} mentions unknown world")
            for w in self.worlds:
                if not self.aware[i][w] <= self.lang[w]:
                    raise InvalidStructure(
                        f"A_{i}({w!r}) not contained in the language of {w!r}")
            for (s, t) in sorted(self.rel[i]):
                if self.aware[i][s] != self.aware[i][t]:
                    raise InvalidStructure(
                        f"ka fails for agent {i} on edge ({s!r}, {t!r})")
                if not self.aware[i][s] <= self.lang[t]:
                    raise InvalidStructure(
                        f"A_{i}({s!r}) not contained in the language of the "
                        f"successor {t!r}")

    def encoding(self):
        """The kernels' model encoding (see _kernel_py) as tuples:
        (n_worlds, prop_world_masks, prop_true, succ, aware)."""
        return self._encoding

    def successors(self, agent, world):
        return [t for (s, t) in sorted(self.rel[agent]) if s == world]

    def key(self):
        return self.agents, self.props, self.worlds, self.encoding()

    def __eq__(self, other):
        return (isinstance(other, AwarenessStructure)
                and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (f"AwarenessStructure(agents={self.agents}, "
                f"worlds={list(self.worlds)}, props={list(self.props)})")


class _Encoded(AwarenessStructure):
    """A structure built from masks by AwarenessStructure._of, whose set
    views are decoded from its encoding on first read.  The views are
    decoded in this subclass alone, because a class with __getattr__ gets no
    specialized attribute loads from CPython: once decoded, the structure
    becomes a plain AwarenessStructure."""

    __slots__ = ()

    def __getattr__(self, name):
        # reached only for an unset slot or an unknown name; any name but a
        # set view fails before a slot is read, or an object that copy or
        # pickle made, with no slot set yet, would recurse
        if name not in ("lang", "val", "rel", "aware"):
            raise AttributeError(name)
        n, pwm, ptrue, succ, aware = self._encoding
        props, worlds = self.props, self.worlds

        def named(mask):
            return frozenset(map(props.__getitem__, _bits(mask)))

        self.lang, self.val = ({w: named(mask) for w, mask in
                                zip(worlds, _transpose(masks, n))}
                               for masks in (pwm, ptrue))
        self.rel = {i: frozenset((s, worlds[t]) for s, row in zip(worlds, rows)
                                 for t in _bits(row))
                    for i, rows in enumerate(succ, 1)}
        self.aware = {i: dict(zip(worlds, map(named, rows)))
                      for i, rows in enumerate(aware, 1)}
        self.__class__ = AwarenessStructure
        return getattr(self, name)


@dataclass
class PropertyReport:
    reflexive: bool
    transitive: bool
    euclidean: bool
    ka: bool
    containment: bool
    la: bool
    witnesses: dict = field(default_factory=dict)

    def satisfies(self, model_class):
        ok = self.ka and self.containment
        if "r" in model_class:
            ok = ok and self.reflexive
        if "t" in model_class:
            ok = ok and self.transitive
        if "e" in model_class:
            ok = ok and self.euclidean
        return ok

    def as_dict(self):
        return {
            "reflexive": self.reflexive,
            "transitive": self.transitive,
            "euclidean": self.euclidean,
            "ka": self.ka,
            "containment": self.containment,
            "la": self.la,
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
        }


def validate(m):
    """Checks r/t/e/ka/containment/LA by direct quantifier elimination.

    Witnesses are the first offenders in (agent, world, ...) enumeration
    order.
    """
    def relation(i):
        succ = {w: set() for w in m.worlds}
        for (s, t) in m.rel[i]:
            succ[s].add(t)
        return succ

    succs = {i: relation(i) for i in range(1, m.agents + 1)}

    def first_r():
        for i in range(1, m.agents + 1):
            for w in m.worlds:
                if w not in succs[i][w]:
                    return (i, w)
        return None

    def first_te(euclidean):
        # for s -> t: t -> u needs s -> u, or (euclidean) s -> u needs t -> u
        for i in range(1, m.agents + 1):
            for s in m.worlds:
                for t in m.worlds:
                    if t not in succs[i][s]:
                        continue
                    src, dst = (s, t) if euclidean else (t, s)
                    for u in m.worlds:
                        if u in succs[i][src] and u not in succs[i][dst]:
                            return (i, s, t, u)
        return None

    def first_ka():
        for i in range(1, m.agents + 1):
            for s in m.worlds:
                for t in m.worlds:
                    if t in succs[i][s] and m.aware[i][s] != m.aware[i][t]:
                        return (i, s, t)
        return None

    def first_containment():
        for i in range(1, m.agents + 1):
            for s in m.worlds:
                own = m.aware[i][s] - m.lang[s]
                if own:
                    return (i, s, s, min(own))
                for t in m.worlds:
                    if t not in succs[i][s]:
                        continue
                    missing = m.aware[i][s] - m.lang[t]
                    if missing:
                        return (i, s, t, min(missing))
        return None

    def first_la():
        for i in range(1, m.agents + 1):
            for s in m.worlds:
                for p in m.props:
                    if p in m.aware[i][s]:
                        continue
                    if all(p in m.lang[t] for t in succs[i][s]):
                        return (i, s, p)
        return None

    found = {"reflexive": first_r(), "transitive": first_te(False),
             "euclidean": first_te(True), "ka": first_ka(),
             "containment": first_containment(), "la": first_la()}
    return PropertyReport(**{name: w is None for name, w in found.items()},
                          witnesses={name: w for name, w in found.items()
                                     if w is not None})


# --- transformations -------------------------------------------------------

def rename_props(m, tau):
    """Translates m along an injective proposition map tau.

    tau maps propositions in m.props to new names; omitted propositions map
    to themselves.  Languages, valuations and awareness sets are renamed
    pointwise, relations are untouched: the encoding, which indexes
    propositions by position, is m's.
    """
    full = {p: tau.get(p, p) for p in m.props}
    if len(set(full.values())) != len(full):
        raise ValueError("renaming is not injective")
    return AwarenessStructure._of(m.agents, tuple(full.values()), m.worlds,
                                  m.encoding())


def swap_model(m, p, p2):
    """Interchanges the roles of p and p2 in languages, valuations and
    awareness sets; everything else is untouched.  An involution."""
    if p == p2:
        raise ValueError("swap needs two distinct propositions")
    if p not in m.props or p2 not in m.props:
        raise ValueError("both propositions must belong to the structure")
    return rename_props(m, {p: p2, p2: p})


# --- relations as successor masks ------------------------------------------
#
# Generation and enumeration hold a relation on worlds 0..k-1 as k successor
# masks: bit t of succ[s] is set when s relates to t.  validate() reads the
# pairs instead, so that it checks this code rather than sharing it.

@lru_cache(maxsize=1 << 12)
def _bits(mask):
    """The indices of the set bits of mask, in increasing order."""
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


def _transpose(masks, n):
    """Per bit j < n, the mask of the indices of the masks that have it."""
    return tuple(sum(1 << w for w, mask in enumerate(masks) if mask >> j & 1)
                 for j in range(n))


def _close(succ, model_class):
    """The least relation containing succ with the class properties."""
    succ = list(succ)
    if "r" in model_class:
        succ = [s | 1 << w for w, s in enumerate(succ)]
    trans, eucl = "t" in model_class, "e" in model_class
    changed = trans or eucl
    while changed:
        changed = False
        for w in range(len(succ)):
            for u in _bits(succ[w]):
                if trans and succ[u] & ~succ[w]:  # w->u->v gives w->v
                    succ[w] |= succ[u]
                    changed = True
                if eucl and succ[w] & ~succ[u]:  # w->u, w->v give u->v
                    succ[u] |= succ[w]
                    changed = True
    return tuple(succ)


def _mask_components(succ):
    """The weakly connected components of a relation, as world masks in the
    order of their lowest worlds."""
    linked = list(succ)  # successors and predecessors
    for w, s in enumerate(succ):
        for u in _bits(s):
            linked[u] |= 1 << w
    comps, seen = [], 0
    for w in range(len(succ)):
        if not seen >> w & 1:
            comp = frontier = 1 << w
            while frontier:
                reach = 0
                for u in _bits(frontier):
                    reach |= linked[u]
                frontier = reach & ~comp
                comp |= reach
            comps.append(comp)
            seen |= comp
    return comps


# --- random generation -----------------------------------------------------

def _check_args(agents, n_worlds, props):
    """props as a tuple, once the generators' shared bounds hold: at least
    one agent, world (n_worlds, the least an enumeration's bounds reach)
    and proposition, and no proposition named twice."""
    props = tuple(props)
    if not props:
        raise ValueError("need at least one proposition")
    if agents < 1 or n_worlds < 1 or len(set(props)) < len(props):
        raise InvalidStructure("need at least one agent" if agents < 1 else
                               "need at least one world" if n_worlds < 1
                               else "duplicate proposition ids")
    return props


def generate_random(agents, n_worlds, props, model_class=frozenset(),
                    seed=0, density=0.35, require_nonempty_awareness=False,
                    rng=None):
    """Draws a structure passing validate() for the requested class.

    Sampling strategy: languages and valuations first, then relations closed
    under the class properties, then one awareness vocabulary per connected
    component drawn from the intersection of the component's languages (which
    makes ka and containment hold by construction).  So only the arguments
    are checked.  Everything is drawn into masks, which become the
    structure's encoding; valuations and awareness vocabularies are drawn
    over propositions in name order.
    """
    props = _check_args(agents, n_worlds, props)
    if rng is None:
        rng = random.Random(seed)
    by_name = sorted(range(len(props)), key=props.__getitem__)
    langs, vals = [], []
    for _ in range(n_worlds):
        lang = sum(1 << j for j in range(len(props)) if rng.random() < 0.75) \
            or 1 << rng.randrange(len(props))
        langs.append(lang)
        vals.append(sum(1 << j for j in by_name
                        if lang >> j & 1 and rng.random() < 0.5))
    succs, aware_rows = [], []
    for _ in range(agents):
        succ = _close([sum(1 << t for t in range(n_worlds)
                           if rng.random() < density)
                       for _ in range(n_worlds)], model_class)
        row = [0] * n_worlds
        for comp in _mask_components(succ):
            members = _bits(comp)
            inter = reduce(and_, [langs[w] for w in members])
            shared = [j for j in by_name if inter >> j & 1]
            picked = sum(1 << j for j in shared if rng.random() < 0.5)
            if require_nonempty_awareness and shared and not picked:
                picked = 1 << rng.choice(shared)
            for w in members:
                row[w] = picked
        succs.append(succ)
        aware_rows.append(tuple(row))
    return AwarenessStructure._of(
        agents, props, tuple(f"w{j}" for j in range(n_worlds)),
        (n_worlds, _transpose(langs, len(props)),
         _transpose(vals, len(props)), tuple(succs), tuple(aware_rows)))


# --- exhaustive enumeration ------------------------------------------------

@cache
def _relations(k, model_class):
    """All relations on k worlds with the class properties, in numeric
    adjacency order."""
    if k * k > 20:
        raise ValueError(f"relation enumeration infeasible for {k} worlds")
    row = (1 << k) - 1
    every = (tuple(bits >> (k * w) & row for w in range(k))
             for bits in range(1 << (k * k)))
    return [succ for succ in every if _close(succ, model_class) == succ]


def _subsets(mask):
    """All submasks of mask in increasing numeric order."""
    subs = []
    sub = 0
    while True:
        subs.append(sub)
        if sub == mask:
            return subs
        sub = (sub - mask) & mask


def _languages(k, n_props, constant_language, splits):
    """Yields each language assignment langs of k worlds (one nonempty
    proposition mask per world, or the full mask at every world) with, per
    component split in splits, the (component, propositions in every
    language of the component) pairs of its components."""
    full = (1 << n_props) - 1
    choices = [full] if constant_language else range(1, full + 1)
    for langs in product(choices, repeat=k):
        yield langs, [[(comp, reduce(and_, [langs[w] for w in _bits(comp)]))
                       for comp in comps] for comps in splits]


def count_models(agents, max_worlds, props, model_class=frozenset(),
                 constant_language=False, min_worlds=1):
    """Exact model count for the enumerate_models bounds.

    Per world count k:  sum over language assignments L and relation tuples
    (one per agent) of  prod_w 2^|L(w)|  *  prod_i prod_comps 2^|intersection
    of L over the component|.  The second factor depends on a relation only
    through its split into components, so each split is counted once, times
    the number of relations that have it.
    """
    props = _check_args(agents, min(min_worlds, max_worlds), props)
    total = 0
    for k in range(min_worlds, max_worlds + 1):
        splits = Counter(tuple(_mask_components(succ))
                         for succ in _relations(k, model_class))
        for langs, inters in _languages(k, len(props), constant_language,
                                        splits):
            aware_total = sum(
                n << sum(inter.bit_count() for _, inter in pairs)
                for n, pairs in zip(splits.values(), inters))
            total += (1 << sum(lang.bit_count() for lang in langs)) * \
                aware_total ** agents
    return total


def enumerate_models(agents, max_worlds, props, model_class=frozenset(),
                     constant_language=False, min_worlds=1,
                     max_count=20_000_000):
    """Streams every structure over the given bounds exactly once, with
    canonical world ids w0..wk.  No isomorphism reduction.

    The count explodes as documented in count_models; the generator refuses
    to start if the exact count exceeds max_count.
    """
    props = _check_args(agents, min(min_worlds, max_worlds), props)
    if max_count is not None:
        n = count_models(agents, max_worlds, props, model_class,
                         constant_language, min_worlds)
        if n > max_count:
            raise ValueError(f"enumeration would yield {n} models "
                             f"(cap {max_count})")
    for k in range(min_worlds, max_worlds + 1):
        worlds = tuple(f"w{j}" for j in range(k))
        rels = _relations(k, model_class)
        splits = {}
        split_of = [splits.setdefault(tuple(_mask_components(succ)),
                                      len(splits)) for succ in rels]
        for langs, inters in _languages(k, len(props), constant_language,
                                        splits):
            pwm = _transpose(langs, len(props))
            # per split, each awareness choice as its mask per world: that
            # of the world's component
            aware_rows = []
            for pairs in inters:
                owner = [c for w in range(k)
                         for c, (comp, _) in enumerate(pairs) if comp >> w & 1]
                choices = product(*[_subsets(inter) for _, inter in pairs])
                aware_rows.append([tuple(map(choice.__getitem__, owner))
                                   for choice in choices])
            ptrues = [_transpose(vals, len(props))
                      for vals in product(*map(_subsets, langs))]
            for rel_idx in product(range(len(rels)), repeat=agents):
                succ = tuple(rels[r] for r in rel_idx)
                for rows in product(*[aware_rows[split_of[r]]
                                      for r in rel_idx]):
                    for ptrue in ptrues:
                        yield AwarenessStructure._of(
                            agents, props, worlds, (k, pwm, ptrue, succ, rows))


# --- JSON ------------------------------------------------------------------

def model_to_dict(m):
    def ordered(s):
        return [p for p in m.props if p in s]

    widx = {w: j for j, w in enumerate(m.worlds)}
    return {
        "agents": m.agents,
        "props": list(m.props),
        "worlds": [
            {
                "id": w,
                "lang": ordered(m.lang[w]),
                "true": ordered(m.val[w]),
                "aware": {str(i): ordered(m.aware[i][w])
                          for i in range(1, m.agents + 1)},
            }
            for w in m.worlds
        ],
        "relations": {
            str(i): sorted([list(p) for p in m.rel[i]],
                           key=lambda p: (widx[p[0]], widx[p[1]]))
            for i in range(1, m.agents + 1)
        },
    }


def model_from_dict(d):
    """The structure a JSON object describes; InvalidStructure for any
    malformed shape, as for any violated constraint."""
    def names(x, pair=False):
        if not isinstance(x, list) or (pair and len(x) != 2) or \
                not all(isinstance(n, str) for n in x):
            raise TypeError(f"expected {'a pair' if pair else 'a list'} of "
                            f"names, got {x!r}")
        return x

    def table(x):
        if not isinstance(x, dict):
            raise TypeError(f"expected an object, got {x!r}")
        return x

    try:
        agents = d["agents"]
        if type(agents) is not int:  # bool is an int, 1.9 would truncate
            raise TypeError(f"expected an integer agent count, got "
                            f"{agents!r}")
        props = [str(p) for p in names(d["props"])]
        entries = d["worlds"]
        worlds = [str(e["id"]) for e in entries]
        lang = {str(e["id"]): names(e["lang"]) for e in entries}
        val = {str(e["id"]): names(e["true"]) for e in entries}
        aware = {i: {str(e["id"]): names(table(e.get("aware", {}))
                                         .get(str(i), []))
                     for e in entries}
                 for i in range(1, agents + 1)}
        relations = table(d.get("relations", {}))
        rel = {i: [tuple(names(p, True)) for p in relations.get(str(i), [])]
               for i in range(1, agents + 1)}
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidStructure(f"malformed model JSON: {exc}") from exc
    return AwarenessStructure(agents, props, worlds, lang, val, rel, aware)


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def save_model(m, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(m), fh, indent=2, sort_keys=True)
        fh.write("\n")
