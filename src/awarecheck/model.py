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

    lang/val/aware store vocabularies as frozensets; by generation from
    primitive propositions, the awareness vocabulary A_i(s) determines the
    full sentence set the agent is aware of.

    With check=True the inputs are copied, frozen and validated.  With
    check=False they are adopted as given, which must be their frozen form:
    agents as an int, props and worlds as tuples, lang and val as dicts from
    world to frozenset, rel as a dict from agent to a frozenset of (world,
    world) tuples, aware as a dict from agent to a dict from world to
    frozenset.  Such a structure shares these maps with its caller, and
    neither may change them.
    """

    __slots__ = ("agents", "props", "worlds", "lang", "val", "rel", "aware",
                 "_ctx_cache", "_encoding")

    def __init__(self, agents, props, worlds, lang, val, rel, aware,
                 check=True):
        self._ctx_cache = {}
        if not check:
            self.agents, self.props, self.worlds = agents, props, worlds
            self.lang, self.val, self.rel, self.aware = lang, val, rel, aware
            return
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
        """The kernels' model encoding (see _kernel_py) as tuples, attached
        by the generators from their masks, else derived once from the sets."""
        if not hasattr(self, "_encoding"):
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
    pointwise, relations are untouched.
    """
    full = {p: tau.get(p, p) for p in m.props}
    if len(set(full.values())) != len(full):
        raise ValueError("renaming is not injective")

    def ren(s):
        return frozenset(full[p] for p in s)

    return AwarenessStructure(
        m.agents, tuple(full[p] for p in m.props), m.worlds,
        {w: ren(m.lang[w]) for w in m.worlds},
        {w: ren(m.val[w]) for w in m.worlds},
        m.rel,
        {i: {w: ren(m.aware[i][w]) for w in m.worlds}
         for i in range(1, m.agents + 1)},
        check=False)


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

def generate_random(agents, n_worlds, props, model_class=frozenset(),
                    seed=0, density=0.35, require_nonempty_awareness=False,
                    rng=None):
    """Draws a structure passing validate() for the requested class.

    Sampling strategy: languages and valuations first, then relations closed
    under the class properties, then one awareness vocabulary per connected
    component drawn from the intersection of the component's languages (which
    makes ka and containment hold by construction).  So only the arguments
    are checked, and the structure is built with check=False.
    """
    if not props:
        raise ValueError("need at least one proposition")
    if agents < 1 or n_worlds < 1 or len(set(props)) < len(props):
        raise InvalidStructure("need at least one agent" if agents < 1 else
                               "need at least one world" if n_worlds < 1
                               else "duplicate proposition ids")
    if rng is None:
        rng = random.Random(seed)
    props = tuple(props)
    pidx = {p: j for j, p in enumerate(props)}
    worlds = tuple(f"w{j}" for j in range(n_worlds))
    lang, val, pwm, ptrue = {}, {}, [0] * len(props), [0] * len(props)
    for j, w in enumerate(worlds):
        lang[w] = frozenset([p for p in props if rng.random() < 0.75]
                            or [rng.choice(props)])
        val[w] = frozenset(p for p in sorted(lang[w]) if rng.random() < 0.5)
        for sets, masks in ((lang, pwm), (val, ptrue)):
            for p in sets[w]:
                masks[pidx[p]] |= 1 << j
    rel, aware, succs, aware_rows = {}, {}, [], []
    for i in range(1, agents + 1):
        succ = _close([sum(1 << t for t in range(n_worlds)
                           if rng.random() < density)
                       for _ in worlds], model_class)
        rel[i] = frozenset((worlds[s], worlds[t]) for s in range(n_worlds)
                           for t in _bits(succ[s]))
        aware[i], row = {}, [0] * n_worlds
        for comp in _mask_components(succ):
            members = _bits(comp)
            shared = sorted(frozenset.intersection(*[lang[worlds[w]]
                                                     for w in members]))
            picked = frozenset(p for p in shared if rng.random() < 0.5)
            if require_nonempty_awareness and shared and not picked:
                picked = frozenset((rng.choice(shared),))
            mask = sum(1 << pidx[p] for p in picked)
            for w in members:
                aware[i][worlds[w]], row[w] = picked, mask
        succs.append(succ)
        aware_rows.append(tuple(row))
    m = AwarenessStructure(agents, props, worlds, lang, val, rel, aware,
                           check=False)
    m._encoding = (n_worlds, tuple(pwm), tuple(ptrue), tuple(succs),
                   tuple(aware_rows))
    return m


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
    props = tuple(props)
    if not props:
        raise ValueError("need at least one proposition")
    if max_count is not None:
        n = count_models(agents, max_worlds, props, model_class,
                         constant_language, min_worlds)
        if n > max_count:
            raise ValueError(f"enumeration would yield {n} models "
                             f"(cap {max_count})")
    as_set = cache(lambda mask: frozenset(props[j] for j in _bits(mask)))
    agent_ids = range(1, agents + 1)
    for k in range(min_worlds, max_worlds + 1):
        worlds = tuple(f"w{j}" for j in range(k))
        rels = _relations(k, model_class)
        rel_pairs = [frozenset((worlds[s], worlds[t]) for s in range(k)
                               for t in _bits(succ[s])) for succ in rels]
        splits = {}
        split_of = [splits.setdefault(tuple(_mask_components(succ)),
                                      len(splits)) for succ in rels]
        for langs, inters in _languages(k, len(props), constant_language,
                                        splits):
            lang_map = {w: as_set(lang) for w, lang in zip(worlds, langs)}
            pwm = _transpose(langs, len(props))
            # per split, each awareness choice as a map from world to set,
            # with its mask per world: that of the world's component
            aware_maps = []
            for pairs in inters:
                owner = [c for w in range(k)
                         for c, (comp, _) in enumerate(pairs) if comp >> w & 1]
                rows = [tuple(map(choice.__getitem__, owner)) for choice in
                        product(*[_subsets(inter) for _, inter in pairs])]
                aware_maps.append([(dict(zip(worlds, map(as_set, row))), row)
                                   for row in rows])
            val_maps = [(dict(zip(worlds, map(as_set, vals))),
                         _transpose(vals, len(props)))
                        for vals in product(*map(_subsets, langs))]
            for rel_idx in product(range(len(rels)), repeat=agents):
                rel_map = {i: rel_pairs[r] for i, r in zip(agent_ids, rel_idx)}
                succ = tuple(rels[r] for r in rel_idx)
                for choice in product(*[aware_maps[split_of[r]]
                                        for r in rel_idx]):
                    aware_map = {i: c[0] for i, c in zip(agent_ids, choice)}
                    aware_rows = tuple(c[1] for c in choice)
                    for val_map, ptrue in val_maps:
                        m = AwarenessStructure(
                            agents, props, worlds, lang_map, val_map,
                            rel_map, aware_map, check=False)
                        m._encoding = (k, pwm, ptrue, succ, aware_rows)
                        yield m


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
    return AwarenessStructure(agents, props, worlds, lang, val, rel, aware,
                              check=True)


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def save_model(m, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(m), fh, indent=2, sort_keys=True)
        fh.write("\n")
