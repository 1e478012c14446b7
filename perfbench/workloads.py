"""The benchmark's two workloads.

Each is a closed loop with one caller in one process.  A workload builds
its inputs in setup(), runs whole rounds of operations with round(r, pass_)
and checks every output as it goes, outside the timed spans.  Round r's
inputs depend only on the seed, r and the rounds before it in the same
pass; new_pass() starts the enumeration stream afresh, so two passes over
the same rounds see the same inputs.
"""

import contextlib
import io
import itertools
import json
import os
import random
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from awarecheck import checker, cli, model, proofs, syntax
from awarecheck.fuzz import random_open_formula, random_qf_sentence
from awarecheck.syntax import Forall, pretty

import reference
from reference import FALSE, TRUE, UNDEFINED, CheckFailed

PSI = "!X1 !(forall #x . A1 #x) & !X1 (forall #x . A1 #x)"
C1 = (  # acceptance criterion c1 on M_barcan: (world, sentence, verdict)
    ("s", "forall #x . X1 A1 #x", TRUE),
    ("s", "X1 (forall #x . A1 #x)", FALSE),
    ("t", "!(forall #x . A1 #x)", TRUE),
    ("t", "X1 !(forall #x . A1 #x)", FALSE),
)
EXIT_CODES = {TRUE: 0, FALSE: 1, UNDEFINED: 3}
RTE = frozenset("rte")


@dataclass
class Round:
    latencies: list = field(default_factory=list)   # s, one per operation
    busy: float = 0.0       # s spent in operations, failed ones included
    attempted: int = 0
    failed: int = 0
    faults: list = field(default_factory=list)


def _seeded(tag, seed, r):
    return random.Random(f"{tag}:{seed}:{r}")


class Workload:
    """What the workloads share: the fixtures and the fixed checks every
    run makes."""

    def __init__(self, seed, root, workdir, tracer):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.tracer = tracer

    def fixture_path(self, name):
        return os.path.join(self.root, "fixtures", name + ".json")

    def setup(self):
        self.fixtures = {name: model.load_model(self.fixture_path(name))
                         for name in ("M_barcan", "M_unc")}

    def new_pass(self):
        return None

    def fixture_checks(self):
        """Fixed checks every run makes once, after its rounds: the
        reference and the checker against hand-worked verdicts, c1 and PSI
        through the CLI, and the FA_X negative control of the sweep."""
        reference.self_test(self.fixtures)
        for name, world, text, want in reference.HAND_WORKED:
            m = self.fixtures[name]
            got = str(checker.evaluate(m, world, syntax.parse(text, 1)))
            if got != want:
                raise CheckFailed(f"{text} at {name}.{world}: {got}, "
                                  f"hand-worked {want}")
        queries = [("M_barcan", w, text, want) for w, text, want in C1]
        queries.append(("M_unc", "s", PSI, TRUE))
        for name, world, text, want in queries:
            code, payload = run_cli(["eval", self.fixture_path(name), world,
                                     text, "--json"])
            got = payload and payload["value"]
            if got != want or code != EXIT_CODES[want]:
                raise CheckFailed(f"{text} at {name}.{world}: {got} "
                                  f"(exit {code}), expected {want}")
        barcan = self.fixtures["M_barcan"]
        corpus = itertools.chain(
            [barcan],
            (model.generate_random(1, 2, ("p", "q"), seed=k)
             for k in range(2)),
            itertools.islice(model.enumerate_models(1, 2, ("p", "q")), 2))
        rep = proofs.soundness_sweep("AXe_XAforall+FA_X", corpus, seed=0,
                                     instances_per_schema=2,
                                     instance_depth=2)
        if not any(v.name == "FA_X" and v.model is barcan and v.world == "t"
                   for v in rep.violations):
            raise CheckFailed("negative control: no FA_X violation at "
                              "M_barcan.t")


def run_cli(argv):
    """awarecheck.cli.main in-process; (exit code, parsed --json output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    text = out.getvalue()
    return code, json.loads(text) if text else None


class Sweep(Workload):
    """soundness_sweep of the c4 system over random rte structures plus a
    fixed slice of the exhaustive rte enumeration; one corpus of about 60
    schema instances per round, reused across its 200 structures as c3/c4
    reuse theirs."""

    name = "sweep"
    unit = "structures"
    system = "AXe_KXAAstarforall+T45star"
    n_random = 150
    n_enum = 50
    # the slice: every 37th of the 26528 structures, 700 of them, so that
    # it spans the enumeration and 14 rounds use it up exactly
    enum_stride = 37
    enum_rounds = 14
    nominal_rounds_per_s = 0.5

    def new_pass(self):
        """The pass's stream of enumerated structures, restarting at the
        end of the slice, so its mix does not depend on the speed of a
        run."""
        while True:
            yield from itertools.islice(
                model.enumerate_models(1, 3, ("p", "q"), RTE), 0,
                self.enum_stride * self.n_enum * self.enum_rounds,
                self.enum_stride)

    def round(self, r, enum_stream):
        rng = _seeded(self.name, self.seed, r)
        makers = [lambda s=rng.randrange(2 ** 31): model.generate_random(
            1, 3, ("p", "q"), RTE, seed=s) for _ in range(self.n_random)]
        makers += [lambda: next(enum_stream)] * self.n_enum
        stamps = []

        def structures():
            # the sweep pulls the next structure when done with the last
            for make in makers:
                stamps.append(perf_counter())
                self.tracer.begin_op()
                yield make()
            stamps.append(perf_counter())

        start = perf_counter()
        rep = proofs.soundness_sweep(self.system, structures(),
                                     seed=rng.randrange(2 ** 31),
                                     instances_per_schema=4,
                                     instance_depth=3)
        res = Round(busy=perf_counter() - start, attempted=len(makers))
        res.latencies = [b - a for a, b in zip(stamps, stamps[1:])]
        if rep.models_checked != len(makers):
            raise CheckFailed(f"sweep checked {rep.models_checked} of "
                              f"{len(makers)} structures")
        if not sum(rep.instances.values()):
            raise CheckFailed("sweep generated no schema instances")
        if rep.unexpected:
            raise CheckFailed("Theorem 3 violated on an rte structure: "
                              + rep.unexpected[0].describe())
        return res


class Query(Workload):
    """Cold `awarecheck eval ... --json` calls through cli.main, each
    loading a model file written at set-up, plus the deep-nesting queries
    that fail today."""

    name = "query"
    unit = "queries"
    n_models = 48
    corpus_seed = 2009
    deep = (1000, 2000, 3000)
    samples = 6             # instances tried per True quantifier
    nominal_rounds_per_s = 0.3

    def setup(self):
        super().setup()
        # The model set is the same for every seed: the closure dominates a
        # cold query and its cost spans three orders of magnitude across
        # random structures of this size, so seeded models would move the
        # percentiles between seeds by more than any bound.  Worlds stop at
        # 8: at 9-10 about one structure in 25 needs seconds of closure,
        # and a run could not hold the 100 queries a p90 needs.  The
        # sentences and queried worlds come from the seed.
        rng = random.Random(self.corpus_seed)
        self.corpus = []
        for k in range(self.n_models):
            agents = rng.randint(2, 3)
            worlds = rng.randint(6, 8)
            props = ("p", "q", "r", "s")[:rng.randint(3, 4)]
            m = model.generate_random(agents, worlds, props,
                                      seed=rng.randrange(2 ** 31))
            path = os.path.join(self.workdir, f"model{k:02d}.json")
            model.save_model(m, path)
            self.corpus.append((path, m))

    def round(self, r, pass_):
        """One query per model, alternating between a quantifier-free
        sentence and `forall #x . body`, then the deep-nesting queries."""
        rng = _seeded(self.name, self.seed, r)
        # the checks draw from their own generator, so that the inputs do
        # not depend on the verdicts
        check_rng = _seeded("query-check", self.seed, r)
        res = Round()
        for k, (path, m) in enumerate(self.corpus):
            world = rng.choice(m.worlds)
            if (k + r) % 2:
                f = Forall("x", random_open_formula(rng, m.props, m.agents,
                                                    "x", max_depth=3))
            else:
                f = random_qf_sentence(rng, m.props, m.agents, max_depth=3)
            self._query(res, path, m, world, f, check_rng)
        barcan = self.fixtures["M_barcan"]
        for depth in self.deep:
            self._query(res, self.fixture_path("M_barcan"), barcan, "s",
                        reference.deep_k(1, depth), check_rng,
                        text="K1 " * depth + "p")
        return res

    def _query(self, res, path, m, world, f, rng, text=None):
        """One cold query; text is given for the deep-nesting ones, whose
        failures are counted rather than raised."""
        deep = text is not None
        if not deep:
            text = pretty(f)
        res.attempted += 1
        self.tracer.begin_op()
        start = perf_counter()
        try:
            code, payload = run_cli(["eval", path, world, text, "--json"])
        except RecursionError as exc:
            if not deep:
                raise
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            res.failed += 1
            res.faults.append(f"RecursionError in "
                              f"{os.path.basename(frame.filename)}:"
                              f"{frame.name}")
            return
        finally:
            elapsed = perf_counter() - start
            res.busy += elapsed
        if code == 2 and deep:
            res.failed += 1
            res.faults.append("deep sentence refused (exit 2)")
            return
        with self.tracer.paused():
            try:
                self._check(m, world, f, code, payload, rng)
            except CheckFailed as exc:
                raise CheckFailed(f"{text[:200]} at {world} of {path}: "
                                  f"{exc}") from None
        if not deep:
            res.latencies.append(elapsed)

    def _check(self, m, world, f, code, payload, rng):
        if payload is None:
            raise CheckFailed(f"exit {code} without a verdict")
        value = payload["value"]
        if code != EXIT_CODES.get(value):
            raise CheckFailed(f"exit {code} for verdict {value}")
        if isinstance(f, Forall):
            reference.check_forall(m, world, f, value, payload["witness"],
                                   rng, self.samples)
            return
        want = reference.verdict(m, world, f)
        if value != want:
            raise CheckFailed(f"{value}, reference {want}")


WORKLOADS = {w.name: w for w in (Sweep, Query)}
