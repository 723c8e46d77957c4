"""The benchmark's three workloads: which CLI commands run, on which inputs.

A workload is a pool of cycles of ops.  An op is one `pandora.cli.main(argv)`
call with the argv a user would type.  Inputs come from `random_instance`
with seeds derived from the workload seed, so the same seed gives the same
files and argv.  `--jobs` is never passed: the benchmark measures the
single-process program.

Why each workload exists is recorded in BENCHMARK.json; which layer metrics
each is expected to move is recorded in `LAYER_MAP`.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

FAMILIES = ("bernoulli_coverage", "bernoulli_tree", "bernoulli_hardness",
            "general_coverage", "additive", "explicit_subadditive")
BERNOULLI = FAMILIES[:3]
THEOREMS = ("T31", "T44", "L35", "cancellation", "preservation", "chain")

DEFAULT_SEED = 1
# warm-ups draw from a fixed seed, so set-up does the same work whatever the
# workload seed (a random 5-box T44 warm-up trial costs 50x a 2-box one)
WARM_SEED = 0


@dataclass(frozen=True)
class Op:
    """One CLI call: `key` names it stably, `expect` holds the exit codes
    that count as success, `meta` carries what the answer check needs."""

    key: str
    argv: tuple[str, ...]
    expect: frozenset[int] = frozenset({0})
    meta: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def kind(self) -> str:
        return self.key.split("/", 1)[0]


@dataclass(frozen=True)
class Plan:
    """What one set-up produces.  A run repeats `cycles` in order and stops
    only between cycles, so every run keeps the cycle's mix of op kinds; a
    run that outlasts the pool starts again from the first cycle."""

    cycles: tuple[tuple[Op, ...], ...]
    warmups: tuple[Op, ...]

    @property
    def ops(self) -> tuple[Op, ...]:
        return tuple(op for cycle in self.cycles for op in cycle)


def _warmups(cycles, inputs: Path) -> tuple[Op, ...]:
    """One warm-up per command kind, on a 4-box input of the same family."""
    from pandora.instances import random_instance

    first = {}
    for op in (op for cycle in cycles for op in cycle):
        first.setdefault(op.kind, op)
    warm = []
    for kind, op in first.items():
        path = inputs / f"warm-{kind}.json"
        _write(random_instance(op.meta["family"], 4, derive_seed(WARM_SEED, kind)), path)
        warm.append(Op(f"{kind}/warm", (*op.argv[:-1], str(path)), op.expect,
                       {**op.meta, "path": str(path), "n": 4}))
    return tuple(warm)


def derive_seed(seed: int, *parts) -> int:
    """A 32-bit seed for one input, stable across runs and interpreters."""
    return random.Random(":".join(str(p) for p in (seed, *parts))).getrandbits(32)


# ---------------------------------------------------------------------------
# exact_solve
# ---------------------------------------------------------------------------

# the class each random family has by construction
FAMILY_CLASS = {"bernoulli_coverage": "submodular", "bernoulli_tree": "gross_substitutes",
                "bernoulli_hardness": "matroid_rank", "general_coverage": "submodular",
                "additive": "additive", "explicit_subadditive": "subadditive"}

# by-construction class -> the validator classes it must pass
IMPLIED_PASS = {
    "submodular": {"submodular", "subadditive"},
    "gross_substitutes": {"submodular", "subadditive", "gross_substitutes"},
    "matroid_rank": {"submodular", "subadditive", "gross_substitutes"},
    "additive": {"submodular", "subadditive", "gross_substitutes"},
    "subadditive": {"subadditive"},
}

# sizes: (big: adaptive and validators, mid: gross substitutes, small: fixed
# order, bern: impulsive and gap, transform)
SIZES = {"full": (10, 9, 5, 6, 8), "tiny": (5, 4, 3, 4, 4)}


def _write(instance, path: Path) -> None:
    from pandora.serialize import save_instance

    save_instance(instance, path)


# cycles of distinct inputs in the pool, about twice what a run uses
EXACT_CYCLES = 24


def _exact_solve(seed: int, inputs: Path, tiny: bool) -> Plan:
    """Each cycle runs every command kind once, each on its own input.  The
    kinds take the six families in rotated order, so every cycle covers all
    families and a run that ends between cycles keeps both mixes.  Every
    fifth cycle runs the validators at n = 11, and the n! slot alternates
    fixed order at n = 6 and gap.  The adaptive DP stays at n = 10: at n = 11
    its time varies by about 40% from input to input, and two such ops per
    run moved ops_per_s and op_ms.p90 by more than any bound could absorb."""
    from pandora.instances import random_instance

    big, mid, small, bern, tn = SIZES["tiny" if tiny else "full"]
    cycles = []
    for c in range(EXACT_CYCLES):
        cycle = []

        def add(kind, argv, family, n, **meta):
            path = inputs / f"{kind}-n{n}-c{c}.json"
            _write(random_instance(family, n, derive_seed(seed, "exact", c, kind, n)), path)
            cls = FAMILY_CLASS[family]
            # a validator outside the family's class may fail, with a witness
            maybe_fails = kind.startswith("validate.") and meta["cls"] not in IMPLIED_PASS[cls]
            cycle.append(Op(f"{kind}/c{c}/n{n}", (*argv, "-i", str(path)),
                            frozenset({0, 1} if maybe_fails else {0}),
                            {"family": family, "cost_class": cls, "path": str(path), "n": n,
                             **meta}))

        def fam(k):
            return FAMILIES[(c + k) % len(FAMILIES)]

        def solve(cls, family, n):
            add(f"solve.{cls}", ("solve", "--class", cls), family, n, cls=cls)

        def validate(cls, family, n):
            add(f"validate.{cls}", ("validate", "--class", cls), family, n, cls=cls)

        nv = big + (c % 5 == 4)
        solve("adaptive", fam(0), big)
        validate("submodular", fam(1), nv)
        validate("subadditive", fam(2), nv)
        validate("gross_substitutes", fam(3), mid)
        solve("fixed_order", fam(4), small)
        add("transform", ("transform", "discretize", "bernoullify", "--epsilon", "1/4"),
            fam(5), tn)
        solve("impulsive", BERNOULLI[c % len(BERNOULLI)], bern)
        solve("weitzman", "additive", tn + c % 4)
        if c % 2 == 0:
            solve("fixed_order", FAMILIES[c // 2 % len(FAMILIES)], small + 1)
        else:
            add("gap", ("gap",), BERNOULLI[c // 2 % len(BERNOULLI)], bern)
        cycles.append(tuple(cycle))
    return Plan(tuple(cycles), _warmups(cycles, inputs))


# ---------------------------------------------------------------------------
# theorem_verify
# ---------------------------------------------------------------------------

# trials per op, chosen so each suite takes a similar share of the time;
# T31 needs 40 so that its n = 6 trial (every 40th) is included.  A T44
# trial's cost grows steeply with its random n in 2..5, so T44 runs as one
# op of many trials: with several short T44 ops the slowest tenth of ops,
# and so op_ms.p90, would depend on how many n = 5 trials each op drew
TRIALS = {"T31": 40, "T44": 48, "L35": 150, "cancellation": 250,
          "preservation": 125, "chain": 225}
TINY_TRIALS = {"T31": 3, "T44": 3, "L35": 5, "cancellation": 5,
               "preservation": 6, "chain": 5}
# ops per cycle: T31 and T44 are one long op each, the other suites twenty
# short ones, so the long ops stay under a thirtieth of the ops and p90 falls
# well inside the short ones rather than on the edge between the two or in
# the few slowest short ops
REPEATS = {"T31": 1, "T44": 1, "L35": 20, "cancellation": 20,
           "preservation": 20, "chain": 20}
# cycles of distinct seeds in the pool, about twice what a run uses
THEOREM_CYCLES = 10


def _verify_op(key, theorem, trials, seed):
    return Op(key, ("verify", "--theorem", theorem, "--trials", str(trials), "--seed", str(seed)),
              meta={"theorem": theorem, "trials": trials, "seed": seed})


def _theorem_verify(seed: int, inputs: Path, tiny: bool) -> Plan:
    trials = TINY_TRIALS if tiny else TRIALS
    cycles = []
    for c in range(THEOREM_CYCLES):
        cycle = [_verify_op(f"verify.{th}/c{c}r{r}", th, trials[th],
                            derive_seed(seed, "verify", c, r, th))
                 for r in range(max(REPEATS.values())) for th in THEOREMS if r < REPEATS[th]]
        cycle.append(Op(f"corpus/c{c}", ("corpus", "run")))
        cycles.append(tuple(cycle))
    warm = [_verify_op(f"verify.{th}/warm", th, 2, derive_seed(WARM_SEED, th))
            for th in THEOREMS]
    warm.append(Op("corpus/warm", ("corpus", "run")))
    return Plan(tuple(cycles), tuple(warm))


# ---------------------------------------------------------------------------
# hardness_lab
# ---------------------------------------------------------------------------

# (budget, trials): both issue 1,000 queries per op, the first builds ten
# times as many oracles
DISTINGUISH = ((10, 100), (100, 10))
# distinguish ops per cycle; a `hardness verify` op follows every fourth.
# The two verify ops join the four budget-100 ops, which take about as long,
# so that the shorter kind is three fifths of the ops and op_ms.p50 falls
# inside it rather than at its slowest edge
DISTINGUISH_PER_CYCLE = 8
VERIFY_EVERY = 4
# cycles of distinct seeds in the pool, about twice what a run uses
HARDNESS_CYCLES = 24


def _distinguish_op(key, n, budget, trials, seed):
    return Op(key, ("hardness", "distinguish", "--n", str(n), "--budget", str(budget),
                    "--trials", str(trials), "--seed", str(seed)),
              meta={"n": n, "budget": budget, "trials": trials, "seed": seed})


def _hardness_lab(seed: int, inputs: Path, tiny: bool) -> Plan:
    # n = 100000 is the smallest round size inside the family's regime
    n, verify_n = (256 if tiny else 4096), 100000
    shapes = ((3, 4), (4, 3)) if tiny else DISTINGUISH
    verify = ("hardness", "verify", "--n", str(verify_n))
    cycles = []
    for c in range(HARDNESS_CYCLES):
        cycle = []
        for r in range(DISTINGUISH_PER_CYCLE):
            budget, trials = shapes[r % 2]
            cycle.append(_distinguish_op(f"distinguish.b{budget}/c{c}r{r}", n, budget, trials,
                                         derive_seed(seed, "hardness", c, r)))
            if r % VERIFY_EVERY == VERIFY_EVERY - 1:
                cycle.append(Op(f"verify_family/c{c}r{r}", verify, meta={"n": verify_n}))
        cycles.append(tuple(cycle))
    warm = [_distinguish_op(f"distinguish.b{b}/warm", n, b, 2, derive_seed(WARM_SEED, b))
            for b, _ in shapes]
    warm.append(Op("verify_family/warm", verify, meta={"n": verify_n}))
    return Plan(tuple(cycles), tuple(warm))


# name -> plan builder (seed, inputs dir, tiny sizes); why each workload was
# chosen is recorded with its name in BENCHMARK.json
WORKLOADS: dict[str, Callable[[int, Path, bool], Plan]] = {
    "exact_solve": _exact_solve,
    "theorem_verify": _theorem_verify,
    "hardness_lab": _hardness_lab,
}


# Which end-to-end metric each layer metric should move, on which workload,
# and where it is predicted flat.  Later changes cite these by name.
LAYER_MAP = (
    # (layer metrics, should move, on, predicted flat on)
    ("cli.self_ms", "op_ms.p50", "exact_solve (short ops)", "-"),
    ("serialize.load_ms serialize.digest_ms serialize.dump_ms", "op_ms.p50",
     "exact_solve", "hardness_lab"),
    ("instances.generate_ms", "ops_per_s", "theorem_verify", "hardness_lab"),
    ("costs.queries costs.distinct_sets costs.repeat_ratio costs.eval_ms",
     "ops_per_s op_ms.p50", "exact_solve", "hardness_lab"),
    ("costs.oracles_built costs.build_ms", "ops_per_s",
     "hardness_lab theorem_verify", "exact_solve"),
    ("classes.<class>_ms classes.tabulated_subsets", "op_ms.p50 ops_per_s",
     "exact_solve", "hardness_lab"),
    ("solvers.adaptive_ms solvers.adaptive_states_bound solvers.adaptive_states_per_s",
     "ops_per_s op_ms.p50", "exact_solve", "hardness_lab"),
    ("solvers.fixed_order_ms solvers.permutations solvers.permutations_per_s "
     "solvers.impulsive_ms solvers.ordered_subsets solvers.gap_ms",
     "op_ms.p90 ops_per_s", "exact_solve theorem_verify (T44, T31)", "hardness_lab"),
    ("strategies.eval_ms strategies.marginal_utility_ms", "ops_per_s",
     "theorem_verify", "hardness_lab"),
    ("transforms.bernoullify_ms transforms.discretize_ms transforms.check_preservation_ms",
     "ops_per_s", "theorem_verify (preservation) exact_solve (transform ops)", "hardness_lab"),
    ("hardness.params_ms hardness.tail_ms hardness.verify_family_ms "
     "hardness.trials_per_s hardness.queries_per_s", "ops_per_s", "hardness_lab",
     "exact_solve theorem_verify"),
    ("corpus.<theorem>.trial_ms corpus.trials_per_s", "ops_per_s", "theorem_verify", "-"),
    ("trace.overhead_ratio", "-", "all", "-"),
)
