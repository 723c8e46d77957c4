"""Canonical instances with frozen expected outcomes, and the theorem suites.

The corpus pins down the worked examples -- the 3-box complementarity
instance, the unit-demand pair, the subadditive 4-box instance, the XOS lift,
and a small planted hardness family -- together with exactly what each solver
must return on them.  The theorem suites re-derive the structural results
(impulsive optimality under submodular costs, the discretize/Bernoullify
pipeline, the dummy-split and cancellation lemmas, the utility ordering
chain, class preservation) on seeded random instances from by-construction
class families; any counterexample is reported verbatim as instance JSON and
fails the suite.
"""
from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable

from .classes import validate_class
from .costs import (BudgetAdditiveCost, CoverageCost, HardnessCost, XosCost, _labels_of,
                    _masks_by_size, marginal_cost)
from .errors import DomainError
from .hardness import MAX_TRIALS, hardness_params, symmetric_impulsive_utility_exact
from .instances import (
    FiniteDistribution,
    Instance,
    example1,
    hardness_instance,
    random_instance,
    subadditive4,
    unit_demand_pair,
    xos_lift_of,
)
from .rationals import rat
from .serialize import dumps_instance
from .solvers import (
    optimal_adaptive,
    optimal_fixed_order,
    optimal_impulsive,
    reservation_value,
    weitzman,
)
from .strategies import (
    ImpulsiveStrategy,
    PolicyTree,
    eval_impulsive,
    marginal_utility,
    pq_of,
)
from .transforms import check_preservation

ZERO = Fraction(0)

# provenance vocabulary: "published" values appear verbatim in the source
# material; "recomputed:<oracle>" names the independent derivation that
# produced the number.
PUBLISHED = "published"


@dataclass(frozen=True)
class Expectation:
    """One frozen solver outcome: utility `value` from solver class `solver`."""

    solver: str
    value: Fraction
    provenance: str


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    build: Callable[[], Instance]
    expected: tuple[Expectation, ...]
    checks: tuple[Callable[[Instance], tuple[bool, str, str]], ...] = ()


@dataclass(frozen=True)
class CheckResult:
    entry: str
    kind: str
    passed: bool
    expected: str
    got: str
    provenance: str

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CorpusReport:
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "results": [r.to_json() for r in self.results],
        }


# ---------------------------------------------------------------------------
# the entries
# ---------------------------------------------------------------------------

def _claim_b1_tree() -> PolicyTree:
    halt = PolicyTree.halt()
    return PolicyTree.open(1, {
        10: PolicyTree.open(2, {12: halt, 0: halt}),
        0: PolicyTree.open(3, {10: halt}),
    })


def _check_example1_tree(instance: Instance):
    _, tree = optimal_adaptive(instance)
    want = _claim_b1_tree()
    return tree == want, "open 1; on 10 open 2, otherwise open 3", repr(tree)


def _check_strict_adaptive_gap(instance: Instance):
    ua, _ = optimal_adaptive(instance)
    uf, _ = optimal_fixed_order(instance)
    return ua > uf, "adaptive > fixed_order", f"{ua} vs {uf}"


def _check_weitzman_rejected(instance: Instance):
    try:
        weitzman(instance)
    except DomainError as exc:
        return True, "DomainError", f"DomainError: {exc}"
    return False, "DomainError", "no error raised"


def _check_negative_reservation(instance: Instance):
    z = reservation_value(instance.box(1), 1)
    return z == Fraction(-1), "-1", str(z)


def _check_subadditive_not_submodular(instance: Instance):
    sub = validate_class(instance.cost, "subadditive")
    mod = validate_class(instance.cost, "submodular")
    ok = sub.passed and not mod.passed
    return ok, "subadditive pass / submodular fail", (
        f"subadditive={sub.passed} submodular={mod.passed} "
        f"witness={mod.witness}"
    )


def _check_xos_certificate(instance: Instance):
    cost = instance.cost
    if not isinstance(cost, XosCost):
        return False, "XosCost", type(cost).__name__
    f = example1().cost
    big = 3 * f.eval((1, 2, 3))   # 60

    def reference(S):
        if not S:
            return ZERO
        return big + f.eval(S - {0})

    ok, witness = cost.matches(reference)
    frozen = cost.eval((0,)) == 60 and cost.eval((0, 2, 3)) == 80
    return ok and frozen, "max-of-clauses == 60*1{S nonempty} + f(S-0)", (
        f"matches={ok} witness={witness and sorted(witness)} "
        f"g(0)={cost.eval((0,))} g(0,2,3)={cost.eval((0, 2, 3))}"
    )


def _check_hardness_planted_utility(instance: Instance):
    params = hardness_params(6, alpha=4, beta=1)
    want = symmetric_impulsive_utility_exact(params, 4, "planted_subsetR")
    got = eval_impulsive(instance, (1, 2, 3, 4))
    return got == want, str(want), str(got)


def _check_hardness_agreement(instance: Instance):
    # n < 2*alpha - beta here, so the planted and baseline oracles agree
    # exactly on the sets meeting R in at most beta boxes
    c_0, c_r = HardnessCost(6, 4).table(), instance.cost.table()
    in_R = sum(1 << instance.labels.index(b) for b in instance.cost.R)
    for mask in _masks_by_size(6):
        if (c_0[mask] == c_r[mask]) != ((mask & in_R).bit_count() <= 1):
            return False, "agree iff |S & R| <= beta", f"failed at {_labels_of(mask, instance.labels)}"
    return True, "agree iff |S & R| <= beta", "64/64 subsets"


ENTRIES: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        name="example1",
        build=example1,
        expected=(
            Expectation("adaptive", rat("21/2"), "recomputed:policy-dp"),
            Expectation("fixed_order", rat(10), "recomputed:order-scan"),
        ),
        checks=(_check_example1_tree, _check_strict_adaptive_gap),
    ),
    CorpusEntry(
        name="unit_demand_pair",
        build=unit_demand_pair,
        expected=(
            Expectation("impulsive", rat("1/9"), PUBLISHED),
            Expectation("adaptive", rat("1/9"), "recomputed:policy-dp"),
        ),
        checks=(_check_weitzman_rejected, _check_negative_reservation),
    ),
    CorpusEntry(
        name="subadditive4",
        build=subadditive4,
        expected=(
            Expectation("adaptive", rat("4253/120"), "recomputed:policy-dp"),
        ),
        checks=(_check_strict_adaptive_gap, _check_subadditive_not_submodular),
    ),
    CorpusEntry(
        name="xos_lift_example1",
        build=lambda: xos_lift_of(example1()),
        expected=(),
        checks=(_check_strict_adaptive_gap, _check_xos_certificate),
    ),
    CorpusEntry(
        name="hardness_planted_n6",
        build=lambda: hardness_instance(6, "planted", alpha=4, beta=1),
        expected=(),
        checks=(_check_hardness_planted_utility, _check_hardness_agreement),
    ),
)

_SOLVERS = {
    "adaptive": lambda inst: optimal_adaptive(inst)[0],
    "fixed_order": lambda inst: optimal_fixed_order(inst)[0],
    "impulsive": lambda inst: optimal_impulsive(inst)[0],
    "weitzman": lambda inst: weitzman(inst)[0],
}


def run_corpus() -> CorpusReport:
    """Re-derive every frozen expectation and structural check, exactly."""
    results = []
    for entry in ENTRIES:
        instance = entry.build()
        for exp in entry.expected:
            got = _SOLVERS[exp.solver](instance)
            results.append(CheckResult(
                entry=entry.name,
                kind=f"solver:{exp.solver}",
                passed=got == exp.value,
                expected=str(exp.value),
                got=str(got),
                provenance=exp.provenance,
            ))
        for check in entry.checks:
            ok, expected, got = check(instance)
            results.append(CheckResult(
                entry=entry.name,
                kind="check:" + check.__name__.removeprefix("_check_"),
                passed=ok,
                expected=expected,
                got=got,
                provenance=PUBLISHED,
            ))
    return CorpusReport(tuple(results))


# ---------------------------------------------------------------------------
# theorem suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteReport:
    theorem: str
    trials: int
    seed: int
    failures: tuple
    note: str

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "trials": self.trials,
            "seed": self.seed,
            "passed": self.passed,
            "failures": [dict(f) for f in self.failures],
            "note": self.note,
        }


def _fail(failures, trial, check, detail, instance=None):
    record = {"trial": trial, "check": check, "detail": detail}
    if instance is not None:
        record["instance"] = dumps_instance(instance, indent=None)
    failures.append(record)


_BERNOULLI_FAMILIES = ("bernoulli_coverage", "bernoulli_tree", "bernoulli_hardness")


def _t31_trial(rng: random.Random, t: int, failures: list) -> None:
    n = 6 if t % 40 == 39 else rng.randint(2, 5)
    family = _BERNOULLI_FAMILIES[t % 3]
    inst = random_instance(family, n, rng.getrandbits(32))
    rep = validate_class(inst.cost, "submodular")
    if not rep.passed:
        _fail(failures, t, "generator-submodular", str(rep.witness), inst)
        return
    ua, _ = optimal_adaptive(inst)
    ui, _ = optimal_impulsive(inst)
    if ua != ui:
        _fail(failures, t, "impulsive==adaptive", f"adaptive {ua} != impulsive {ui}", inst)


def _t44_trial(rng: random.Random, t: int, failures: list) -> None:
    n = rng.randint(2, 5)
    inst = random_instance("general_coverage", n, rng.getrandbits(32))
    ua, _ = optimal_adaptive(inst)
    uf, _ = optimal_fixed_order(inst)
    if ua != uf:
        _fail(failures, t, "fixed==adaptive",
              f"adaptive {ua} != fixed_order {uf}", inst)


def _l35_trial(rng: random.Random, t: int, failures: list) -> None:
    # pi_A keeps every slot of pi with the B boxes downgraded to dummies
    # (they still halt with probability p_i, but are never opened), and
    # vice versa; that is the split the inequality is about
    n = rng.randint(3, 5)
    family = ("bernoulli_coverage", "bernoulli_tree")[t % 2]
    inst = random_instance(family, n, rng.getrandbits(32))
    labels = list(inst.labels)
    r = labels[rng.randrange(n)]
    rest = [b for b in labels if b != r]
    size = rng.randint(0, len(rest))
    order = tuple(rng.sample(rest, size))
    in_a = [rng.random() < 0.5 for _ in order]
    A = frozenset(b for b, flag in zip(order, in_a) if flag)
    B = frozenset(order) - A
    pi = ImpulsiveStrategy(order)
    pi_a = ImpulsiveStrategy(order, A)
    pi_b = ImpulsiveStrategy(order, B)
    lhs = marginal_utility("N", pi, r, inst)
    rhs = (marginal_utility("N", pi_a, r, inst, B)
           + marginal_utility("N", pi_b, r, inst))
    if not lhs <= rhs:
        _fail(failures, t, "dummy-split",
              f"u_N({order}) = {lhs} > {rhs} with A={sorted(A)}, B={sorted(B)}, r={r}", inst)
    p_pi, _ = pq_of(pi, inst)
    p_a, _ = pq_of(pi_a, inst)
    p_b, _ = pq_of(pi_b, inst)
    if p_pi != p_a + p_b:
        _fail(failures, t, "p-additivity",
              f"p(pi)={p_pi} != p(pi_A)+p(pi_B)={p_a + p_b}", inst)


_CANCEL_FAMILIES = ("bernoulli_coverage", "bernoulli_tree", "bernoulli_hardness",
                    "general_coverage", "additive", "explicit_subadditive")


def _cancellation_trial(rng: random.Random, t: int, failures: list) -> None:
    n = rng.randint(2, 6)
    family = _CANCEL_FAMILIES[t % len(_CANCEL_FAMILIES)]
    inst = random_instance(family, n, rng.getrandbits(32))
    cost = inst.cost
    labels = list(inst.labels)
    h, ell = rng.sample(labels, 2)
    others = [b for b in labels if b not in (h, ell)]
    T = frozenset(b for b in others if rng.random() < 0.5)
    lhs = (marginal_cost(cost, {h}, T | {ell}) - marginal_cost(cost, {ell}, T | {h}))
    rhs = marginal_cost(cost, {h}, T) - marginal_cost(cost, {ell}, T)
    if lhs != rhs:
        _fail(failures, t, "cancellation",
              f"h={h}, l={ell}, T={sorted(T)}: {lhs} != {rhs}", inst)


def _partition_matroid_instance(n: int, seed: int) -> Instance:
    # unit-weight coverage with disjoint groups = a partition-matroid rank,
    # which is both MRF and gross-substitutes by construction
    sub = random.Random(seed)
    labels = list(range(1, n + 1))
    sub.shuffle(labels)
    groups = []
    while labels:
        k = sub.randint(1, len(labels))
        groups.append(labels[:k])
        labels = labels[k:]
    cost = CoverageCost(range(1, n + 1), [(1, g) for g in groups])
    boxes = random_instance("bernoulli_coverage", n, seed).boxes
    return Instance(boxes, cost, cost_class="matroid_rank")


def _rand_xos_instance(n: int, seed: int) -> Instance:
    sub = random.Random(seed)
    ground = list(range(1, n + 1))
    clauses = []
    for _ in range(sub.randint(1, 3)):
        clause = {b: Fraction(sub.randint(1, 8), sub.randint(1, 3))
                  for b in ground if sub.random() < 0.7}
        clauses.append(clause)
    cost = XosCost(ground, clauses)
    boxes = random_instance("general_coverage", n, seed).boxes
    return Instance(boxes, cost, cost_class="xos")


def budget_counterexample() -> Instance:
    """Three two-valued boxes under min(|S|, 2): the lift is provably not
    budget-additive (the two copies of one box sum past the singleton cost)."""
    box = FiniteDistribution({0: rat("1/2"), 1: rat("1/4"), 2: rat("1/4")})
    cost = BudgetAdditiveCost({1: 1, 2: 1, 3: 1}, 2)
    return Instance([box] * 3, cost, cost_class="submodular")


def _preservation_trial(rng: random.Random, t: int, failures: list) -> None:
    kind = t % 6
    seed = rng.getrandbits(32)
    if kind == 0:
        inst = random_instance("general_coverage", rng.randint(2, 3), seed)
        expect_pass = [("coverage", inst), ("submodular", inst)]
    elif kind == 1:
        inst = random_instance("bernoulli_tree", rng.randint(2, 4), seed)
        expect_pass = [("submodular", inst)]
    elif kind == 2:
        inst = _partition_matroid_instance(rng.randint(2, 4), seed)
        expect_pass = [("matroid_rank", inst), ("gross_substitutes", inst)]
    elif kind == 3:
        inst = _rand_xos_instance(rng.randint(2, 3), seed)
        expect_pass = [("xos", inst)]
    elif kind == 4:
        inst = random_instance("explicit_subadditive", rng.randint(2, 3), seed)
        expect_pass = [("subadditive", inst)]
    else:
        inst = budget_counterexample()
        report = check_preservation(inst, "budget_additive")
        if report.passed:
            _fail(failures, t, "budget-additive-counterexample",
                  "lift certified budget-additive, but it must not be", inst)
        return
    for cls, instance in expect_pass:
        report = check_preservation(instance, cls)
        if not report.passed:
            _fail(failures, t, f"preserve-{cls}", str(report.witness), instance)


def _chain_trial(rng: random.Random, t: int, failures: list) -> None:
    n = rng.randint(2, 5)
    family = _BERNOULLI_FAMILIES[t % 3]
    inst = random_instance(family, n, rng.getrandbits(32))
    labels = list(inst.labels)
    r = labels[rng.randrange(n)]
    rest = [b for b in labels if b != r]
    size = rng.randint(0, len(rest))
    order = tuple(rng.sample(rest, size))
    opened = frozenset(b for b in order if rng.random() < 0.7)
    strat = ImpulsiveStrategy(order, opened)
    free = [b for b in rest if b not in opened]
    T = frozenset(b for b in free if rng.random() < 0.3)
    u_n = marginal_utility("N", strat, r, inst, T)
    u_y = marginal_utility("Y", strat, r, inst, T)
    u_m = marginal_utility("M", strat, r, inst, T)
    if not u_m <= u_y <= u_n:
        _fail(failures, t, "ordering-chain",
              f"u_M={u_m}, u_Y={u_y}, u_N={u_n} (r={r}, T={sorted(T)}, pi={order})", inst)
    p_open, _ = pq_of(strat, inst)
    v_r, _ = inst.bernoulli(r)
    if u_m != u_n - p_open * v_r:
        _fail(failures, t, "uM-identity",
              f"u_M={u_m} != u_N - p*v_r = {u_n - p_open * v_r}", inst)


_SUITES = {
    "T31": (_t31_trial,
            "Bernoulli + submodular cost: the impulsive optimum matches the adaptive optimum exactly"),
    "T44": (_t44_trial,
            "submodular costs, any finite support: fixed-order strategies match the adaptive optimum"),
    "L35": (_l35_trial,
            "dummy-split: u_N(pi) <= u_N(pi_A | B) + u_N(pi_B) for submodular costs"),
    "cancellation": (_cancellation_trial,
                     "c(h|T+l) - c(l|T+h) == c(h|T) - c(l|T) for every cost function"),
    "preservation": (_preservation_trial,
                     "cost classes survive Bernoullification, except budget-additive"),
    "chain": (_chain_trial, "u_M <= u_Y <= u_N, and u_M = u_N - p*v_r"),
}

THEOREMS = tuple(_SUITES)


def run_theorem_suite(theorem: str, trials: int, seed: int) -> SuiteReport:
    """Seeded randomized verification; identical seeds give identical reports."""
    if theorem not in _SUITES:
        raise DomainError(f"unknown theorem {theorem!r}; choose from {THEOREMS}")
    if not 1 <= trials <= MAX_TRIALS:
        raise DomainError(f"need at least one trial and at most {MAX_TRIALS}, got {trials}")
    rng = random.Random(seed)
    failures: list[dict] = []
    runner, note = _SUITES[theorem]
    for t in range(trials):
        runner(rng, t, failures)
    return SuiteReport(
        theorem=theorem,
        trials=trials,
        seed=seed,
        failures=tuple(failures),
        note=note,
    )
