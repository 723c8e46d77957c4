"""Release gate: ten frozen end-to-end criteria, one test (= one verbose
pass/fail line) per criterion.  Each test asserts its own wall-clock budget.

Everything here is exact rational arithmetic except the hardness lab
(criteria 9-10), which works in floats at n = 10^5 with a 1e-6 tolerance and
an exact cross-check on the small-s prefix.
"""
import math
import random
import time
from fractions import Fraction

from pandora.corpus import budget_counterexample, run_theorem_suite
from pandora.classes import validate_class
from pandora.costs import HardnessCost, XosCost
from pandora.hardness import (distinguish_experiment, hardness_params,
                              hypergeometric_tail, symmetric_impulsive_utility,
                              symmetric_impulsive_utility_exact, verify_family)
from pandora.instances import (example1, random_instance, subadditive4,
                               unit_demand_pair, xos_lift_of)
from pandora.solvers import (optimal_adaptive, optimal_fixed_order,
                             optimal_impulsive, reservation_value, weitzman)
from pandora.strategies import PolicyTree
from pandora.transforms import bernoullify, check_preservation, discretize


def test_criterion_01_worked_example_reproduction():
    """Three boxes, coverage-style cost: adaptive 21/2, fixed-order 10, and
    the canonical optimal tree is 'open 1; on 10 open 2, otherwise open 3'."""
    t0 = time.perf_counter()
    inst = example1()
    ua, tree = optimal_adaptive(inst)
    uf, _ = optimal_fixed_order(inst)
    assert ua == Fraction(21, 2)
    assert uf == Fraction(10)
    assert ua > uf                       # the gap is strict, exactly
    halt = PolicyTree.halt()
    assert tree == PolicyTree.open(1, {
        10: PolicyTree.open(2, {12: halt, 0: halt}),
        0: PolicyTree.open(3, {10: halt}),
    })
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_unit_demand_pair():
    """Two 2-w.p.-1/3 boxes under a pay-once cost: the best impulsive run
    earns 2*(5/9) - 1 = 1/9, yet every reservation value is negative, so
    index-based reasoning would open nothing."""
    t0 = time.perf_counter()
    inst = unit_demand_pair()
    u, _ = optimal_impulsive(inst)
    assert u == Fraction(1, 9) == 2 * Fraction(5, 9) - 1
    for b in inst.labels:
        assert reservation_value(inst.box(b), 1) < 0
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_impulsive_matches_adaptive_bernoulli_submodular():
    """200 random Bernoulli instances (n <= 6, coverage / tree-closure /
    hardness costs, validator-confirmed submodular): the impulsive optimum
    equals the adaptive optimum, exact rational equality, 200/200."""
    t0 = time.perf_counter()
    rep = run_theorem_suite("T31", 200, 42)
    assert rep.trials == 200
    assert rep.failures == ()
    assert rep.passed
    assert time.perf_counter() - t0 < 120.0


def test_criterion_04_fixed_order_matches_adaptive_submodular():
    """100 random finite-support instances (<= 3 atoms/box, n <= 5,
    submodular coverage costs): the fixed-order optimum equals the adaptive
    optimum, exact rational equality, 100/100."""
    t0 = time.perf_counter()
    rep = run_theorem_suite("T44", 100, 42)
    assert rep.trials == 100
    assert rep.failures == ()
    assert rep.passed
    assert time.perf_counter() - t0 < 300.0


def test_criterion_05_strict_adaptivity_gap_witnesses():
    """Strict adaptive-vs-fixed gaps: (a) the XOS lift of the worked example,
    with its max-of-clauses certificate consistent on every subset; (b) the
    four-box instance whose cost passes subadditive and fails submodular."""
    t0 = time.perf_counter()

    lifted = xos_lift_of(example1())
    g, f = lifted.cost, example1().cost
    assert isinstance(g, XosCost)        # the clause list is the certificate
    big = 3 * f.eval((1, 2, 3))
    ok, witness = g.matches(
        lambda S: Fraction(0) if not S else big + f.eval(S - {0}))
    assert ok, witness
    assert g.eval((0,)) == 60 and g.eval((0, 2, 3)) == 80
    ua, _ = optimal_adaptive(lifted)
    uf, _ = optimal_fixed_order(lifted)
    assert ua > uf

    sub4 = subadditive4()
    assert validate_class(sub4.cost, "subadditive").passed
    assert not validate_class(sub4.cost, "submodular").passed
    ua, _ = optimal_adaptive(sub4)
    uf, _ = optimal_fixed_order(sub4)
    assert ua > uf

    assert time.perf_counter() - t0 < 30.0


def test_criterion_06_dummy_split_and_cancellation():
    """500 random (instance, impulsive pi, partition A|B) triples satisfy
    u_N(pi) <= u_N(pi_A | B) + u_N(pi_B) exactly; 1000 random marginal-cost
    cancellation identities hold exactly."""
    t0 = time.perf_counter()
    rep = run_theorem_suite("L35", 500, 42)
    assert rep.trials == 500 and rep.failures == ()
    rep = run_theorem_suite("cancellation", 1000, 42)
    assert rep.trials == 1000 and rep.failures == ()
    assert time.perf_counter() - t0 < 60.0


def test_criterion_07_transformation_pipeline():
    """On 100 random instances: opt(discretize_eps(I)) <= opt(I) <=
    opt(discretize_eps(I)) + 2*eps, and Bernoullification preserves the
    optimum exactly.  Class preservation holds for submodular / coverage /
    XOS / subadditive / matroid-rank / gross-substitutes lifts, and the
    three-box budget-additive counterexample is certified non-representable
    by the bounded search."""
    t0 = time.perf_counter()
    rng = random.Random(2024)
    fams = ("general_coverage", "additive", "explicit_subadditive")
    for k in range(100):
        inst = random_instance(fams[k % 3], rng.randint(1, 3), rng.getrandbits(32))
        eps = Fraction(rng.randint(1, 8), 4)
        u = optimal_adaptive(inst)[0]
        u_eps = optimal_adaptive(discretize(inst, eps))[0]
        assert u_eps <= u <= u_eps + 2 * eps
        lifted, _ = bernoullify(inst)
        assert optimal_adaptive(lifted)[0] == u

    rep = run_theorem_suite("preservation", 100, 42)
    assert rep.trials == 100 and rep.failures == ()

    rep = check_preservation(budget_counterexample(), "budget_additive")
    assert not rep.passed
    assert rep.witness is not None       # the refutation is explicit

    assert time.perf_counter() - t0 < 300.0


def test_criterion_08_weitzman_cross_check():
    """100 random additive instances (n <= 6): the reservation-value rule's
    utility equals the adaptive optimum, exact rational equality, 100/100."""
    t0 = time.perf_counter()
    rng = random.Random(88)
    for _ in range(100):
        inst = random_instance("additive", rng.randint(2, 6), rng.getrandbits(32))
        uw, _ = weitzman(inst)
        assert uw == optimal_adaptive(inst)[0]
    assert time.perf_counter() - t0 < 60.0


def test_criterion_09_hardness_family_at_scale():
    """n = 10^5 (alpha 729, beta 27, M 135): every symmetric impulsive
    strategy on the baseline cost loses money, while opening the planted R
    clears the 5*beta*(1 - 1/e) - beta ~ 58.33 lower bound.  Floats at 1e-6,
    exact rational cross-check for s <= 30."""
    t0 = time.perf_counter()
    rep = verify_family(100000)
    assert (rep.alpha, rep.beta, rep.M) == (729, 27, 135)
    assert rep.verdict == "pass"
    assert rep.violations == ()
    assert rep.max_baseline_utility < 0
    bound = 5 * 27 * (1 - 1 / math.e) - 27
    assert abs(rep.planted_lower_bound - bound) < 1e-12
    assert rep.planted_utility >= bound - 1e-6

    params = hardness_params(100000)
    for s in range(1, 31):
        for variant in ("baseline", "planted_subsetR"):
            f = symmetric_impulsive_utility(params, s, variant)
            e = symmetric_impulsive_utility_exact(params, s, variant)
            assert abs(f - float(e)) <= 1e-6
    assert time.perf_counter() - t0 < 60.0


def test_criterion_10_distinguishing_machinery():
    """n = 4096, 10^4 trials: the per-fixed-set frequency of |S & R| > beta
    sits within 3 Monte Carlo standard errors of the exact hypergeometric
    tail, and the per-trial query counts are exact.  At n = 16 the agreement
    condition is checked on all 2^16 subsets: below size alpha the oracles
    agree iff |S & R| <= beta; globally iff additionally |S \\ R| >= alpha-beta."""
    t0 = time.perf_counter()
    rep = distinguish_experiment(4096, budget=10, trials=10**4, seed=19)
    assert (rep.alpha, rep.beta) == (107, 14)
    assert rep.query_count_ok
    assert rep.queries_per_trial == 10
    assert "not desk-reproducible" in rep.banner
    exact = float(hypergeometric_tail(4096, 107, 14))
    assert rep.fixed_set_stats
    for stat in rep.fixed_set_stats:
        assert stat["exact_tail"] == exact
        assert stat["within"]

    alpha, beta = 5, 1
    R = frozenset({1, 3, 6, 10, 16})
    c0 = HardnessCost(16, alpha)
    cR = HardnessCost(16, alpha, beta, R)
    for mask in range(1 << 16):
        S = frozenset(b + 1 for b in range(16) if mask >> b & 1)
        agree = c0.eval(S) == cR.eval(S)
        inside, outside = len(S & R), len(S - R)
        assert agree == (inside <= beta or outside >= alpha - beta)
        if len(S) <= alpha:
            assert agree == (inside <= beta)
    assert time.perf_counter() - t0 < 120.0
