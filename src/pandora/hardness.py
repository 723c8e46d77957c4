"""The query-complexity lab: symmetric Bernoulli boxes under min-rank costs.

Everything here orbits one family: n identical boxes worth M = 5*beta with
probability 1/alpha, priced either by the baseline cost min(|S|, alpha) or a
planted variant min(|S|, alpha, beta + |S - R|) that is cheaper only inside a
hidden alpha-subset R.  The family's headline property -- no positive-utility
strategy exists without knowing R, yet every R admits one -- is verified by
closed forms over all symmetric impulsive strategies; the query-distinguishing
experiment measures how often cost queries can tell the two oracles apart.
The integer parameters alpha and beta are exact ceilings of irrational
numbers, read off rational brackets built from the standard library alone:
decimal's correctly rounded ln for ln n and math.isqrt for sqrt n.

The asymptotic regime in which the distinguishing probability becomes
super-polynomially small needs n far beyond astronomical (the constants want
roughly n > e^310), so the lab verifies the finite building blocks exactly
(per-query agreement combinatorics, counting, family utilities) instead of
the asymptotic headline; reports say so explicitly.
"""
from __future__ import annotations

import decimal
import math
import random
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .costs import HardnessCost, QueryCountingOracle
from .errors import DomainError

BANNER = (
    "the asymptotic indistinguishability regime is not desk-reproducible; "
    "this report verifies the finite building blocks exactly"
)

MAX_BUDGET = 10 ** 6
MAX_TRIALS = 10 ** 5
MAX_N = 10 ** 6
# labels the builtin algorithm draws per trial (budget sets of alpha labels);
# a drawn label holds 75-140 bytes inside its frozenset, so one trial's query
# sets stay near 100 MB
MAX_QUERY_LABELS = 700_000


def _ln_bracket(n: int, digits: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Two (numerator, denominator) pairs lo < ln n < hi from decimal's ln at
    `digits` significant digits.

    The decimal spec rounds ln correctly (within half an ulp), so the true
    value lies strictly between the rounded result's two neighbours.
    """
    ctx = decimal.Context(prec=digits)
    ln = ctx.ln(decimal.Decimal(n))
    return ctx.next_minus(ln).as_integer_ratio(), ctx.next_plus(ln).as_integer_ratio()


def _ceilings_at(ln: tuple[int, int], root: int, digits: int) -> tuple[int, int]:
    """(ceil(ln * root / 10^digits / 5), ceil(ln^2 / 5)) for ln = num / den."""
    num, den = ln
    return -(-num * root // (5 * den * 10 ** digits)), -(-num * num // (5 * den * den))


def _derived_ceilings(n: int) -> tuple[int, int]:
    """(ceil(ln n * sqrt n / 5), ceil(ln^2 n / 5)) for n >= 3, exactly.

    Both expressions increase in ln n and sqrt n, so their values at the two
    ends of the bracket -- ln n from `_ln_bracket`, sqrt n within
    [r, r + 1) / 10^d for r = isqrt(n * 10^(2d)) -- have the true ceilings
    once their ceilings agree; d doubles until they do.  Each ceiling is then
    back-substituted against an ln bracket at a higher precision, squared so
    that no square root enters (alpha - 1 < ln n sqrt n / 5 < alpha iff
    25 (alpha - 1)^2 < n ln^2 n < 25 alpha^2); AssertionError if that fails,
    also under -O.
    """
    # alpha has about half as many digits as n; decimal's ln slows down
    # steeply with precision, so start there plus guard digits
    digits = n.bit_length() // 6 + 12
    for _ in range(4):
        lo, hi = _ln_bracket(n, digits)
        root = math.isqrt(n * 100 ** digits)
        ceilings = _ceilings_at(lo, root, digits)
        if ceilings == _ceilings_at(hi, root + 1, digits):
            break
        digits *= 2
    else:
        raise AssertionError(f"ceilings for n = {n} did not stabilize")
    alpha, beta = ceilings
    (lo, lo_den), (hi, hi_den) = _ln_bracket(n, digits + 10)
    if not (25 * (alpha - 1) ** 2 * lo_den ** 2 < n * lo ** 2
            and n * hi ** 2 < 25 * alpha ** 2 * hi_den ** 2):
        raise AssertionError("ceiling back-substitution failed for alpha")
    if not (5 * (beta - 1) * lo_den ** 2 < lo ** 2 and hi ** 2 < 5 * beta * hi_den ** 2):
        raise AssertionError("ceiling back-substitution failed for beta")
    return alpha, beta


@dataclass(frozen=True)
class HardnessParams:
    """n with its derived (alpha, beta, M, p); recomputed per call, never cached."""

    n: int
    alpha: int
    beta: int
    M: int
    p: Fraction

    @property
    def q(self) -> Fraction:
        return 1 - self.p


def hardness_params(n: int, *, alpha: int | None = None,
                    beta: int | None = None) -> HardnessParams:
    """alpha = ceil(ln n * sqrt(n) / 5), beta = ceil(ln^2 n / 5), M = 5*beta,
    p = 1/alpha.

    The ceilings are exact for every n >= 3: both are read off a rational
    bracket of ln n (decimal's correctly rounded ln, widened to its
    neighbours) and of sqrt n (math.isqrt of n * 10^(2d)), and re-checked at
    a higher precision.  Explicit alpha/beta overrides skip the formulas
    (used for small-n exhaustive testing)."""
    if alpha is None or beta is None:
        if n < 3:
            raise DomainError(f"derived parameters need n >= 3, got {n}")
        derived = _derived_ceilings(n)
        alpha = derived[0] if alpha is None else alpha
        beta = derived[1] if beta is None else beta
    if not 1 <= alpha <= n:
        raise DomainError(f"need 1 <= alpha <= n, got alpha = {alpha}")
    if not 0 < beta < alpha:
        raise DomainError(f"need 0 < beta < alpha, got beta = {beta}, alpha = {alpha}")
    return HardnessParams(n=n, alpha=alpha, beta=beta, M=5 * beta,
                          p=Fraction(1, alpha))


def _cost_cap(params: HardnessParams, s: int, variant: str) -> int:
    """The cost cap m of `variant`, once s is checked to be a size it can open."""
    if variant == "baseline":
        m = params.alpha
    elif variant == "planted_subsetR":
        m = params.beta
    else:
        raise DomainError(f"variant must be baseline or planted_subsetR, got {variant!r}")
    if not 0 <= s <= params.n:
        raise DomainError(f"need 0 <= s <= n, got s = {s}")
    if variant == "planted_subsetR" and s > params.alpha:
        raise DomainError(f"planted strategies open inside R: s <= alpha = {params.alpha}")
    return m


def _float_utility(params: HardnessParams, s: int, k: int) -> float:
    """u(s) in floats via libm's expm1/log1p, k = min(s, m): the one float form,
    behind symmetric_impulsive_utility and verify_family's scan."""
    if s == 0:
        return 0.0
    lq = math.log1p(-1.0 / params.alpha)
    hit = -math.expm1(s * lq)        # 1 - q^s
    cost = -math.expm1(k * lq) * params.alpha
    return params.M * hit - cost


def symmetric_impulsive_utility(params: HardnessParams, s: int,
                                variant: str = "baseline") -> float:
    """Expected utility of impulsively opening s symmetric boxes, closed form.

    Halting at the first success, the expected cost telescopes to the clean
    identity E[min(#opened, m)] = (1 - q^k)/p with k = min(s, m), where m is
    the cost cap (alpha on the baseline, beta when opening inside the planted
    R).  Hence

        u(s) = M * (1 - q^s) - (1 - q^k)/p.

    Evaluated in floats via expm1/log1p (exact rational twin:
    symmetric_impulsive_utility_exact).
    """
    return _float_utility(params, s, min(s, _cost_cap(params, s, variant)))


def symmetric_impulsive_utility_exact(params: HardnessParams, s: int,
                                      variant: str = "baseline") -> Fraction:
    """Rational twin of the closed form (cost grows with s; meant for s <= ~30
    cross-checks and small-n exhaustive runs)."""
    k = min(s, _cost_cap(params, s, variant))
    if s == 0:
        return Fraction(0)
    q = params.q
    return params.M * (1 - q ** s) - (1 - q ** k) / params.p


@dataclass(frozen=True)
class FamilyReport:
    """verify_family's findings: regime flags, the s-scan, per-case margins."""

    n: int
    alpha: int
    beta: int
    M: int
    regime: dict
    verdict: str                      # "pass" | "violation" | "regime not reached"
    max_baseline_utility: float       # over s >= 1
    argmax_s: int
    planted_utility: float            # opening all of R
    planted_lower_bound: float        # 5*beta*(1 - 1/e) - beta
    cases: tuple
    violations: tuple
    note: str

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "regime": dict(self.regime), "cases": [dict(c) for c in self.cases],
            "violations": list(self.violations), "banner": BANNER}


def verify_family(n: int, *, alpha: int | None = None,
                  beta: int | None = None) -> FamilyReport:
    """Scan every symmetric impulsive strategy size s on the baseline cost.

    Symmetry is what makes the scan exhaustive: all boxes are identical, so
    some optimal strategy is impulsive and is determined by how many boxes it
    is prepared to open; utilities depend on s alone.  The report records the
    utility maximum (must stay < 0 for s >= 1), the planted strategy's
    utility (must be > 0), and for each proof case the minimum margin between
    the case's bound and the actual utilities it covers.  n is capped at
    MAX_N: the scan holds one utility per size.
    """
    if n > MAX_N:
        raise DomainError(f"n must be at most {MAX_N}, got {n}")
    params = hardness_params(n, alpha=alpha, beta=beta)
    a, b, M = params.alpha, params.beta, params.M
    regime = {
        "alpha_gt_20beta": a > 20 * b,
        "alpha_gt_26beta": a > 26 * b,
    }
    in_regime = all(regime.values())

    u = [_float_utility(params, size, min(size, a)) for size in range(n + 1)]
    argmax = max(range(1, n + 1), key=u.__getitem__)
    planted = symmetric_impulsive_utility(params, a, "planted_subsetR")
    lower = 5 * b * (1 - 1 / math.e) - b

    # each proof case with its bound and the contiguous sizes s it covers;
    # case3's bound (s/alpha)*(26beta-alpha) varies with s
    proof_cases = (
        ("case1:s>=alpha", 5 * b - a / 4.0, range(a, n + 1)),
        ("case2:21beta<=s<alpha", -b / 4.0, range(21 * b, a)),
        ("case3:0<s<21beta", None, range(1, min(21 * b, a))),
        ("case4:s=0", 0.0, range(0, 1)),
    )
    cases = []
    for name, bound, sizes in proof_cases:
        if not sizes:
            continue
        if bound is None:
            margins = [(size / a) * (26 * b - a) - u[size] for size in sizes]
        else:
            margins = [bound - u[size] for size in sizes]
        low = min(margins)
        cases.append({
            "case": name, "count": len(sizes),
            "bound": "varies (s/alpha)*(26beta-alpha)" if bound is None else bound,
            "min_margin": low, "min_margin_s": sizes[margins.index(low)],
        })
    violations = [size for size in range(1, n + 1) if u[size] >= 0]

    if violations:
        verdict = "violation" if in_regime else "regime not reached"
    elif not in_regime:
        verdict = "regime not reached"
    elif planted <= 0:
        verdict = "violation"
    else:
        verdict = "pass"

    return FamilyReport(
        n=n, alpha=a, beta=b, M=M,
        regime=regime,
        verdict=verdict,
        max_baseline_utility=u[argmax],
        argmax_s=argmax,
        planted_utility=planted,
        planted_lower_bound=lower,
        cases=tuple(cases),
        violations=tuple(violations),
        note=("identical boxes admit an impulsive symmetric optimum, "
              "so the s-scan covers every strategy"),
    )


def hypergeometric_tail(n: int, alpha: int, beta: int) -> Fraction:
    """P(|S cap R| > beta) for independent uniform alpha-subsets S, R of [n].

    Exact: sum_{k > beta} t_k / C(n, alpha) with t_k = C(alpha, k) C(n - alpha,
    alpha - k).  The t_k are nonzero for k0 = max(0, 2 alpha - n) <= k <= alpha
    and sum to C(n, alpha), so only the shorter side of beta is summed, each
    term from its neighbour by their exact integer ratio: down from
    t_alpha = 1, or up from t_k0 with the sum taken from C(n, alpha).
    """
    total = math.comb(n, alpha)
    k0 = max(0, 2 * alpha - n)
    m = n - 2 * alpha
    if alpha - beta <= beta - k0 + 1:
        hits, t = 0, 1
        for k in range(alpha, beta, -1):
            hits += t
            t = t * k * (m + k) // (alpha - k + 1) ** 2
    else:
        hits, t = total, math.comb(alpha, k0) * math.comb(n - alpha, alpha - k0)
        for k in range(k0, beta + 1):
            hits -= t
            t = t * (alpha - k) ** 2 // ((k + 1) * (m + k + 1))
    return Fraction(hits, total)


@dataclass(frozen=True)
class DistinguishTrial:
    """One replay: the hidden R, the query path, and both oracles' answers."""

    seed: int
    budget: int
    R: frozenset
    transcript: tuple = field(default_factory=tuple)

    @property
    def distinguishing(self) -> bool:
        return any(got != want for _, want, got in self.transcript)


def replay_trial(n: int, alpha: int, beta: int, R, queries,
                 seed: int = 0) -> DistinguishTrial:
    """Run one explicit query list against (c0, c_R), keeping the transcript.

    The transcript holds (S, c0 answer, c_R answer) per query; the c_R side
    goes through a QueryCountingOracle whose final count must equal the
    query-list length (the counting machinery is part of what the lab is
    expected to prove out); AssertionError otherwise, also under -O.
    """
    c0 = HardnessCost(n, alpha)
    counted = QueryCountingOracle(HardnessCost(n, alpha, beta, R))
    transcript = []
    queries = [frozenset(S) for S in queries]
    for S in queries:
        transcript.append((S, c0.eval(S), counted.eval(S)))
    if counted.count != len(queries):
        raise AssertionError(f"counted {counted.count} queries, issued {len(queries)}")
    return DistinguishTrial(seed=seed, budget=len(queries),
                            R=frozenset(R), transcript=tuple(transcript))


@dataclass(frozen=True)
class DistinguishReport:
    n: int
    alpha: int
    beta: int
    algorithm: str
    trials: int
    budget: int
    queries_per_trial: int
    distinguishing_count: int
    rate: float
    aborted_count: int
    query_count_ok: bool
    fixed_set_stats: tuple
    witness: dict | None
    banner: str = BANNER

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "fixed_set_stats": [dict(s) for s in self.fixed_set_stats]}


def distinguish_experiment(n: int, algorithm="random_uniform_alpha_sets",
                           budget: int = 100, trials: int = 1000,
                           seed: int = 0, *, alpha: int | None = None,
                           beta: int | None = None,
                           stats_sets: int = 5) -> DistinguishReport:
    """Replay a non-adaptive query algorithm against c_R for freshly planted R.

    `algorithm` is either the builtin name (each trial issues `budget`
    uniform random alpha-subsets) or a caller-provided list of query sets,
    replayed identically in every trial.  A trial is distinguishing when any
    query's c_R answer differs from c0's on the same set; for size-alpha
    queries that happens exactly when |S cap R| > beta.  Alongside the rate,
    the report compares, for fixed size-alpha sets, the empirical frequency
    of |S cap R| > beta with the exact hypergeometric tail (3-standard-error
    check).  Every trial runs through replay_trial, which enforces the query
    count against c_R (AssertionError on a miscount), so a returned report
    always has query_count_ok.  n is capped at MAX_N, and the builtin
    algorithm's budget * alpha at MAX_QUERY_LABELS.
    """
    if not 1 <= budget <= MAX_BUDGET:
        raise DomainError(f"budget must be in [1, {MAX_BUDGET}], got {budget}")
    if not 1 <= trials <= MAX_TRIALS:
        raise DomainError(f"trials must be in [1, {MAX_TRIALS}], got {trials}")
    if n > MAX_N:
        raise DomainError(f"n must be at most {MAX_N}, got {n}")
    params = hardness_params(n, alpha=alpha, beta=beta)
    a, b = params.alpha, params.beta
    labels = range(1, n + 1)

    if isinstance(algorithm, str):
        if algorithm != "random_uniform_alpha_sets":
            raise DomainError(f"unknown algorithm {algorithm!r}")
        if budget * a > MAX_QUERY_LABELS:
            raise DomainError(f"budget * alpha = {budget} * {a} exceeds the "
                              f"{MAX_QUERY_LABELS} labels one trial may draw")
        algo_name = algorithm
        declared: list[frozenset] | None = None
        per_trial = budget
        aborted = 0
    else:
        algo_name = "caller_query_list"
        declared = [frozenset(S) for S in algorithm]
        # each distinct label is checked once; `in` on a range is O(1) for ints
        stray = {x for x in frozenset().union(*declared) if x not in labels}
        for S in declared:
            if not stray.isdisjoint(S):
                raise DomainError(f"query {sorted(S)} outside 1..{n}")
        per_trial = min(len(declared), budget)
        aborted = trials if len(declared) > budget else 0   # every trial truncates alike

    master = random.Random(seed)
    if declared is None:
        fixed_sets = [frozenset(master.sample(labels, a)) for _ in range(stats_sets)]
    else:
        fixed_sets = [S for S in declared[:per_trial] if len(S) == a]
    fixed_hits = [0] * len(fixed_sets)

    distinguishing = 0
    witness: dict | None = None
    for t in range(trials):
        trial_seed = master.getrandbits(64)
        rng = random.Random(trial_seed)
        R = frozenset(rng.sample(labels, a))
        if declared is None:
            queries = [frozenset(rng.sample(labels, a)) for _ in range(per_trial)]
        else:
            queries = declared[:per_trial]
        trial = replay_trial(n, a, b, R, queries, seed=trial_seed)
        found = next(((S, want, got) for S, want, got in trial.transcript if got != want), None)
        if found is not None:
            distinguishing += 1
            if witness is None:
                S, want, got = found
                witness = {
                    "trial": t,
                    "seed": trial_seed,
                    "S": sorted(S),
                    "c0": str(want),
                    "cR": str(got),
                    "overlap": len(S & R),
                }
        for idx, S in enumerate(fixed_sets):
            if len(S & R) > b:
                fixed_hits[idx] += 1

    stats = []
    exact = float(hypergeometric_tail(n, a, b))
    for S, hits in zip(fixed_sets, fixed_hits):
        emp = hits / trials
        se3 = 3.0 * math.sqrt(max(exact * (1.0 - exact), 0.0) / trials)
        stats.append({
            "set_size": len(S),
            "empirical": emp,
            "exact_tail": exact,
            "abs_diff": abs(emp - exact),
            "three_stderr": se3,
            "within": abs(emp - exact) <= se3 or trials * exact < 1e-12,
        })

    return DistinguishReport(
        n=n, alpha=a, beta=b,
        algorithm=algo_name,
        trials=trials,
        budget=budget,
        queries_per_trial=per_trial,
        distinguishing_count=distinguishing,
        rate=distinguishing / trials,
        aborted_count=aborted,
        query_count_ok=True,
        fixed_set_stats=tuple(stats),
        witness=witness,
    )
