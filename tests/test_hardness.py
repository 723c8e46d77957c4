import hashlib
import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from scipy.stats import hypergeom

from pandora import (
    DomainError,
    HardnessParams,
    distinguish_experiment,
    hardness_params,
    hypergeometric_tail,
    replay_trial,
    symmetric_impulsive_utility,
    symmetric_impulsive_utility_exact,
    verify_family,
)


class TestParams:
    def test_frozen_large_n(self):
        p = hardness_params(100000)
        assert (p.alpha, p.beta, p.M) == (729, 27, 135)
        assert p.p == Fraction(1, 729)
        p = hardness_params(4096)
        assert (p.alpha, p.beta, p.M) == (107, 14, 70)

    def test_ceilings_really_are_ceilings(self):
        for n in (100, 4096, 100000, 10 ** 6):
            p = hardness_params(n)
            a_exact = math.log(n) * math.sqrt(n) / 5
            b_exact = math.log(n) ** 2 / 5
            assert p.alpha - 1 < a_exact < p.alpha + 1e-9
            assert p.beta - 1 < b_exact < p.beta + 1e-9

    def test_pinned_digest(self):
        # (alpha, beta) for every n in 3..20000 and a seeded sample up to 10^6,
        # recorded from the earlier mpmath interval-arithmetic implementation
        ns = [*range(3, 20001),
              *sorted(random.Random(20231).sample(range(20001, 10 ** 6 + 1), 3000))]
        digest = hashlib.sha256()
        for n in ns:
            try:
                p = hardness_params(n)
            except DomainError:
                digest.update(f"{n}:DomainError\n".encode())
            else:
                digest.update(f"{n}:{p.alpha}:{p.beta}\n".encode())
        assert digest.hexdigest() == (
            "2919eb021809117f525a0b04abaa2d30caec2d1f895d67d16d9f31230cc2f01e")

    @pytest.mark.parametrize("exponent", [30, 100, 200, 1000])
    def test_matches_mpmath_at_high_precision(self, exponent):
        n = 10 ** exponent
        p = hardness_params(n)
        with mpmath.mp.workdps(2 * exponent + 50):
            ln = mpmath.log(n)
            assert p.alpha == int(mpmath.ceil(ln * mpmath.sqrt(n) / 5))
            assert p.beta == int(mpmath.ceil(ln ** 2 / 5))

    def test_overrides(self):
        p = hardness_params(6, alpha=4, beta=1)
        assert p == HardnessParams(n=6, alpha=4, beta=1, M=5, p=Fraction(1, 4))

    def test_validation(self):
        with pytest.raises(DomainError, match="n >= 3"):
            hardness_params(2)
        with pytest.raises(DomainError, match="alpha"):
            hardness_params(6, alpha=7, beta=1)
        with pytest.raises(DomainError, match="beta"):
            hardness_params(6, alpha=4, beta=4)
        with pytest.raises(DomainError, match="beta"):
            hardness_params(6, alpha=4, beta=0)


class TestSymmetricUtility:
    def test_float_matches_exact_up_to_s30(self):
        params = hardness_params(100000)
        for variant in ("baseline", "planted_subsetR"):
            for s in range(0, 31):
                f = symmetric_impulsive_utility(params, s, variant)
                e = symmetric_impulsive_utility_exact(params, s, variant)
                assert abs(f - float(e)) <= 1e-9 * max(1.0, abs(float(e)))

    def test_expected_cost_identity(self):
        # E[min(#opened, m)] for halt-at-first-success telescopes to (1-q^k)/p
        p = Fraction(1, 4)
        q = 1 - p
        for s in range(1, 9):
            for m in (1, 3, 8):
                k = min(s, m)
                direct = Fraction(0)
                for t in range(1, s + 1):        # halt at slot t
                    direct += q ** (t - 1) * p * min(t, m)
                direct += q ** s * min(s, m)     # every box came up empty
                assert direct == (1 - q ** k) / p

    def test_s_one_is_exact(self):
        params = hardness_params(100000)
        assert symmetric_impulsive_utility_exact(params, 1) == Fraction(5, 27) - 1

    def test_bounds_checked(self):
        params = hardness_params(6, alpha=4, beta=1)
        with pytest.raises(DomainError, match="0 <= s <= n"):
            symmetric_impulsive_utility(params, 7)
        with pytest.raises(DomainError, match="s <= alpha"):
            symmetric_impulsive_utility(params, 5, "planted_subsetR")
        with pytest.raises(DomainError, match="variant"):
            symmetric_impulsive_utility(params, 1, "nonesuch")

    def test_zero_strategy_is_free(self):
        params = hardness_params(6, alpha=4, beta=1)
        assert symmetric_impulsive_utility(params, 0) == 0.0
        assert symmetric_impulsive_utility_exact(params, 0) == 0


class TestVerifyFamily:
    def test_large_n_passes(self):
        r = verify_family(100000)
        assert r.verdict == "pass"
        assert (r.alpha, r.beta, r.M) == (729, 27, 135)
        assert r.regime == {"alpha_gt_20beta": True, "alpha_gt_26beta": True}
        assert r.argmax_s == 1
        assert r.max_baseline_utility == pytest.approx(-22 / 27, abs=1e-12)
        assert r.planted_lower_bound == pytest.approx(135 * (1 - 1 / math.e) - 27)
        assert r.planted_utility > r.planted_lower_bound
        assert r.violations == ()

    def test_case_bounds_hold_with_margin(self):
        r = verify_family(100000)
        names = {c["case"] for c in r.cases}
        assert names == {"case1:s>=alpha", "case2:21beta<=s<alpha",
                         "case3:0<s<21beta", "case4:s=0"}
        for c in r.cases:
            assert c["min_margin"] >= 0
        by_name = {c["case"]: c for c in r.cases}
        assert by_name["case3:0<s<21beta"]["bound"] == "varies (s/alpha)*(26beta-alpha)"
        assert sum(c["count"] for c in r.cases) == 100000 + 1

    def test_small_n_regime_not_reached(self):
        r = verify_family(6, alpha=4, beta=1)
        assert r.verdict == "regime not reached"
        assert r.regime["alpha_gt_20beta"] is False

    def test_regime_edge_that_still_passes(self):
        r = verify_family(27, alpha=27, beta=1)
        assert r.regime == {"alpha_gt_20beta": True, "alpha_gt_26beta": True}
        assert r.verdict == "pass"
        assert r.planted_utility > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_scan_matches_the_closed_form_at_every_size(self, seed):
        # 100 triples n <= 5000, beta < alpha <= n, every fifth with alpha = n:
        # the report must read exactly what u(s) from the public closed form gives
        rng = random.Random(seed)
        for t in range(25):
            n = rng.randint(2, 5000)
            a = n if t % 5 == 0 else rng.randint(2, n)
            b = rng.randint(1, a - 1)
            r = verify_family(n, alpha=a, beta=b)
            params = hardness_params(n, alpha=a, beta=b)
            u = [symmetric_impulsive_utility(params, size) for size in range(n + 1)]
            argmax = max(range(1, n + 1), key=u.__getitem__)
            assert (r.argmax_s, r.max_baseline_utility) == (argmax, u[argmax])
            assert r.violations == tuple(size for size in range(1, n + 1) if u[size] >= 0)
            for case in r.cases:
                sizes = {"case1:s>=alpha": range(a, n + 1),
                         "case2:21beta<=s<alpha": range(21 * b, a),
                         "case3:0<s<21beta": range(1, min(21 * b, a)),
                         "case4:s=0": range(1)}[case["case"]]
                bound = case["bound"]
                margins = [((size / a) * (26 * b - a) if isinstance(bound, str) else bound)
                           - u[size] for size in sizes]
                assert case["count"] == len(sizes)
                assert case["min_margin"] == min(margins)
                assert case["min_margin_s"] == sizes[margins.index(min(margins))]

    def test_json_carries_the_banner(self):
        j = verify_family(6, alpha=4, beta=1).to_json()
        assert "not desk-reproducible" in j["banner"]
        assert j["verdict"] == "regime not reached"
        assert isinstance(j["cases"], list)


class TestHypergeometricTail:
    def test_tiny_case_by_enumeration(self):
        n, alpha, beta = 6, 3, 1
        exact = hypergeometric_tail(n, alpha, beta)
        assert exact == Fraction(1, 2)
        R = frozenset({1, 2, 3})
        hits = sum(
            1 for S in itertools.combinations(range(1, n + 1), alpha)
            if len(frozenset(S) & R) > beta
        )
        assert exact == Fraction(hits, math.comb(n, alpha))

    def test_shorter_side_equals_the_direct_sum(self):
        def direct(n, alpha, beta):
            hits = sum(math.comb(alpha, k) * math.comb(n - alpha, alpha - k)
                       for k in range(beta + 1, alpha + 1))
            return Fraction(hits, math.comb(n, alpha))

        for n in range(1, 25):
            for alpha in range(1, n + 1):
                for beta in range(alpha + 1):
                    assert hypergeometric_tail(n, alpha, beta) == direct(n, alpha, beta)
        # large alpha, tiny beta: only the k <= 1 side is summed
        n, alpha = 10 ** 6, 8000
        miss = math.comb(n - alpha, alpha) + alpha * math.comb(n - alpha, alpha - 1)
        assert hypergeometric_tail(n, alpha, 1) == 1 - Fraction(miss, math.comb(n, alpha))

    def test_against_scipy(self):
        for n, alpha, beta in ((4096, 107, 14), (100, 10, 2), (50, 7, 3)):
            ours = float(hypergeometric_tail(n, alpha, beta))
            ref = float(hypergeom.sf(beta, n, alpha, alpha))
            assert ours == pytest.approx(ref, rel=1e-8, abs=1e-300)


class TestReplayTrial:
    def test_transcript_and_counting(self):
        queries = [{1, 2, 3}, {4, 5, 6}, {1, 4, 5}]
        t = replay_trial(6, 3, 1, {1, 2, 3}, queries)
        assert t.budget == 3
        assert [(sorted(S), c0, cR) for S, c0, cR in t.transcript] == [
            ([1, 2, 3], 3, 1),
            ([4, 5, 6], 3, 3),
            ([1, 4, 5], 3, 3),
        ]
        assert t.distinguishing

    def test_agreeing_queries(self):
        t = replay_trial(6, 3, 1, {1, 2, 3}, [{4, 5}, {1,}])
        assert not t.distinguishing


class TestDistinguishExperiment:
    def test_forced_distinguisher(self):
        # the full ground set always betrays the plant: beta + (n - alpha) < alpha
        r = distinguish_experiment(6, [range(1, 7)], budget=5, trials=20,
                                   seed=3, alpha=4, beta=1)
        assert r.algorithm == "caller_query_list"
        assert r.rate == 1.0
        assert r.distinguishing_count == 20
        assert r.query_count_ok
        assert r.aborted_count == 0
        assert r.queries_per_trial == 1
        assert r.fixed_set_stats == ()       # no size-alpha queries to track
        assert r.witness["S"] == [1, 2, 3, 4, 5, 6]
        assert r.witness["overlap"] == 4     # R always sits inside the full set
        assert r.witness["c0"] == "4" and r.witness["cR"] == "3"

    def test_budget_truncates_caller_lists(self):
        queries = [{1, 2, 3, 4}, {1, 2, 3, 5}, {1, 2, 3, 6}]
        r = distinguish_experiment(6, queries, budget=2, trials=10,
                                   seed=0, alpha=4, beta=1)
        assert r.queries_per_trial == 2
        assert r.aborted_count == 10

    def test_builtin_rate_matches_hypergeometric(self):
        r = distinguish_experiment(6, budget=1, trials=2000, seed=11,
                                   alpha=3, beta=1)
        # one uniform alpha-set per trial distinguishes iff overlap > beta
        exact = 0.5
        se3 = 3 * math.sqrt(exact * (1 - exact) / 2000)
        assert abs(r.rate - exact) <= se3
        assert all(s["within"] for s in r.fixed_set_stats)
        assert all(s["exact_tail"] == exact for s in r.fixed_set_stats)

    def test_deterministic_in_the_seed(self):
        a = distinguish_experiment(8, budget=3, trials=50, seed=5, alpha=4, beta=2)
        b = distinguish_experiment(8, budget=3, trials=50, seed=5, alpha=4, beta=2)
        c = distinguish_experiment(8, budget=3, trials=50, seed=6, alpha=4, beta=2)
        assert a.to_json() == b.to_json()
        assert a.to_json() != c.to_json()

    def test_a_miscount_raises(self, monkeypatch):
        import pandora.hardness

        class Miscounting(pandora.hardness.QueryCountingOracle):
            def eval(self, boxes):
                self.count += 1
                return super().eval(boxes)

        monkeypatch.setattr(pandora.hardness, "QueryCountingOracle", Miscounting)
        with pytest.raises(AssertionError, match="counted 6 queries, issued 3"):
            distinguish_experiment(8, budget=3, trials=2, seed=5, alpha=4, beta=2)

    def test_input_validation(self):
        with pytest.raises(DomainError, match="budget"):
            distinguish_experiment(6, budget=0, trials=1, alpha=4, beta=1)
        with pytest.raises(DomainError, match="trials"):
            distinguish_experiment(6, budget=1, trials=10 ** 9, alpha=4, beta=1)
        with pytest.raises(DomainError, match="unknown algorithm"):
            distinguish_experiment(6, "sneaky", budget=1, trials=1, alpha=4, beta=1)
        with pytest.raises(DomainError, match="outside"):
            distinguish_experiment(6, [{7}], budget=1, trials=1, alpha=4, beta=1)


def _set_branch_threshold(k):
    # random.sample draws into a set above this population size, from a pool below
    return 21 if k <= 5 else 21 + 4 ** math.ceil(math.log(k * 3, 4))


class TestAlphaSubset:
    @pytest.mark.parametrize("n, k", [
        *((_set_branch_threshold(k) + d, k) for k in (1, 5, 6, 30, 107) for d in (0, 1)),
        (4096, 107), (10 ** 5, 729), (10 ** 6, 2764), (27, 27),   # alpha at 4096, 10^5, 10^6
    ])
    def test_same_set_and_same_words_as_sample(self, n, k):
        from pandora.hardness import _alpha_subset

        for seed in range(20):
            ours, stdlib = random.Random(seed), random.Random(seed)
            assert _alpha_subset(ours, n, k) == frozenset(stdlib.sample(range(1, n + 1), k))
            assert ours.getrandbits(64) == stdlib.getrandbits(64)


class TestPinnedReports:
    """Digests of whole reports.  The experiment digests were recorded before
    oracle construction became O(1): the per-trial RNG stream, the fixed-set
    statistics and the witness must stay bit-identical.  The family digests
    and the utility digests were recorded while verify_family still evaluated
    u(s) a second time in numpy: the single libm closed form must reproduce
    them bit for bit."""

    @staticmethod
    def digest(report):
        import json

        text = json.dumps(report.to_json(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    def test_n4096_budget10(self):
        r = distinguish_experiment(4096, budget=10, trials=200, seed=3)
        assert self.digest(r) == "d333b991ef9cea85bd9b3d9871f6f77e99cd70d58f5c12e32a5d22b95aecf1ee"

    def test_with_witness(self):
        r = distinguish_experiment(8, budget=3, trials=50, seed=5, alpha=4, beta=2)
        assert r.witness["S"] == [2, 3, 5, 7]
        assert self.digest(r) == "d7f0ebf9166a0537a5c32e42db40b1201e45b9e49447838246d5a20a73519765"

    def test_set_branch_with_witness(self):
        # n = 300 is above sample's set-branch threshold of 277 for 30 labels
        r = distinguish_experiment(300, budget=5, trials=40, seed=9, alpha=30, beta=5)
        assert r.distinguishing_count == 9
        assert (r.witness["trial"], r.witness["overlap"]) == (5, 8)
        assert self.digest(r) == "604c6436189827e42625af22fd1e5a1a72c4ce4481c8ce769576e99a16715f1d"

    def test_caller_list_truncated_with_witness(self):
        queries = [{1, 2, 3, 4}, {5, 6, 7, 8}, {1, 2, 5, 6}]
        r = distinguish_experiment(8, queries, budget=2, trials=30, seed=4, alpha=4, beta=2)
        assert r.aborted_count == 30
        assert r.witness == {"trial": 0, "seed": 5594871498841892311, "S": [5, 6, 7, 8],
                             "c0": "4", "cR": "3", "overlap": 3}
        assert self.digest(r) == "750b1d386eae8058455c5e962a73e9ebac72564ec3740ae7757383d7bcfd5231"

    @pytest.mark.parametrize("n, alpha, beta, expected", [
        (6, 4, 1, "c54db7e18553a57b56a624778f977bbd1c41a73b2710bfdf31c9a2fc6fdb9eb3"),
        (27, 27, 1, "513f170dbe37e3fb50db47d314d2a306c98e2a8b32cd6d7d20e1035a99535917"),
        (4096, None, None, "1bf35ad856865701c51579bbeeb1668381900b28eeaad33c93375dbd18761f2a"),
        (100000, None, None, "721874c28f684b00a3d7afee096783c9a8ff0093be7394acfd201a6b03926ada"),
        (10 ** 6, None, None, "e195715a0b70d24295600016dd3ac94117b5f8286b4fbfc4e0c936f6e752c28a"),
    ])
    def test_family_report(self, n, alpha, beta, expected):
        assert self.digest(verify_family(n, alpha=alpha, beta=beta)) == expected

    @pytest.mark.parametrize("n, alpha, beta, floats, exact", [
        (6, 4, 1, "b236bebc536acb05f7cda57ea35ec94f878e703d186f8758c7ca9c6be282268e",
         "4a3fc56d627faf0de47a4262c8c5531e998f01cc020468f62a54c0e6d8d3be48"),
        (27, 27, 1, "c7e0cb2fb39a6f96ac55239bc9fa7fec14d05e2044dd4404fd953c58bb5083ae",
         "ebe4346b9c1a9daea99e6edebb1e996f9ebad8441c67c3c5fe18cfcb01a08e82"),
        (4096, None, None, "2606909b7228e43b3077c9ed5a5283898ee8347e3bf570d961ce58f39121f4ed", None),
        (100000, None, None, "a1f502499bab08a20507b5ad0fef61b0c59b6e7acab0a2205783bb2ab1765687", None),
    ])
    def test_utilities_at_every_size(self, n, alpha, beta, floats, exact):
        params = hardness_params(n, alpha=alpha, beta=beta)
        sizes = [(s, v) for v in ("baseline", "planted_subsetR")
                 for s in range((n if v == "baseline" else params.alpha) + 1)]
        text = repr([symmetric_impulsive_utility(params, s, v) for s, v in sizes])
        assert hashlib.sha256(text.encode()).hexdigest() == floats
        if exact is not None:
            text = repr([symmetric_impulsive_utility_exact(params, s, v) for s, v in sizes])
            assert hashlib.sha256(text.encode()).hexdigest() == exact
