"""Exact algorithms for box inspection with combinatorial opening costs.

n boxes hold independent finite-support nonnegative values; opening a set S
of boxes costs c(S) for a normalized monotone set function c, and stopping
collects the best value seen.  The package provides exact rational solvers
for three nested strategy classes (adaptive policy trees, fixed orders with
halting thresholds, impulsive orders), validators for the structured cost
classes, the discretize/Bernoullify transformation pipeline with its
preservation guarantees, a query-complexity experiment harness, and a
corpus of canonical instances with frozen expected outcomes.
"""

from .classes import ClassReport, VALIDATORS, validate_class
from .corpus import (
    ENTRIES,
    THEOREMS,
    CorpusReport,
    SuiteReport,
    budget_counterexample,
    run_corpus,
    run_theorem_suite,
)
from .costs import (
    AdditiveCost,
    BudgetAdditiveCost,
    CostOracle,
    CoverageCost,
    ExplicitCost,
    HardnessCost,
    ProjectionCost,
    QueryCountingOracle,
    TreeClosureCost,
    XosCost,
    marginal_cost,
    xos_lift,
)
from .errors import CapabilityError, DomainError, PandoraError, ParseError
from .hardness import (
    DistinguishReport,
    FamilyReport,
    HardnessParams,
    distinguish_experiment,
    hardness_params,
    hypergeometric_tail,
    replay_trial,
    symmetric_impulsive_utility,
    symmetric_impulsive_utility_exact,
    verify_family,
)
from .instances import (
    FiniteDistribution,
    Instance,
    bernoulli,
    deterministic,
    example1,
    hardness_instance,
    max_distribution,
    random_instance,
    subadditive4,
    support_union,
    unit_demand_pair,
    xos_lift_of,
)
from .rationals import INF, fmt, rat
from .serialize import (
    digest_instance,
    dumps_instance,
    instance_from_json,
    instance_to_json,
    load_instance,
    loads_instance,
    save_instance,
    strategy_from_json,
    strategy_to_json,
)
from .solvers import (
    GapReport,
    adaptivity_gap,
    optimal_adaptive,
    optimal_fixed_order,
    optimal_impulsive,
    optimal_thresholds,
    reservation_value,
    weitzman,
)
from .strategies import (
    FixedOrderThresholds,
    ImpulsiveStrategy,
    PolicyTree,
    dummy_mixture,
    eval_fixed_order,
    eval_impulsive,
    eval_policy,
    marginal_utility,
    pq_of,
)
from .transforms import (
    BernoullificationMap,
    bernoullify,
    check_preservation,
    discretize,
    kappa_epsilon,
    pull_back_strategy,
)

__version__ = "1.0.0"

__all__ = [
    "AdditiveCost", "BernoullificationMap", "BudgetAdditiveCost",
    "CapabilityError", "ClassReport", "CorpusReport", "CostOracle",
    "CoverageCost", "DistinguishReport",
    "DomainError", "ENTRIES", "ExplicitCost", "FamilyReport",
    "FiniteDistribution", "FixedOrderThresholds", "GapReport",
    "HardnessCost", "HardnessParams", "INF", "ImpulsiveStrategy", "Instance",
    "PandoraError", "ParseError", "PolicyTree",
    "ProjectionCost", "QueryCountingOracle", "SuiteReport", "THEOREMS",
    "TreeClosureCost", "VALIDATORS", "XosCost",
    "adaptivity_gap", "bernoulli", "bernoullify", "budget_counterexample",
    "check_preservation", "deterministic", "digest_instance",
    "discretize", "distinguish_experiment", "dummy_mixture", "dumps_instance",
    "eval_fixed_order", "eval_impulsive", "eval_policy", "example1",
    "fmt", "hardness_instance", "hardness_params", "hypergeometric_tail",
    "instance_from_json", "instance_to_json", "kappa_epsilon",
    "load_instance", "loads_instance", "marginal_cost", "marginal_utility",
    "max_distribution", "optimal_adaptive", "optimal_fixed_order",
    "optimal_impulsive", "optimal_thresholds", "pq_of", "pull_back_strategy",
    "random_instance", "rat", "replay_trial", "reservation_value",
    "run_corpus", "run_theorem_suite", "save_instance", "strategy_from_json",
    "strategy_to_json", "subadditive4", "support_union",
    "symmetric_impulsive_utility", "symmetric_impulsive_utility_exact",
    "unit_demand_pair", "validate_class", "verify_family", "weitzman",
    "xos_lift", "xos_lift_of",
]
