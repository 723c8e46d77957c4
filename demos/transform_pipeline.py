"""From arbitrary supports to Bernoulli boxes in two loss-controlled steps.

Step one caps values at kappa_eps and floors them onto the grid eps*Z,
giving up at most 2*eps of utility.  Step two splits every box into weighted
Bernoulli copies -- one per positive support value, later copies of a box
free of charge -- losing nothing at all.  Together they turn any instance
into the form where impulsive strategies are understood, and an impulsive
solution on the lifted instance pulls back to a fixed-order strategy on the
original that does at least as well.

Run:  python3 demos/transform_pipeline.py
"""
from fractions import Fraction

from pandora.corpus import budget_counterexample
from pandora.instances import (example1, random_instance, subadditive4,
                               xos_lift_of)
from pandora.solvers import optimal_adaptive, optimal_fixed_order, optimal_impulsive
from pandora.transforms import (bernoullify, check_preservation, discretize,
                                kappa_epsilon, pull_back_strategy)
from pandora.strategies import eval_fixed_order

inst = subadditive4()
print("Original instance (subadditive cost, mixed supports)")
print("----------------------------------------------------")
for b in inst.labels:
    atoms = ", ".join(f"{v} w.p. {p}" for v, p in inst.box(b).atoms)
    print(f"  box {b}: {atoms}")
u0 = optimal_adaptive(inst)[0]
print(f"  adaptive optimum: {u0}")
print()

eps = Fraction(1, 2)
kappa = kappa_epsilon(inst, eps)
disc = discretize(inst, eps)
print(f"Step 1: discretize at eps = {eps}")
print("-------------------------------")
print(f"  kappa_eps = {kappa}  (tail mass above the cap is at most eps)")
for b in disc.labels:
    atoms = ", ".join(f"{v} w.p. {p}" for v, p in disc.box(b).atoms)
    print(f"  box {b}: {atoms}")
u_eps = optimal_adaptive(disc)[0]
print(f"  adaptive optimum: {u_eps}")
print(f"  sandwich: {u_eps} <= {u0} <= {u_eps} + 2*{eps} = {u_eps + 2 * eps}"
      f"   -> {u_eps <= u0 <= u_eps + 2 * eps}")
print()

lifted, bmap = bernoullify(disc)
print("Step 2: Bernoullify (exact)")
print("---------------------------")
print(f"  {disc.n} boxes become {lifted.n} weighted-Bernoulli copies:")
for k, (i, j) in zip(lifted.labels, bmap.pairs):
    v, w = bmap.values[k - 1], bmap.weights[k - 1]
    print(f"    copy {k} = box {i}, atom #{j}: value {v} w.p. {w}")
print("  later copies of the same box cost nothing extra (the lifted cost")
print("  charges per original box, not per copy).")
u_lift = optimal_adaptive(lifted)[0]
print(f"  adaptive optimum: {u_lift}  (equals the discretized optimum: "
      f"{u_lift == u_eps})")
print()

u_imp, pi = optimal_impulsive(lifted)
pulled = pull_back_strategy(bmap, pi.order)
u_pulled = eval_fixed_order(disc, pulled)
print("Pulling an impulsive solution back")
print("----------------------------------")
print(f"  best lifted impulsive: {pi.order} with utility {u_imp}")
print(f"  pulls back to order {pulled.sigma}, thresholds "
      f"({', '.join(str(t) for t in pulled.thresholds)})")
print(f"  fixed-order utility on the discretized instance: {u_pulled} >= {u_imp}")
best_fixed = optimal_fixed_order(disc)[0]
print(f"  (the discretized fixed-order optimum is {best_fixed})")
print()

print("What survives the lift")
print("----------------------")
carriers = [
    ("coverage", random_instance("general_coverage", 3, 11)),
    ("submodular", random_instance("general_coverage", 3, 11)),
    ("matroid_rank", random_instance("bernoulli_hardness", 4, 11)),
    ("gross_substitutes", random_instance("bernoulli_hardness", 4, 11)),
    ("xos", xos_lift_of(example1())),
    ("subadditive", inst),
]
for cls, carrier in carriers:
    rep = check_preservation(carrier, cls)
    print(f"  {cls:<17} carried by a {type(carrier.cost).__name__:<13}"
          f" lift: {'preserved' if rep.passed else 'NOT preserved'}")
bad = budget_counterexample()
rep = check_preservation(bad, "budget_additive")
print(f"  {'budget_additive':<17} carried by a {type(bad.cost).__name__:<13}"
      f" lift: {'preserved' if rep.passed else 'NOT preserved'}")
print(f"    refutation: {rep.witness}")
print("  Budget-additivity is the one class on the menu that the lift can")
print("  break: two copies of one box already out-sum the shared charge.")
