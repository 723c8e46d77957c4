"""JSON-first command line: solve/gap/validate on instance files, the
transformation pipeline, the hardness experiments, and the verification
suites.

Every subcommand prints one JSON object on stdout (or an aligned key:value
rendering under --human) and exits 0 on success, 1 when a validation/corpus
/suite assertion fails, 2 on usage or parse errors, and 3 when a request
exceeds an exact-enumeration size bound.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import corpus as corpus_mod
from . import hardness as hardness_mod
from .classes import VALIDATORS, guard_kind, validate_class
from .costs import QueryCountingOracle
from .errors import CapabilityError, DomainError, ParseError
from .instances import Instance
from .rationals import fmt, rat
from .serialize import (
    digest_instance,
    instance_to_json,
    load_instance,
    loads_instance,
    strategy_to_json,
)
from .solvers import (
    adaptivity_gap,
    optimal_adaptive,
    optimal_fixed_order,
    optimal_impulsive,
    weitzman,
)
from .transforms import bernoullify, discretize, kappa_epsilon

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPABILITY = 3

# the size guards each solver applies to the box count
_SOLVE_GUARDS = {"adaptive": ("adaptive",), "fixed_order": ("order_enum",),
                 "impulsive": ("adaptive",), "weitzman": ()}


def _read_instance(path: str, guards: tuple[str, ...] = ()) -> Instance:
    """Load an instance, refused by the `limits.guard` kinds the command will
    apply once it has more boxes than they allow (see instance_from_json)."""
    if path == "-":
        return loads_instance(sys.stdin.read(), guards=guards)
    return load_instance(path, guards=guards)


def _counted_copy(instance: Instance):
    counted = QueryCountingOracle(instance.cost)
    return Instance(instance.boxes, counted, instance.cost_class), counted


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, exit_code)
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> tuple[dict, int]:
    instance = _read_instance(args.instance, _SOLVE_GUARDS[args.cls])
    digest = digest_instance(instance)
    # weitzman dispatches on the concrete cost type, so it keeps the bare instance
    run_on, counter = (instance, None) if args.cls == "weitzman" else _counted_copy(instance)
    # looked up per call, so a solver patched into this module at run time is used
    solver = {"adaptive": optimal_adaptive, "fixed_order": optimal_fixed_order,
              "impulsive": optimal_impulsive, "weitzman": weitzman}[args.cls]
    t0 = time.perf_counter()
    utility, strategy = solver(run_on)
    elapsed = time.perf_counter() - t0
    payload = {
        "command": "solve",
        "solver": args.cls,
        "instance_digest": digest,
        "utility": fmt(utility),
        "strategy": strategy_to_json(strategy),
        "query_count": counter.count if counter is not None else None,
        "wall_time_ms": round(elapsed * 1000, 3),
    }
    return payload, EXIT_OK


def _cmd_gap(args) -> tuple[dict, int]:
    instance = _read_instance(args.instance, ("adaptive", "order_enum"))
    digest = digest_instance(instance)
    run_on, counter = _counted_copy(instance)
    t0 = time.perf_counter()
    report = adaptivity_gap(run_on)
    elapsed = time.perf_counter() - t0
    payload = {
        "command": "gap",
        "instance_digest": digest,
        "opt_adaptive": fmt(report.opt_adaptive),
        "opt_fixed_order": fmt(report.opt_fixed_order),
        "opt_impulsive": (None if report.opt_impulsive is None
                          else fmt(report.opt_impulsive)),
        "strict_gap": report.strict_gap,
        "witnesses": {
            "adaptive": strategy_to_json(report.witness_adaptive),
            "fixed_order": strategy_to_json(report.witness_fixed_order),
            "impulsive": (None if report.witness_impulsive is None
                          else strategy_to_json(report.witness_impulsive)),
        },
        "query_count": counter.count,
        "wall_time_ms": round(elapsed * 1000, 3),
    }
    return payload, EXIT_OK


def _cmd_validate(args) -> tuple[dict, int]:
    instance = _read_instance(args.instance, (guard_kind(args.cls),))
    digest = digest_instance(instance)
    t0 = time.perf_counter()
    report = validate_class(instance.cost, args.cls)
    elapsed = time.perf_counter() - t0
    payload = {
        "command": "validate",
        "class": args.cls,
        "instance_digest": digest,
        "passed": report.passed,
        "witness": report.witness,
        "wall_time_ms": round(elapsed * 1000, 3),
    }
    return payload, EXIT_OK if report.passed else EXIT_FAIL


def _cmd_transform(args) -> tuple[dict, int]:
    instance = _read_instance(args.instance)
    digest_in = digest_instance(instance)
    t0 = time.perf_counter()
    params_json = None
    map_json = None
    current = instance
    for step in args.steps:
        if step == "discretize":
            if args.epsilon is None:
                raise DomainError("discretize needs --epsilon p/q")
            try:
                epsilon = rat(args.epsilon)
            except ValueError as exc:
                raise ParseError(f"--epsilon: {exc}") from None
            kappa = kappa_epsilon(current, epsilon)
            params_json = {"epsilon": fmt(epsilon), "kappa": fmt(kappa)}
            current = discretize(current, epsilon)
        else:
            current, bmap = bernoullify(current)
            map_json = bmap.to_json()
    elapsed = time.perf_counter() - t0
    payload = {
        "command": "transform",
        "steps": list(args.steps),
        "instance_digest_in": digest_in,
        "instance_digest": digest_instance(current),
        "params": params_json,
        "map": map_json,
        "instance": instance_to_json(current),
        "wall_time_ms": round(elapsed * 1000, 3),
    }
    return payload, EXIT_OK


def _cmd_hardness(args) -> tuple[dict, int]:
    if args.mode == "params":
        p = hardness_mod.hardness_params(args.n, alpha=args.alpha, beta=args.beta)
        payload = {
            "command": "hardness",
            "mode": "params",
            "n": p.n, "alpha": p.alpha, "beta": p.beta, "M": p.M,
            "p": fmt(p.p),
        }
        return payload, EXIT_OK
    if args.mode == "verify":
        report = hardness_mod.verify_family(args.n, alpha=args.alpha, beta=args.beta)
        payload = {"command": "hardness", "mode": "verify", **report.to_json()}
        return payload, EXIT_OK if report.verdict == "pass" else EXIT_FAIL
    report = hardness_mod.distinguish_experiment(
        args.n, budget=args.budget, trials=args.trials, seed=args.seed,
        alpha=args.alpha, beta=args.beta,
    )
    ok = report.query_count_ok and all(s["within"] for s in report.fixed_set_stats)
    payload = {"command": "hardness", "mode": "distinguish", **report.to_json()}
    return payload, EXIT_OK if ok else EXIT_FAIL


def _cmd_corpus(args) -> tuple[dict, int]:
    report = corpus_mod.run_corpus()
    payload = {"command": "corpus", **report.to_json()}
    return payload, EXIT_OK if report.passed else EXIT_FAIL


def _cmd_verify(args) -> tuple[dict, int]:
    report = corpus_mod.run_theorem_suite(args.theorem, args.trials, args.seed)
    payload = {"command": "verify", **report.to_json()}
    return payload, EXIT_OK if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# rendering and plumbing
# ---------------------------------------------------------------------------

def _render_human(value, indent: int = 0, out=None) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                print(f"{pad}{k}:", file=out)
                _render_human(v, indent + 1, out)
            else:
                print(f"{pad}{k}: {_scalar(v)}", file=out)
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                print(f"{pad}-", file=out)
                _render_human(item, indent + 1, out)
            else:
                print(f"{pad}- {_scalar(item)}", file=out)
    else:
        print(f"{pad}{_scalar(value)}", file=out)


def _scalar(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, (dict, list)):
        return json.dumps(v)
    return str(v)


def _emit(payload: dict, human: bool) -> None:
    if human:
        _render_human(payload)
    else:
        print(json.dumps(payload, indent=2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pandora",
        description="Exact solvers and verifiers for box-inspection problems "
                    "with combinatorial opening costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, instance=True):
        if instance:
            p.add_argument("-i", "--instance", required=True, metavar="FILE",
                           help="instance JSON file ('-' for stdin)")
        p.add_argument("--human", action="store_true",
                       help="aligned text output instead of JSON")

    p = sub.add_parser("solve", help="run one solver on an instance")
    p.add_argument("--class", dest="cls", choices=tuple(_SOLVE_GUARDS),
                   default="adaptive")
    add_common(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("gap", help="compare the strategy classes exactly")
    add_common(p)
    p.set_defaults(handler=_cmd_gap)

    p = sub.add_parser("validate", help="check a declared cost class")
    p.add_argument("--class", dest="cls", choices=sorted(VALIDATORS),
                   required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("transform",
                       help="discretize and/or Bernoullify an instance")
    p.add_argument("steps", nargs="+", choices=["discretize", "bernoullify"],
                   help="pipeline steps, applied left to right")
    p.add_argument("--epsilon", metavar="p/q",
                   help="additive loss budget for discretize")
    add_common(p)
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("hardness", help="query-complexity family tools")
    p.add_argument("mode", choices=["params", "verify", "distinguish"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=100)
    add_common(p, instance=False)
    p.set_defaults(handler=_cmd_hardness)

    p = sub.add_parser("corpus", help="re-derive the canonical expectations")
    p.add_argument("action", nargs="?", choices=["run"], default="run")
    add_common(p, instance=False)
    p.set_defaults(handler=_cmd_corpus)

    p = sub.add_parser("verify", help="run a randomized theorem suite")
    p.add_argument("--theorem", required=True, choices=list(corpus_mod.THEOREMS))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_common(p, instance=False)
    p.set_defaults(handler=_cmd_verify)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()    # once per process: parse_args leaves it as it was
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    human = getattr(args, "human", False)
    try:
        payload, code = args.handler(args)
    except ParseError as exc:
        _emit({"error": {"type": "parse", "message": str(exc),
                         "line": exc.line, "column": exc.column}}, human)
        return EXIT_USAGE
    except DomainError as exc:
        _emit({"error": {"type": "domain", "message": str(exc)}}, human)
        return EXIT_USAGE
    except CapabilityError as exc:
        _emit({"error": {"type": "capability", "message": str(exc)}}, human)
        return EXIT_CAPABILITY
    except AssertionError as exc:
        _emit({"error": {"type": "assertion", "message": str(exc)}}, human)
        return EXIT_FAIL
    except OSError as exc:
        _emit({"error": {"type": "io", "message": str(exc)}}, human)
        return EXIT_USAGE
    _emit(payload, human)
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
