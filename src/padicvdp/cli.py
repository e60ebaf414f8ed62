"""Command-line surface: reproducible runs with machine-readable output.

Subcommands: expand, eval, lipschitz, roots, lift, wellposed. Output is
JSON by default (use --format text for a human summary); runs with the
same configuration, seed included, produce byte-identical output.

Exit codes: 0 success, 1 negative verdict (a violation or failed lift,
still with valid output), 2 configuration error, 3 evaluation error
(category "internal" for an unexpected failure), 4 precision exhausted.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .core import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    InvalidPrimeError,
    PadicError,
    PrecisionExhaustedError,
    from_integer,
    is_prime,
    on_residues,
    power_within,
    sampled_scan,
    weight,
)
from .dsl import (
    FuncDef,
    ParseError,
    divp_budget,
    parse,
    parse_funcdef,
    well_defined_check,
)
from .hensel import (
    PreconditionError,
    brute_force_roots_multi,
    hensel_lift_multi,
    well_defined_residue_check,
)
from .vdp import (
    VdpTable,
    bound_log,
    projection,
    sampled_weighted_lip_check,
    vdp_expand_multi,
    vdp_expand_uni,
    weighted_lip_bound_check,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_CONFIG = 2
EXIT_EVALUATION = 3
EXIT_PRECISION = 4


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", type=int, required=True, help="the prime p")
    common.add_argument("--precision", type=int, default=12,
                        help="working digit count N (default 12)")
    common.add_argument("--vars", type=int, default=1,
                        help="arity n for inline expressions (default 1)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for sampled checks, recorded in output")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="evaluation budget for enumerations (default 1e7)")
    common.add_argument("--output", type=Path, default=None,
                        help="also write the bare result artifact to this path")

    fn_common = argparse.ArgumentParser(add_help=False)
    group = fn_common.add_mutually_exclusive_group()
    group.add_argument("--expr", type=str, default=None,
                       help="inline expression over x1..xn")
    group.add_argument("--func", type=Path, default=None,
                       help="function definition JSON file")

    parser = argparse.ArgumentParser(
        prog="padicvdp",
        description="p-adic series tables, Lipschitz certification, root lifting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", parents=[common, fn_common],
                              help="coefficient table of a function")
    p_expand.add_argument("--level", type=int, default=2, help="truncation level K")

    p_eval = sub.add_parser("eval", parents=[common, fn_common],
                            help="evaluate a function at a point")
    p_eval.add_argument("--point", type=_int_list, required=True,
                        help="comma-separated coordinates")

    p_lip = sub.add_parser("lipschitz", parents=[common, fn_common],
                           help="three-tier Lipschitz certification")
    p_lip.add_argument("--table", type=Path, default=None,
                       help="stored coefficient table JSON instead of a function")
    p_lip.add_argument("--level", type=int, default=2, help="truncation level K")
    p_lip.add_argument("--alpha", type=_int_list, default=None,
                       help="claimed weight, comma-separated")
    p_lip.add_argument("--samples", type=int, default=10000,
                       help="pair samples (default 10000)")
    p_lip.add_argument("--projection-samples", type=int, default=8,
                       help="sampled fixed tuples per coordinate (default 8)")

    p_roots = sub.add_parser("roots", parents=[common, fn_common],
                             help="residue roots by enumeration")
    p_roots.add_argument("--level", type=int, default=1, help="residue level k")
    p_roots.add_argument("--alpha", type=_int_list, default=None)

    p_lift = sub.add_parser("lift", parents=[common, fn_common],
                            help="derivative-free root lifting")
    p_lift.add_argument("--alpha", type=_int_list, default=None)
    p_lift.add_argument("--start", type=_int_list, required=True,
                        help="start residues, comma-separated")
    p_lift.add_argument("--l0", type=int, default=1)
    p_lift.add_argument("--target-precision", type=int, default=None,
                        help="digits of root to construct (default --precision)")
    coord = p_lift.add_mutually_exclusive_group()
    coord.add_argument("--coordinate", type=int, default=1,
                       help="coordinate to lift along (default 1)")
    coord.add_argument("--auto-coordinate", action="store_true",
                       help="search for a qualifying coordinate at each level")

    p_well = sub.add_parser("wellposed", parents=[common, fn_common],
                            help="sampled totality check for divp expressions")
    p_well.add_argument("--samples", type=int, default=10000)
    p_well.add_argument("--residue-level", type=int, default=None,
                        help="also check residue well-definedness at this level")
    p_well.add_argument("--alpha", type=_int_list, default=None)

    return parser


def _load_function(args) -> FuncDef:
    if args.func is not None:
        data = json.loads(args.func.read_text())
        return parse_funcdef(data)
    if args.expr is not None:
        body = parse(args.expr, args.vars)
        return FuncDef(arity=args.vars, body=body, source=args.expr)
    raise ValueError("one of --expr or --func is required")


def _resolve_alpha(flag, defn: FuncDef | None, arity: int, default_zero: bool):
    if flag is not None:
        alpha = tuple(flag)
    elif defn is not None and defn.alpha is not None:
        alpha = defn.alpha
    elif default_zero:
        alpha = (0,) * arity
    else:
        raise ValueError("no weight given: pass --alpha or declare it in the function file")
    return weight(alpha, arity)


def _validate_common(args) -> None:
    if args.budget < 1:
        raise ValueError(f"--budget must be >= 1, got {args.budget}")
    for flag in ("prime", "precision", "samples"):  # before is_prime's trial division
        value = getattr(args, flag, 0)
        if value > args.budget:
            raise EnumerationBudgetError(f"--{flag} {value} exceeds budget {args.budget}")
    if not is_prime(args.prime):
        raise InvalidPrimeError(f"--prime must be prime, got {args.prime}")
    if args.precision < 1:
        raise ValueError(f"--precision must be >= 1, got {args.precision}")
    if args.vars < 1:
        raise ValueError(f"--vars must be >= 1, got {args.vars}")
    for flag in ("samples", "projection_samples"):
        value = getattr(args, flag, 0)
        if value < 0:
            raise ValueError(f"--{flag.replace('_', '-')} must be >= 0, got {value}")


def _work(digits: int, defn: FuncDef, budget: int) -> int:
    """Input digits that give `digits` digits of F: each divp on a path costs its exponent."""
    work = digits + divp_budget(defn.body)
    if work > budget:  # checked before any compile, which forms p^work
        raise EnumerationBudgetError(f"{digits} digits of F read {work} digits of input, "
                                     f"budget is {budget}")
    return work


def _sup_norm_fields(ord_exponent: int | None, p: int) -> dict:
    if ord_exponent is None:
        return {"sup_norm": "0", "sup_norm_exponent": None}
    return {"sup_norm": f"{p}^{-ord_exponent}", "sup_norm_exponent": -ord_exponent}


def _cmd_expand(args) -> tuple[dict, dict, int]:
    defn = _load_function(args)
    p, level, arity = args.prime, args.level, defn.arity
    if level < 1:
        raise ValueError(f"--level must be >= 1, got {level}")
    work = _work(args.precision, defn, args.budget)
    table = vdp_expand_multi(defn, level, arity, p, work, budget=args.budget)

    # success postcondition: reconstruction spot check on sampled grid points
    T, F = on_residues(table, p, work, arity), on_residues(defn, p, work, arity)

    def draw(rng):
        m = tuple(rng.randrange(table.side) for _ in range(arity))
        gap = T(m) - F(m)
        return m, gap.residue, gap.precision, table.precision

    spot = sampled_scan(draw, min(10, table.size), args.seed, p,
                        "the reconstruction at grid point {}".format)
    if not spot.ok:
        raise PadicError(f"internal: reconstruction mismatch at grid point {spot.first_violation}")

    result = {
        "table": table.to_json(),
        "arity": arity,
        "spot_check": {"points": spot.samples, "ok": True},
        **_sup_norm_fields(table.sup_norm_ord(), p),
    }
    config = _config_echo(args, level=level, arity=arity)
    return result, config, EXIT_OK


def _cmd_eval(args) -> tuple[dict, dict, int]:
    defn = _load_function(args)
    p = args.prime
    if any(v < 0 for v in args.point):
        raise ValueError("point coordinates must be >= 0")
    work = _work(args.precision, defn, args.budget)
    F = on_residues(defn, p, work, len(args.point))  # refuses another arity
    value = F(tuple(v % p**work for v in args.point))  # known to work - divp budget = --precision
    result = {"value": value.to_json(), "text": str(value)}
    config = _config_echo(args, arity=defn.arity, point=list(args.point))
    return result, config, EXIT_OK


def _cmd_lipschitz(args) -> tuple[dict, dict, int]:
    p = args.prime
    defn: FuncDef | None = None
    if args.table is not None:
        F = table = VdpTable.from_json(json.loads(args.table.read_text()))
        if table.prime != p:
            raise ValueError(f"table prime {table.prime} does not match --prime {p}")
        level, arity = table.level, table.arity
        work = max(table.precision, level)  # a point needs K digits to find its grid value
    else:
        F = defn = _load_function(args)
        level, arity = args.level, defn.arity
        if level < 1:
            raise ValueError(f"--level must be >= 1, got {level}")
        work = _work(args.precision, defn, args.budget)
    alpha = _resolve_alpha(args.alpha, defn, arity, default_zero=False)
    projects = arity > 1 and defn is not None  # a table's projections lie in its own grid
    fixings = arity * args.projection_samples if projects else 0
    if fixings > 0 and power_within(p, level, args.budget // fixings) is None:
        raise EnumerationBudgetError(
            f"projection tier needs {fixings} x {p}^{level} evaluations, budget is {args.budget}"
        )
    if defn is not None:
        table = vdp_expand_multi(F, level, arity, p, work, budget=args.budget)

    def bound_tier() -> tuple[dict, bool]:
        bound = weighted_lip_bound_check(table, alpha)
        return bound.to_json(), not bound.holds

    def projection_tier() -> tuple[dict, bool]:
        if not projects:
            return {"applicable": False}, False
        modulus = p**work
        coords = (c for c in range(1, arity + 1) for _ in range(args.projection_samples))

        def draw(rng):  # a violating projection's check: its first violating A_m
            coord = next(coords)
            fixed = [rng.randrange(modulus) for _ in range(arity - 1)]
            proj = projection(F, coord, [from_integer(v, p, work) for v in fixed])
            sub_table = vdp_expand_uni(proj, level, p, work, budget=args.budget)
            m = weighted_lip_bound_check(sub_table, alpha[coord - 1]).violation
            if m is None:
                return None
            site = {"coordinate": coord, "fixed": fixed, "violation": m}
            coefficient = sub_table.coefficient(m)
            return (site, coefficient.residue, coefficient.precision,
                    bound_log(m, p) - alpha[coord - 1])

        witness = sampled_scan(draw, fixings, args.seed, p, "projection {}".format).first_violation
        return {
            "applicable": True,
            "samples_per_coordinate": args.projection_samples,
            "violated": witness is not None,
            "witness": witness,
            "note": "fixed coordinates are sampled, not exhaustive",
        }, witness is not None

    def pair_tier() -> tuple[dict, bool]:
        pair = sampled_weighted_lip_check(F, alpha, args.samples, arity, p, work, seed=args.seed)
        return pair.to_json(), not pair.ok

    # a violation in any tier is conclusive and wins over tiers left undecided
    tiers: dict = {}
    violated, undecided = False, None
    for name, tier in (("necessary-bound", bound_tier), ("projection-sampled", projection_tier),
                       ("pair-sampled", pair_tier)):
        try:
            tiers[name], failed = tier()
        except PrecisionExhaustedError as exc:
            tiers[name], failed = {"undecided": str(exc)}, False
            undecided = undecided or exc
        violated = violated or failed
    if undecided is not None and not violated:
        raise undecided
    result = {
        "alpha": list(alpha),
        "tiers": tiers,
        "verdict": "violated" if violated else "no-violation-found",
    }
    config = _config_echo(args, level=level, arity=arity, alpha=list(alpha))
    return result, config, EXIT_NEGATIVE if violated else EXIT_OK


def _cmd_roots(args) -> tuple[dict, dict, int]:
    defn = _load_function(args)
    p, k = args.prime, args.level
    alpha = _resolve_alpha(args.alpha, defn, defn.arity, default_zero=True)
    work = _work(k, defn, args.budget)
    roots = brute_force_roots_multi(defn, k, alpha, defn.arity, p, eval_precision=work,
                                    budget=args.budget)
    residues = [r[0] if defn.arity == 1 else list(r) for r in roots]
    result = {
        "level": k,
        "alpha": list(alpha),
        "modulus_exponent": k - max(alpha),
        "residues": residues,
    }
    config = _config_echo(args, level=k, arity=defn.arity, alpha=list(alpha))
    return result, config, EXIT_OK


def _cmd_lift(args) -> tuple[dict, dict, int]:
    defn = _load_function(args)
    p = args.prime
    alpha = _resolve_alpha(args.alpha, defn, defn.arity, default_zero=True)
    target = args.target_precision if args.target_precision is not None else args.precision
    if len(args.start) != defn.arity:
        raise ValueError(
            f"--start has {len(args.start)} entries, function arity is {defn.arity}"
        )
    work = _work(target, defn, args.budget)
    levels = max(target, args.l0 + max(alpha))  # the start residues are read to l0 + alpha
    if levels * work > args.budget:  # up to `levels` levels, each reading `work`-digit values
        raise EnumerationBudgetError(f"lifting to {target} digits reads {levels} x {work} "
                                     f"digits, budget is {args.budget}")
    coordinate = None if args.auto_coordinate else args.coordinate
    trace = hensel_lift_multi(defn, alpha, args.start, args.l0, target, p,
                              coordinate=coordinate, eval_precision=work)
    result = trace.to_json()
    result["replay_verified"] = trace.lifted
    if trace.root is not None:
        result["root_text"] = str(trace.root)
    config = _config_echo(
        args, arity=defn.arity, alpha=list(alpha),
        start=list(args.start), l0=args.l0, target_precision=target,
    )
    return result, config, EXIT_OK if trace.lifted else EXIT_NEGATIVE


def _cmd_wellposed(args) -> tuple[dict, dict, int]:
    defn = _load_function(args)
    p, k = args.prime, args.residue_level
    if k is not None:
        alpha = _resolve_alpha(args.alpha, defn, defn.arity, default_zero=True)
        residue_work = _work(k + 2, defn, args.budget)
        reads = max(args.samples, 1) * residue_work  # p^k is formed even with no samples
        if reads > args.budget:
            raise EnumerationBudgetError(f"residue check reads {reads} digits, "
                                         f"budget is {args.budget}")
    work = _work(args.precision, defn, args.budget)
    report = well_defined_check(defn, defn.arity, p, work, args.samples, seed=args.seed)
    result: dict = {"totality": report.to_json()}
    failed = not report.ok
    if k is not None:
        residue = well_defined_residue_check(defn, k, alpha, defn.arity, p, args.samples,
                                             seed=args.seed, eval_precision=residue_work)
        result["residue"] = residue.to_json()
        failed = failed or not residue.ok
    config = _config_echo(args, arity=defn.arity)
    return result, config, EXIT_NEGATIVE if failed else EXIT_OK


def _config_echo(args, **extra) -> dict:
    config = {
        "command": args.command,
        "prime": args.prime,
        "precision": args.precision,
        "seed": args.seed,
        "budget": args.budget,
        "format": args.format,
    }
    if args.expr is not None:
        config["expr"] = args.expr
    if getattr(args, "func", None) is not None:
        config["func"] = str(args.func)
    if getattr(args, "table", None) is not None:
        config["table"] = str(args.table)
    if getattr(args, "samples", None) is not None:
        config["samples"] = args.samples
    config.update(extra)
    return config


_DISPATCH = {
    "expand": _cmd_expand,
    "eval": _cmd_eval,
    "lipschitz": _cmd_lipschitz,
    "roots": _cmd_roots,
    "lift": _cmd_lift,
    "wellposed": _cmd_wellposed,
}


def _render_text(payload: dict) -> str:
    lines = [f"command: {payload['config']['command']}"]
    result = payload["result"]

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}{key}.", value[key])
        elif isinstance(value, list) and (
            len(value) > 8 or any(isinstance(v, (dict, list)) for v in value)
        ):
            lines.append(f"{prefix[:-1]}: [{len(value)} entries]")
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    walk("", result)
    return "\n".join(lines)


def _fail(code: int, category: str, message: str) -> int:
    print(json.dumps({"error": {"category": category, "message": message}}),
          file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_common(args)
        result, config, code = _DISPATCH[args.command](args)
        if args.output is not None:
            artifact = result.get("table", result)
            args.output.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    except ParseError as exc:
        return _fail(EXIT_CONFIG, "parse-error", str(exc))
    except (InvalidPrimeError, EnumerationBudgetError, PreconditionError,
            ValueError, OSError, KeyError) as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))
    except PrecisionExhaustedError as exc:
        return _fail(EXIT_PRECISION, "precision", str(exc))
    except PadicError as exc:
        return _fail(EXIT_EVALUATION, "evaluation", str(exc))
    except Exception as exc:  # a bug, not a verdict: never exit 1 or with a traceback
        return _fail(EXIT_EVALUATION, "internal", f"{type(exc).__name__}: {exc}")

    payload = {"command": args.command, "config": config, "result": result}
    try:
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(_render_text(payload))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; the interpreter's last flush must not retry
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
