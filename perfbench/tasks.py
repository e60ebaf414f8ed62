"""Seeded task streams for the three workloads.

Each workload cycles through a fixed list of task classes. A class fixes
what drives a task's cost (prime, level or target precision, body shape);
the seed shuffles the classes within every cycle and draws everything else
(coefficients, constants, weights, roots, sample seeds). Stratifying the
classes keeps the cost mix of a run the same from seed to seed, so runs
with different seeds measure the same load on different inputs.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from model import divp_budget, render

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "cli.json"


@dataclass(frozen=True)
class CertifyTask:
    index: int
    cls: str
    arity: int
    prime: int
    level: int
    digits: int
    work: int  # evaluation precision: digits + divp budget, as the CLI does
    alpha: tuple[int, ...]
    node: tuple
    text: str
    samples: int
    sample_seed: int
    recon_points: tuple


@dataclass(frozen=True)
class LiftTask:
    index: int
    cls: str
    arity: int
    prime: int
    root_level: int
    target: int
    node: tuple
    text: str
    fixed: int | None  # bivariate only: the frozen second coordinate
    expect: str  # "lifted" or "condition-failed"


@dataclass(frozen=True)
class CliTask:
    index: int
    cls: str
    key: str  # golden entry
    argv: tuple[str, ...]


# ---------------------------------------------------------------------------
# certify

def _unit(rng: random.Random, p: int, hi: int = 9) -> int:
    while True:
        v = rng.randint(1, hi)
        if v % p:
            return v


def _small(rng: random.Random) -> int:
    return rng.choice([-1, 1]) * rng.randint(1, 9)


def _rational(rng: random.Random, p: int) -> tuple:
    return ("c", _small(rng), _unit(rng, p))


def _fermat(p: int, j: int = 1) -> tuple:
    x = ("x", j)
    return ("divp", ("-", x, ("^", x, p)), 1)


def _shape_poly(rng, p):
    x = ("x", 1)
    body = _rational(rng, p)
    for e in (1, 2, 3):
        body = ("+", body, ("*", ("c", _small(rng), 1), ("^", x, e) if e > 1 else x))
    return body


def _shape_divp(rng, p):
    x = ("x", 1)
    return ("+", ("+", _fermat(p), ("*", ("c", _small(rng), 1), ("^", x, 2))),
            _rational(rng, p))


def _shape_digitsum(rng, p):
    coeffs = (_unit(rng, p), _small(rng), p)
    return ("+", ("+", ("c", _small(rng), 1), ("ds", 1, coeffs, rng.randint(1, 3))),
            ("*", ("c", _small(rng), 1), ("x", 1)))


def _shape_mix(rng, p):
    # a unit multiple of the divp term, so that alpha = 0 is always violated
    unit = rng.choice([-1, 1]) * _unit(rng, p)
    return ("+", ("+", ("*", ("c", unit, 1), _fermat(p)),
                  ("ds", 1, (_unit(rng, p), 1), 2)), _rational(rng, p))


def _shape_bi_divp(rng, p):
    x1, x2 = ("x", 1), ("x", 2)
    return ("+", ("+", _fermat(p), ("*", ("*", ("c", _small(rng), 1), ("^", x2, 2)), x1)),
            ("c", _small(rng), 1))


def _shape_bi_mix(rng, p):
    x1, x2 = ("x", 1), ("x", 2)
    body = ("+", ("ds", 2, (_unit(rng, p), 1), rng.randint(1, 3)),
            ("*", ("c", _small(rng), 1), ("^", x1, 3)))
    body = ("-", body, ("*", ("*", ("c", _small(rng), 1), x1), x2))
    return ("+", body, _rational(rng, p))


_CERTIFY_SHAPES = {
    "poly": (1, _shape_poly),
    "divp": (1, _shape_divp),
    "digitsum": (1, _shape_digitsum),
    "mix": (1, _shape_mix),
    "bi-divp": (2, _shape_bi_divp),
    "bi-mix": (2, _shape_bi_mix),
}

# (shape, p, level K, digits N, alpha). The grid has p^(K n) points. The
# weight is part of the class, not drawn per task: whether the bound holds
# decides whether normalization runs, so a drawn weight would make a class's
# cost vary from seed to seed. Both verdicts occur in every cycle. Sixteen
# classes cost between about 70 and 160 ms on a 2-vCPU Xeon VM, so the median
# sits on a flat stretch; the last four, bivariate and near 300-400 ms, form
# the slow tail that task_p90_ms sees.
CERTIFY_CLASSES = (
    ("digitsum", 2, 9, 20, (0,)), ("mix", 5, 4, 12, (0,)), ("mix", 7, 3, 20, (1,)),
    ("divp", 5, 4, 12, (0,)), ("digitsum", 3, 6, 12, (1,)), ("digitsum", 7, 3, 20, (2,)),
    ("poly", 2, 9, 16, (0,)),
    ("divp", 2, 10, 12, (1,)), ("bi-divp", 2, 5, 12, (0, 1)), ("bi-mix", 3, 3, 14, (0, 0)),
    ("poly", 2, 10, 16, (2,)), ("mix", 3, 6, 14, (0,)), ("bi-divp", 5, 2, 16, (1, 0)),
    ("poly", 3, 6, 14, (0,)), ("mix", 2, 10, 12, (2,)), ("bi-mix", 3, 3, 20, (1, 1)),
    ("bi-divp", 2, 6, 10, (1, 1)), ("bi-divp", 2, 6, 12, (0, 0)), ("bi-mix", 7, 2, 16, (0, 1)),
    ("bi-divp", 7, 2, 20, (1, 0)),
)

CERTIFY_SAMPLES = 200
CERTIFY_RECON_POINTS = 8


def _certify_task(rng: random.Random, index: int, cls) -> CertifyTask:
    shape, p, level, digits, alpha = cls
    arity, make = _CERTIFY_SHAPES[shape]
    node = make(rng, p)
    side = p**level
    recon = tuple(
        rng.randrange(side) if arity == 1 else tuple(rng.randrange(side) for _ in range(arity))
        for _ in range(CERTIFY_RECON_POINTS)
    )
    return CertifyTask(
        index=index,
        cls=f"{shape}/p{p}/K{level}/N{digits}/alpha{','.join(map(str, alpha))}",
        arity=arity,
        prime=p,
        level=level,
        digits=digits,
        work=digits + divp_budget(node),
        alpha=alpha,
        node=node,
        text=render(node),
        samples=CERTIFY_SAMPLES,
        sample_seed=rng.randrange(2**31),
        recon_points=recon,
    )


# ---------------------------------------------------------------------------
# lift

def _lift_power(rng, p, d):
    r0 = rng.randint(1, p - 1)
    a = r0**d + p * rng.randint(0, 10**6)
    return ("-", ("^", ("x", 1), d), ("c", a, 1)), None


def _lift_digitmap(rng, p, e):
    a0 = rng.randint(1, p - 1)
    d0 = rng.randint(1, p - 1)
    c = a0 * d0**e % p + p * rng.randint(0, 10**3)
    return ("+", ("c", -c, 1), ("ds", 1, (a0, 0, 0, p), e)), None


def _lift_bivariate(rng, p, d, root_level):
    r1 = rng.randint(1, p - 1)
    r2 = rng.randrange(p**root_level)
    b = _unit(rng, p)
    a = r1**d + b * r2**2 + p * rng.randint(0, 10**6)
    x1, x2 = ("x", 1), ("x", 2)
    body = ("-", ("+", ("^", x1, d), ("*", ("c", b, 1), ("^", x2, 2))), ("c", a, 1))
    return body, r2


def _lift_neg_square(rng, p, _):
    # x^2 - a with a = 1 mod 8 at p = 2: every level's condition set is {0}.
    return ("-", ("^", ("x", 1), 2), ("c", 1 + 8 * rng.randint(0, 10**4), 1)), None


def _lift_neg_wild(rng, p, _):
    # x^p - a: the normalized differences all vanish mod p.
    r = rng.randint(1, p - 1)
    return ("-", ("^", ("x", 1), p), ("c", r**p + p * p * rng.randint(0, 10**4), 1)), None


# (shape, p, shape parameter, root level k, target precision N). Costs on a
# 2-vCPU Xeon VM fall in bands: 3 negative controls (about 2 ms), 4 classes
# near 30 ms, 8 near 80 ms (where the median sits), 1 near 150 ms and 4 near
# 400 ms (where task_p90_ms sits).
LIFT_CLASSES = (
    ("neg-square", 2, 0, 3, 100), ("neg-wild", 3, 0, 1, 50), ("neg-wild", 5, 0, 1, 200),
    ("power", 5, 3, 2, 50), ("digitmap", 7, 5, 1, 50), ("bivariate", 3, 2, 2, 50),
    ("power", 7, 5, 2, 50),
    ("power", 5, 3, 1, 100), ("power", 2, 3, 3, 150), ("digitmap", 5, 3, 2, 90),
    ("digitmap", 3, 1, 3, 110), ("bivariate", 5, 3, 1, 75), ("power", 3, 2, 1, 90),
    ("power", 2, 5, 2, 150), ("digitmap", 2, 3, 4, 150),
    ("bivariate", 2, 3, 3, 200),
    ("power", 2, 3, 1, 400), ("digitmap", 2, 2, 2, 350), ("digitmap", 3, 1, 3, 270),
    ("power", 5, 3, 1, 250),
)

_LIFT_SHAPES = {
    "power": (1, "lifted", _lift_power),
    "digitmap": (1, "lifted", _lift_digitmap),
    "bivariate": (2, "lifted", _lift_bivariate),
    "neg-square": (1, "condition-failed", _lift_neg_square),
    "neg-wild": (1, "condition-failed", _lift_neg_wild),
}


def _lift_task(rng: random.Random, index: int, cls) -> LiftTask:
    shape, p, param, root_level, target = cls
    arity, expect, make = _LIFT_SHAPES[shape]
    if shape == "bivariate":
        node, fixed = make(rng, p, param, root_level)
    else:
        node, fixed = make(rng, p, param)
    return LiftTask(
        index=index,
        cls=f"{shape}/p{p}/k{root_level}/N{target}",
        arity=arity,
        prime=p,
        root_level=root_level,
        target=target,
        node=node,
        text=render(node),
        fixed=fixed,
        expect=expect,
    )


# ---------------------------------------------------------------------------
# cli

QUINTIC = "-5 + digitsum(x1, 4 + 7*i^3, 5)"
FERMAT = "divp(x1 - x1^7, 1)"
CLI_SAMPLE_SEEDS = (0, 1, 2, 3)
CLI_SAMPLES = "200"

# The README commands, with the sampled checks cut to CLI_SAMPLES pairs so
# that start-up and serialization, not the sampled checks, dominate.
_CLI_COMMANDS = {
    "expand": ["expand", "--prime", "7", "--expr", FERMAT, "--level", "3",
               "--precision", "9", "--output", "table.json"],
    "lipschitz-table": ["lipschitz", "--prime", "7", "--table", "table.json",
                        "--alpha", "1", "--samples", CLI_SAMPLES],
    "lipschitz-vars2": ["lipschitz", "--prime", "7", "--vars", "2", "--expr",
                        FERMAT + " + x2", "--alpha", "1,0", "--level", "2",
                        "--precision", "8", "--samples", CLI_SAMPLES],
    "roots": ["roots", "--prime", "7", "--expr", QUINTIC, "--level", "1"],
    "lift": ["lift", "--prime", "7", "--expr", QUINTIC, "--start", "5", "--l0", "1",
             "--alpha", "0", "--target-precision", "10"],
    "wellposed": ["wellposed", "--prime", "7", "--expr", FERMAT, "--samples", CLI_SAMPLES],
    "eval": ["eval", "--prime", "7", "--expr", QUINTIC, "--point", "2024",
             "--precision", "10"],
}
_SAMPLED = ("lipschitz-table", "lipschitz-vars2", "wellposed")

# The warm-up invocation of the cli set-up; it also writes table.json.
CLI_WARMUP_KEY = "expand/json"


def cli_pool() -> dict[str, list[str]]:
    """Every cli command the workload can issue, by golden key."""
    pool: dict[str, list[str]] = {"help": ["--help"]}
    for name, argv in _CLI_COMMANDS.items():
        for fmt in ("json", "text"):
            seeds = CLI_SAMPLE_SEEDS if name in _SAMPLED else (None,)
            for s in seeds:
                key = f"{name}/{fmt}" + ("" if s is None else f"/seed{s}")
                extra = [] if s is None else ["--seed", str(s)]
                pool[key] = argv + extra + ["--format", fmt]
    return pool


# One cycle: every command in both formats, --help, and the slowest command
# (lipschitz --vars 2) twice more, so that its band holds the 90th percentile.
CLI_CLASSES = tuple(
    [(name, fmt) for name in _CLI_COMMANDS for fmt in ("json", "text")]
    + [("help", None), ("lipschitz-vars2", "json"), ("lipschitz-vars2", "text")]
)


def _cli_task(rng: random.Random, index: int, cls, pool) -> CliTask:
    name, fmt = cls
    label = "help" if name == "help" else f"{name}/{fmt}"
    key = label
    if name in _SAMPLED:
        key += f"/seed{rng.choice(CLI_SAMPLE_SEEDS)}"
    return CliTask(index=index, cls=label, key=key, argv=tuple(pool[key]))


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


# ---------------------------------------------------------------------------

CLASSES = {"certify": CERTIFY_CLASSES, "lift": LIFT_CLASSES, "cli": CLI_CLASSES}


def generate(workload: str, seed: int, count: int, classes=None) -> list:
    """The first `count` tasks of a workload's seeded stream."""
    classes = CLASSES[workload] if classes is None else classes
    rng = random.Random(f"{workload}:{seed}")
    pool = cli_pool() if workload == "cli" else None
    tasks = []
    while len(tasks) < count:
        cycle = list(classes)
        rng.shuffle(cycle)
        for cls in cycle:
            if len(tasks) == count:
                break
            index = len(tasks)
            if workload == "certify":
                tasks.append(_certify_task(rng, index, cls))
            elif workload == "lift":
                tasks.append(_lift_task(rng, index, cls))
            else:
                tasks.append(_cli_task(rng, index, cls, pool))
    return tasks


def cycle_length(workload: str) -> int:
    return len(CLASSES[workload])


def describe(task) -> str:
    if isinstance(task, CliTask):
        return task.key
    return f"{task.cls} {task.text!r}"

