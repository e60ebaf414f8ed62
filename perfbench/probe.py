"""Layer probes for the traced run.

Every traced run, whatever its workload, also runs this fixed probe, so
each per-layer metric is measured on every workload:

- core: PadicInt add, mul and from_integer at N = 20, 200 and 2000;
- dsl: parse time per expression;
- one univariate and one bivariate certify task, and lifts at N = 100 and
  400 (p = 5), traced like workload tasks;
- cli: import time inside a fresh interpreter, --help, and one README
  command per subcommand, each checked against its golden output.
"""
from __future__ import annotations

import random
import statistics
import subprocess
import sys
from time import perf_counter

from padicvdp import from_integer, parse

import tasks as taskgen

CORE_PRIME = 5
CORE_SIZES = (20, 200, 2000)
CORE_LOOPS = {20: 2000, 200: 400, 2000: 40}

SWEEP = (
    ("certify", ("mix", 5, 4, 12, (1,))),
    ("certify", ("bi-divp", 3, 3, 12, (1, 0))),
    ("lift", ("power", 5, 3, 1, 100)),
    ("lift", ("power", 5, 3, 1, 400)),
)

# golden key per cli metric; expand comes first because lipschitz reads its table
CLI_PROBE = (
    ("expand", "expand/json"),
    ("eval", "eval/json"),
    ("lipschitz", "lipschitz-table/json/seed0"),
    ("roots", "roots/json"),
    ("lift", "lift/json"),
    ("wellposed", "wellposed/json/seed0"),
    ("help", "help"),
)

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import padicvdp; "
    "print((time.perf_counter() - t) * 1000)"
)


def _median_per_op_us(op, loops: int, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        for _ in range(loops):
            op()
        times.append((perf_counter() - t0) / loops * 1e6)
    return statistics.median(times)


def core(seed: int, reps: int, scale: float = 1.0) -> dict[str, float]:
    rng = random.Random(f"core:{seed}")
    p = CORE_PRIME
    out = {}
    for n in CORE_SIZES:
        loops = max(1, int(CORE_LOOPS[n] * scale))
        ka, kb = rng.randrange(p**n), rng.randrange(p**n)
        a, b = from_integer(ka, p, n), from_integer(kb, p, n)
        out[f"core.add_us.N{n}"] = _median_per_op_us(lambda: a + b, loops, reps)
        out[f"core.mul_us.N{n}"] = _median_per_op_us(lambda: a * b, loops, reps)
        out[f"core.from_integer_us.N{n}"] = _median_per_op_us(
            lambda: from_integer(ka, p, n), loops, reps)
    return out


def parse_ms(seed: int, reps: int) -> float:
    """Median over reps of the mean time to parse one generated expression."""
    sample = (taskgen.generate("certify", seed, taskgen.cycle_length("certify"))
              + taskgen.generate("lift", seed, taskgen.cycle_length("lift")))
    items = [(t.text, t.arity) for t in sample]
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        for text, arity in items:
            parse(text, arity)
        times.append((perf_counter() - t0) / len(items) * 1e3)
    return statistics.median(times)


def sweep_tasks(seed: int) -> list[tuple[str, object]]:
    return [
        (workload, taskgen.generate(workload, seed, 1, classes=[cls])[0])
        for workload, cls in SWEEP
    ]


def cli(golden: dict, cwd, env, reps: int) -> tuple[dict[str, float], list[str]]:
    """cli.* metrics, and the problems found against the golden outputs."""
    pool = taskgen.cli_pool()
    out: dict[str, float] = {}
    problems: list[str] = []
    stdout_bytes = 0
    for name, key in CLI_PROBE:
        times = []
        for rep in range(reps):
            t0 = perf_counter()
            proc = subprocess.run([sys.executable, "-m", "padicvdp", *pool[key]],
                                  cwd=cwd, env=env, capture_output=True, timeout=120)
            times.append((perf_counter() - t0) * 1e3)
            want = golden[key]
            if proc.returncode != want["exit"] or proc.stdout != want["stdout"].encode():
                problems.append(f"cli probe {key}: output differs from golden")
            if rep == 0:
                stdout_bytes += len(proc.stdout)
        out[f"cli.{name}_ms"] = statistics.median(times)
    imports = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"importing padicvdp failed: {proc.stderr.strip()[-500:]}")
        imports.append(float(proc.stdout))
    out["cli.import_ms"] = statistics.median(imports)
    out["cli.stdout_bytes"] = stdout_bytes
    return out, problems
