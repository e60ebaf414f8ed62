"""padicvdp benchmark: seeded workloads, integer-model checks, layer tracing.

Run from the root of a checkout (standard library only):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Workloads (see tasks.py for the generated inputs):

    certify  expand a random uni- or bivariate function into its van der Put
             table, check the Lipschitz bound, normalize, run a sampled pair
             check and reconstruct sampled grid points. Loads dsl, core and
             both vdp modules at low precision; hensel does no work.
    lift     enumerate residue roots at a small level, then lift each one to
             50..400 digits. Loads hensel and core at high precision; the
             vdp modules do no work.
    cli      README commands as `python -m padicvdp` subprocesses, one at a
             time, compared byte for byte with golden output. Pays for
             interpreter start, import, argparse and JSON.

Every workload is a closed loop: one process, one task in flight, no
threads. With --trace 0 the run executes whole class cycles for about
--seconds of wall time (and at least MIN_TASKS tasks) and reports the
end-to-end metrics over all its tasks, each task at its class's best
latency in the run (see end_to_end). Every task is checked against the
integer model (or its golden output) after its clock stops. With --trace 1
the run executes a fixed number of tasks twice, untraced and traced in
alternating order, then a fixed layer probe (probe.py), and reports
per-layer metrics; --seconds does not apply.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it is a report with the environment, the seed, task
counts, failed_frac (failed / attempted), the bases of every ratio and the
failing tasks, listed by seed and index. Spans of a traced run are written
to perfbench/_work/trace-<workload>-seed<seed>.json.
"""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
# keep bytecode of everything this process imports out of the source tree
sys.pycache_prefix = str(WORK / "pycache")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter  # noqa: E402

import oracle  # noqa: E402
import tasks as taskgen  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = ("certify", "lift", "cli")

END_TO_END = {
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"core.{op}_us.N{n}": "us"
       for op in ("add", "mul", "from_integer") for n in (20, 200, 2000)},
    "dsl.evals": "count",
    "dsl.busy_s": "s",
    "dsl.eval_us": "us",
    "dsl.parse_ms": "ms",
    "vdp_uni.expand.self_s": "s",
    "vdp_uni.check_s": "s",
    "vdp_uni.sampled.self_s": "s",
    "vdp_uni.eval_s": "s",
    "vdp_multi.expand.self_s": "s",
    "vdp_multi.expand.evals": "count",
    "vdp_multi.check_s": "s",
    "vdp_multi.sampled.self_s": "s",
    "hensel.roots.self_s": "s",
    "hensel.roots.evals": "count",
    "hensel.lift.self_s": "s",
    "hensel.lift.evals": "count",
    "hensel.lift.ms_per_level.N100": "ms",
    "hensel.lift.ms_per_level.N400": "ms",
    "cli.import_ms": "ms",
    "cli.help_ms": "ms",
    **{f"cli.{c}_ms": "ms"
       for c in ("expand", "eval", "lipschitz", "roots", "lift", "wellposed")},
    "cli.stdout_bytes": "bytes",
    "trace.overhead_frac": "1",
}

POOL_CYCLES = 50  # class cycles generated and prepared in set-up; a run wraps around
MIN_TASKS = 100  # so that at least ten latencies lie beyond the 90th percentile
TRACE_CYCLES = 2  # class cycles run untraced and traced in a traced run
SETUP_REPS = 7  # set-up measurements per run, spread over its cycles; the median is reported
MAX_WALL_S = 150  # stop a timed loop here whatever else holds


class Settings:
    """Sizes of one run; smoke mode shrinks every repetition count."""

    def __init__(self, workload: str, smoke: bool):
        self.pool = (2 if smoke else POOL_CYCLES) * taskgen.cycle_length(workload)
        self.min_tasks = 3 if smoke else MIN_TASKS
        self.setup_reps = 1 if smoke else SETUP_REPS
        self.probe_reps = 1 if smoke else 5
        self.cli_reps = 1 if smoke else 3
        self.core_scale = 0.02 if smoke else 1.0
        self.smoke = smoke

    def trace_tasks(self, workload: str) -> int:
        return 2 if self.smoke else TRACE_CYCLES * taskgen.cycle_length(workload)


# ---------------------------------------------------------------------------
# environment

def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        PYTHONHASHSEED="0",
        COLUMNS="80",
    )
    return env


def git_rev() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "padicvdp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# set-up

def setup_child(workload: str, seed: int, pool: int) -> int:
    """Print the seconds to import the library and prepare every task."""
    sys.path.insert(0, str(SRC))
    generated = taskgen.generate(workload, seed, pool)
    t0 = perf_counter()
    import workloads

    for task in generated:
        workloads.prepare(task)
    print(perf_counter() - t0)
    return 0


class SetupProbe:
    """One set-up measurement per call, each in a fresh process.

    certify, lift: import padicvdp and prepare every task of the pool
    (parse into a FuncDef and build the evaluator), timed inside the child.
    cli: one warm-up invocation, timed from outside, after deleting the
    package's bytecode so that each measurement includes compiling it.
    """

    def __init__(self, args, cfg: Settings):
        self.env = child_env()
        self.workload = args.workload
        if args.workload == "cli":
            self.package_pyc = Path(str(WORK / "pycache") + str(SRC))
            self.argv = [sys.executable, "-m", "padicvdp",
                         *taskgen.cli_pool()[taskgen.CLI_WARMUP_KEY]]
            self.want = taskgen.load_golden()[taskgen.CLI_WARMUP_KEY]
        else:
            self.argv = [sys.executable, str(HERE / "run.py"), "--setup-child", "--workload",
                         args.workload, "--seed", str(args.seed), "--pool", str(cfg.pool)]
        self.times: list[float] = []
        self.checked = self.mismatches = 0  # cli warm-ups compared with the golden output
        self.once()  # warm-up: fills the bytecode cache, not counted
        self.times.clear()

    def once(self) -> None:
        if self.workload == "cli":
            shutil.rmtree(self.package_pyc, ignore_errors=True)
            t0 = perf_counter()
            proc = subprocess.run(self.argv, cwd=WORK / "cli", env=self.env,
                                  capture_output=True, timeout=120)
            self.times.append(perf_counter() - t0)
            self.checked += 1
            if proc.returncode != self.want["exit"] or proc.stdout != self.want["stdout"].encode():
                self.mismatches += 1
            return
        proc = subprocess.run(self.argv, env=self.env, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        self.times.append(float(proc.stdout.split()[-1]))


# ---------------------------------------------------------------------------
# running tasks

class Runner:
    """Executes and checks tasks of one workload, collecting failures."""

    def __init__(self, workload: str, seed: int):
        import workloads

        self.workload = workload
        self.seed = seed
        self.failures: list[dict] = []
        self.attempted = 0
        env = child_env()
        if workload == "certify":
            self.execute, self.check = workloads.run_certify, oracle.check_certify
        elif workload == "lift":
            self.execute, self.check = workloads.run_lift, oracle.check_lift
        else:
            golden = taskgen.load_golden()
            self.execute = lambda prep, tr: workloads.run_cli(prep, tr, WORK / "cli", env)
            self.check = lambda task, out: oracle.check_cli(task, out, golden)

    def run(self, prep, tr) -> float:
        """Latency of one task; the check runs after the clock stops."""
        t0 = perf_counter()
        try:
            out = self.execute(prep, tr)
            error = None
        except Exception as exc:  # a task that raises is a failed task, not a crash
            out, error = None, exc
        elapsed = perf_counter() - t0
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
        else:
            problems = self.check(prep.task, out)
        if tr is not None:
            problems += tr.count_problems
            tr.count_problems.clear()
        self.record(prep.task, problems)
        return elapsed

    def record(self, task, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append({
                "seed": self.seed,
                "index": task.index,
                "task": taskgen.describe(task),
                "problems": problems[:3],
            })


def timed_loop(runner: Runner, prepared: list, seconds: float, cfg: Settings,
               setup: SetupProbe) -> list[list[tuple[str, float]]]:
    """(class, latency) of every task by class cycle, for about `seconds` of wall time.

    Stopping only at a cycle boundary keeps every class's share of the run
    exact, so runs with different seeds measure the same mix; the loop stops
    before a cycle that would end past the deadline, so a run's length does
    not depend on how long its last cycle is. One set-up measurement follows
    each of the first cycles, so that they sample the machine across the run
    rather than at one moment.
    """
    step = cfg.min_tasks if cfg.smoke else taskgen.cycle_length(runner.workload)
    cycles: list[list[tuple[str, float]]] = []
    walls: list[float] = []  # wall time of each cycle with the set-up after it
    done = 0
    wall0 = perf_counter()
    deadline = wall0 + min(seconds, MAX_WALL_S)
    while True:
        start = perf_counter()
        cycle = []
        for _ in range(step):
            prep = prepared[done % len(prepared)]
            cycle.append((prep.task.cls, runner.run(prep, None)))
            done += 1
        cycles.append(cycle)
        if len(setup.times) < cfg.setup_reps:
            setup.once()
        walls.append(perf_counter() - start)
        if cfg.smoke or perf_counter() - wall0 > MAX_WALL_S:
            break
        if done >= cfg.min_tasks and perf_counter() + statistics.median(walls) > deadline:
            break
    while len(setup.times) < cfg.setup_reps:
        setup.once()
    return cycles


def percentile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(args, cfg: Settings, runner: Runner, prepared: list):
    setup = SetupProbe(args, cfg)
    cycles = timed_loop(runner, prepared, args.seconds, cfg, setup)
    runner.attempted += setup.checked
    if setup.mismatches:
        runner.failures.append({
            "seed": args.seed, "index": "setup", "task": taskgen.CLI_WARMUP_KEY,
            "problems": [f"{setup.mismatches} of {setup.checked} warm-up invocations "
                         "differ from the golden output"],
        })
    if args.workload == "cli":
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    observed = [t for cycle in cycles for _, t in cycle]
    best: dict[str, float] = {}
    for cycle in cycles:
        for cls, t in cycle:
            best[cls] = min(t, best.get(cls, t))
    # Each task counts at its class's best latency in the run: load from other
    # tenants of the host only ever adds time, and it comes in bursts and
    # minutes-long phases that move whole-run means and percentiles by more
    # than a regression bound. Every cycle runs the same mix, so the
    # percentiles below are those of the mix at its best observed speed.
    latencies = [best[cls] for cycle in cycles for cls, _ in cycle]
    metrics = {
        "tasks_per_s": len(latencies) / sum(latencies),
        "task_p50_ms": statistics.median(latencies) * 1e3,
        "task_p90_ms": percentile90(latencies) * 1e3,
        "setup_s": statistics.median(setup.times),
        "peak_rss_mb": rss_kib / 1024,
    }
    bases = {
        "tasks": len(latencies),
        "cycles": len(cycles),
        "classes": len(best),
        "runs_per_class": Counter(cls for cycle in cycles for cls, _ in cycle),
        "timed_s": sum(observed),
        "best_ms": {cls: t * 1e3 for cls, t in best.items()},
        # the same statistics over every observed latency, for comparison
        "observed": {
            "tasks_per_s": len(observed) / sum(observed),
            "task_p50_ms": statistics.median(observed) * 1e3,
            "task_p90_ms": percentile90(observed) * 1e3,
        },
        "cycle_s": [sum(t for _, t in cycle) for cycle in cycles],
        "setup_times_s": setup.times,
    }
    return metrics, bases


def traced(args, cfg: Settings, runner: Runner, prepared: list):
    """Per-layer metrics: paired untraced/traced tasks, then the layer probe."""
    import probe
    import workloads

    tr = Tracer()
    untraced_s = traced_s = 0.0
    count = cfg.trace_tasks(args.workload)
    for i in range(count):
        prep = prepared[i % len(prepared)]
        for mode in ((None, tr) if i % 2 == 0 else (tr, None)):
            tr.task = prep.task.index
            elapsed = runner.run(prep, mode)
            if mode is None:
                untraced_s += elapsed
            else:
                traced_s += elapsed

    lift_ms_per_level = {}
    for workload, task in probe.sweep_tasks(args.seed):
        label = f"probe:{task.cls}"
        tr.task = label
        sweep_runner = Runner(workload, args.seed)
        sweep_runner.run(workloads.prepare(task), tr)
        for failure in sweep_runner.failures:
            failure["index"] = label
        runner.failures += sweep_runner.failures
        runner.attempted += sweep_runner.attempted
        if workload == "lift":
            spent = sum(s[2] - s[1] for s in tr.spans if s[0] == "hensel.lift" and s[4] == label)
            lift_ms_per_level[task.target] = spent / (task.target - task.root_level) * 1e3

    summary = tr.summary()
    tr.write(WORK / f"trace-{args.workload}-seed{args.seed}.json")

    def row(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "evals": 0})

    evals = row("dsl.eval")["calls"]
    busy = row("dsl.eval")["total_s"]
    metrics = probe.core(args.seed, cfg.probe_reps, cfg.core_scale)
    metrics.update({
        "dsl.evals": evals,
        "dsl.busy_s": busy,
        "dsl.eval_us": busy / evals * 1e6,
        "dsl.parse_ms": probe.parse_ms(args.seed, cfg.probe_reps),
        "vdp_uni.expand.self_s": row("vdp_uni.expand")["self_s"],
        "vdp_uni.check_s": row("vdp_uni.check")["total_s"],
        "vdp_uni.sampled.self_s": row("vdp_uni.sampled")["self_s"],
        "vdp_uni.eval_s": row("vdp_uni.eval")["total_s"],
        "vdp_multi.expand.self_s": row("vdp_multi.expand")["self_s"],
        "vdp_multi.expand.evals": row("vdp_multi.expand")["evals"],
        "vdp_multi.check_s": row("vdp_multi.check")["total_s"],
        "vdp_multi.sampled.self_s": row("vdp_multi.sampled")["self_s"],
        "hensel.roots.self_s": row("hensel.roots")["self_s"],
        "hensel.roots.evals": row("hensel.roots")["evals"],
        "hensel.lift.self_s": row("hensel.lift")["self_s"],
        "hensel.lift.evals": row("hensel.lift")["evals"],
        "hensel.lift.ms_per_level.N100": lift_ms_per_level[100],
        "hensel.lift.ms_per_level.N400": lift_ms_per_level[400],
    })
    cli_metrics, cli_problems = probe.cli(taskgen.load_golden(), WORK / "cli", child_env(),
                                          cfg.cli_reps)
    metrics.update(cli_metrics)
    runner.attempted += 1
    if cli_problems:
        runner.failures.append({"seed": args.seed, "index": "probe:cli", "task": "cli probe",
                                "problems": cli_problems[:3]})
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    bases = {
        "paired_tasks": count,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tr.spans),
        "dsl.eval_us": {"busy_s": busy, "evals": evals},
        "span_summary": summary,
    }
    return metrics, bases


# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description="padicvdp benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes for the harness's own test; asserts nothing about time")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--pool", type=int, default=0, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "padicvdp" / "__init__.py").is_file():
        print(f"error: no padicvdp source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_child:
        return setup_child(args.workload, args.seed, args.pool)

    cfg = Settings(args.workload, args.smoke)
    (WORK / "cli").mkdir(parents=True, exist_ok=True)

    sys.path.insert(0, str(SRC))
    import workloads

    if not Path(workloads.parse.__code__.co_filename).resolve().is_relative_to(SRC):
        print("error: padicvdp was not imported from this checkout", file=sys.stderr)
        return 2
    generated = taskgen.generate(args.workload, args.seed, cfg.pool)
    prepared = [workloads.prepare(t) for t in generated]
    runner = Runner(args.workload, args.seed)

    if args.trace == 0:
        metrics, bases = end_to_end(args, cfg, runner, prepared)
        units = END_TO_END
    else:
        metrics, bases = traced(args, cfg, runner, prepared)
        units = PER_LAYER
    failed = len(runner.failures)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "attempted": runner.attempted,
        "failed": failed,
        "failed_frac": failed / runner.attempted,
        "bases": bases,
        "environment": environment(),
        "failures": runner.failures[:50],
    }
    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
