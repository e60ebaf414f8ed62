"""What one task of each workload does: set-up and the timed calls.

`prepare` is the per-task part of set-up (parse into a FuncDef and build
the evaluator); the `run_*` functions are the timed part. With a tracer,
every library call is a span named after its layer and the evaluator is
wrapped, so each expansion, root enumeration and lift also has its
evaluation count checked against the closed form.
"""
from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass

from padicvdp import (
    FuncDef,
    PadicPoint,
    as_point_function,
    as_univariate,
    from_integer,
    hensel_lift_multi,
    hensel_lift_uni,
    lip_alpha_check_uni,
    normalize_alpha,
    normalize_weighted,
    parse,
    projection,
    roots_mod_uni,
    sampled_lip_check_uni,
    sampled_weighted_lip_check,
    vdp_eval_multi,
    vdp_eval_uni,
    vdp_expand_multi,
    vdp_expand_uni,
    weighted_lip_bound_check,
)

from spans import call


@dataclass(frozen=True)
class Prepared:
    task: object
    fn: object  # evaluator; None for cli tasks


def prepare(task) -> Prepared:
    if not hasattr(task, "text"):
        return Prepared(task, None)
    defn = FuncDef(arity=task.arity, body=parse(task.text, task.arity), source=task.text)
    fn = as_univariate(defn) if task.arity == 1 else as_point_function(defn)
    return Prepared(task, fn)


def run_certify(prep: Prepared, tr) -> dict:
    t = prep.task
    f = prep.fn if tr is None else tr.wrap(prep.fn)
    p, level, work = t.prime, t.level, t.work
    if t.arity == 1:
        alpha = t.alpha[0]
        table = call(tr, "vdp_uni.expand", vdp_expand_uni, f, level, p, work,
                     evals=lambda _: p**level)
        verdict = call(tr, "vdp_uni.check", lip_alpha_check_uni, table, alpha)
        normalized = (call(tr, "vdp_uni.check", normalize_alpha, table, alpha)
                      if verdict.holds else None)
        pairs = call(tr, "vdp_uni.sampled", sampled_lip_check_uni, f, alpha, t.samples,
                     p, work, seed=t.sample_seed)
        recon = [call(tr, "vdp_uni.eval", vdp_eval_uni, table, from_integer(m, p, work))
                 for m in t.recon_points]
    else:
        n = t.arity
        table = call(tr, "vdp_multi.expand", vdp_expand_multi, f, level, n, p, work,
                     evals=lambda _: p ** (level * n))
        verdict = call(tr, "vdp_multi.check", weighted_lip_bound_check, table, t.alpha)
        normalized = (call(tr, "vdp_multi.check", normalize_weighted, table, t.alpha)
                      if verdict.holds else None)
        pairs = call(tr, "vdp_multi.sampled", sampled_weighted_lip_check, f, t.alpha,
                     t.samples, n, p, work, seed=t.sample_seed)
        recon = [call(tr, "vdp_multi.eval", vdp_eval_multi, table,
                      PadicPoint.from_integers(m, p, work))
                 for m in t.recon_points]
    return {"table": table, "verdict": verdict, "normalized": normalized,
            "pairs": pairs, "recon": recon}


def lift_evals(trace, p: int) -> int:
    """Closed-form evaluation count of a fixed-coordinate lift.

    One start check, p evaluations per recorded level (the base value and
    p - 1 shifted ones), and one final replay unless a level's condition
    set failed.
    """
    final = 0 if trace.status == "condition-failed" else 1
    return 1 + p * len(trace.levels) + final


def run_lift(prep: Prepared, tr) -> dict:
    # Lift bodies carry no divp, so evaluation precision equals the level.
    t = prep.task
    F = prep.fn if tr is None else tr.wrap(prep.fn)
    p, k, target = t.prime, t.root_level, t.target
    if t.arity == 1:
        residue_fn = F
    else:
        residue_fn = projection(F, 1, (from_integer(t.fixed, p, k),))
    roots = call(tr, "hensel.roots", roots_mod_uni, residue_fn, 0, k, p,
                 eval_precision=k, evals=lambda _: p**k)
    traces = []
    for r in roots:
        if t.arity == 1:
            trace = call(tr, "hensel.lift", hensel_lift_uni, F, 0, r, k, target, p,
                         eval_precision=target, evals=lambda tr_: lift_evals(tr_, p))
        else:
            trace = call(tr, "hensel.lift", hensel_lift_multi, F, (0, 0), (r, t.fixed), k,
                         target, p, coordinate=1, eval_precision=target,
                         evals=lambda tr_: lift_evals(tr_, p))
        traces.append(trace)
    return {"roots": roots, "traces": traces}


def run_cli(prep: Prepared, tr, cwd, env) -> tuple[int, bytes]:
    t = prep.task
    name = "cli." + t.key.split("/")[0]
    proc = call(tr, name, subprocess.run, [sys.executable, "-m", "padicvdp", *t.argv],
                cwd=cwd, env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout
