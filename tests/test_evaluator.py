"""One evaluator contract: every consumer takes F through core's `on_residues`.

A FuncDef serves its compiled form on residue tuples; a plain callable on
points is wrapped once. Both must give every consumer the same result, the
plain callable must be called exactly as often as the closed forms say, and
a FuncDef of another arity must be refused before anything is evaluated.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicvdp.dsl import FuncDef, divp_budget, parse, well_defined_check
from padicvdp.hensel import (
    brute_force_roots_multi,
    hensel_lift_multi,
    well_defined_residue_check,
)
from padicvdp.vdp import sampled_weighted_lip_check, vdp_expand_multi

from support import evaluate_tree, random_total_expr

# each consumer at arity n, with small settings at p = 3
CONSUMERS = {
    "expand": lambda F, n: vdp_expand_multi(F, 1, n, 3, 3),
    "pairs": lambda F, n: sampled_weighted_lip_check(F, (0,) * n, 10, n, 3, 3),
    "totality": lambda F, n: well_defined_check(F, n, 3, 3, 10),
    "lift": lambda F, n: hensel_lift_multi(F, (0,) * n, (0,) * n, 1, 3, 3),
    "residues": lambda F, n: well_defined_residue_check(F, 2, (0,) * n, n, 3, 10),
    "roots": lambda F, n: brute_force_roots_multi(F, 2, (0,) * n, n, 3),
}


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
@pytest.mark.parametrize("arity, applied", [(2, 1), (1, 2)])
def test_a_funcdef_of_another_arity_is_refused_before_any_evaluation(consumer, arity, applied):
    # evaluated, 2 -> 1 would index past the tuple and 1 -> 2 would silently succeed
    defn = FuncDef(arity, parse(" * ".join(f"x{j}" for j in range(1, arity + 1)), arity))
    message = f"function of arity {arity} applied to point of arity {applied}"
    with pytest.raises(ValueError, match=message):
        CONSUMERS[consumer](defn, applied)


def outcome(consumer, *args, **kwargs):
    try:
        return consumer(*args, **kwargs)
    except Exception as exc:  # parity covers an undecided or failed check as well
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 2), st.integers(0, 2**32))
def test_a_funcdef_and_the_tree_walk_give_every_consumer_the_same_result(p, n, seed):
    rng = random.Random(seed)
    body = random_total_expr(rng, n, p)
    defn, calls = FuncDef(n, body), []

    def plain(x):
        calls.append(x)
        return evaluate_tree(body, x)

    def both(consumer, *args, **kwargs):
        """The consumer's outcome for the FuncDef and the plain callable, and the calls made."""
        calls.clear()
        want = outcome(consumer, plain, *args, **kwargs)
        assert outcome(consumer, defn, *args, **kwargs) == want
        return want, len(calls)

    budget = divp_budget(body)
    level = 2 if p ** (2 * n) <= 100 else 1
    work = level + 1 + budget
    _, count = both(vdp_expand_multi, level, n, p, work)
    assert count == p ** (level * n)

    alpha = tuple(rng.randrange(budget + 1) for _ in range(n))
    both(sampled_weighted_lip_check, alpha, 40, n, p, work, seed=seed)
    both(well_defined_check, n, p, work, 40, seed=seed)
    both(well_defined_residue_check, level, (0,) * n, n, p, 40, seed=seed,
         eval_precision=level + 2 + budget)

    roots, count = both(brute_force_roots_multi, level, (0,) * n, n, p,
                        eval_precision=level + budget)
    assert count == p ** (level * n)

    target = 4
    for root in roots[:2]:
        trace, count = both(hensel_lift_multi, (0,) * n, root, level, target, p,
                            coordinate=1, eval_precision=target + budget)
        # one start check, p per level (the base value and p - 1 shifts), one replay if lifted
        if trace.status == "lifted":
            assert count == 2 + p * len(trace.levels)
        else:
            assert trace.status == "condition-failed"
            assert count == 1 + p * len(trace.levels)
