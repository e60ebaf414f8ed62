"""One evaluator contract: every consumer takes F through core's `on_residues`.

A FuncDef serves its compiled form on residue tuples, a VdpTable its partial
sum from the level-K grid; a plain callable on points is wrapped once. Each
must give every consumer the same result as the plain callable, which must be
called exactly as often as the closed forms say. An evaluator that cannot
serve the consumer's arity, prime or precision is refused before anything is
evaluated.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicvdp.core import PrecisionExhaustedError, from_integer
from padicvdp.dsl import FuncDef, divp_budget, parse, well_defined_check
from padicvdp.hensel import (
    brute_force_roots_multi,
    hensel_lift_multi,
    hensel_lift_uni,
    roots_mod_uni,
    well_defined_residue_check,
)
from padicvdp.vdp import (
    VdpTable,
    sampled_lip_check_uni,
    sampled_weighted_lip_check,
    vdp_eval_multi,
    vdp_expand_multi,
    vdp_expand_uni,
)

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

# the arity-1 shims that take an evaluator, with the same settings
UNI_CONSUMERS = {
    "expand": lambda f: vdp_expand_uni(f, 1, 3, 3),
    "pairs": lambda f: sampled_lip_check_uni(f, 0, 10, 3, 3),
    "lift": lambda f: hensel_lift_uni(f, 0, 0, 1, 3, 3),
    "roots": lambda f: roots_mod_uni(f, 0, 2, 3),
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


@st.composite
def tables(draw):
    """A table at p = 3, arity 1 or 2, level 1 or 2, each coefficient with its own precision."""
    p, arity, level = 3, draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n, rng = draw(st.integers(1, 4)), random.Random(draw(st.integers(0, 2**32)))
    coeffs = tuple(from_integer(rng.randrange(p**n), p, rng.randint(1, n))
                   for _ in range(p ** (level * arity)))
    return VdpTable(prime=p, level=level, coeffs=coeffs, arity=arity)


@settings(max_examples=40, deadline=None)
@given(tables())
def test_a_table_and_its_lookup_give_every_consumer_the_same_result(table):
    n = table.arity
    lookup = lambda x: vdp_eval_multi(table, x)  # a plain callable, wrapped by core
    for consumer in CONSUMERS.values():
        assert outcome(consumer, table, n) == outcome(consumer, lookup, n)
    if n == 1:
        for consumer in UNI_CONSUMERS.values():
            assert outcome(consumer, table) == outcome(consumer, lookup)


class SpyTable(VdpTable):
    """A table that records every evaluation of the form it serves."""

    def on_residues(self, p, n, arity):
        f = super().on_residues(p, n, arity)
        return lambda xs: self.calls.append(xs) or f(xs)


def spy_table(prime: int, level: int, arity: int) -> SpyTable:
    table = SpyTable(prime, level, (from_integer(0, prime, 5),) * prime ** (level * arity), arity)
    object.__setattr__(table, "calls", [])
    return table


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
@pytest.mark.parametrize("table, applied, error, message", [
    ((3, 1, 2), 1, ValueError, "point arity 1, table arity 2"),
    ((3, 1, 1), 2, ValueError, "point arity 2, table arity 1"),
    ((5, 1, 1), 1, ValueError, "point prime 3 does not match table prime 5"),
    ((3, 5, 1), 1, PrecisionExhaustedError, "a table at level 5 needs 5 digits, known [234]"),
], ids=["arity-2-at-1", "arity-1-at-2", "prime", "precision"])
def test_a_table_that_cannot_serve_is_refused_before_any_evaluation(
        consumer, table, applied, error, message):
    table = spy_table(*table)
    with pytest.raises(error, match=message):
        CONSUMERS[consumer](table, applied)
    assert table.calls == []
