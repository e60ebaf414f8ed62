"""One evaluator contract: every consumer takes F through core's `on_columns`.

A FuncDef serves its compiled form on columns of residues, a VdpTable its
partial sum from the level-K grid; a plain callable on points is wrapped once
and called one point at a time. Each must give every consumer the same result
as the plain callable, which must be called exactly as often as the closed
forms say, and a FuncDef's column form must see exactly that many points. An
evaluator that cannot serve the consumer's arity, prime or precision is
refused before anything is evaluated.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicvdp.core import (
    InexactDivisionError,
    PrecisionExhaustedError,
    from_integer,
    on_columns,
)
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
    """A table that records every call of the form it serves."""

    def on_columns(self, p, n, arity):
        columns = super().on_columns(p, n, arity)
        return lambda cols, undefined: self.calls.append(cols) or columns(cols, undefined)


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


def test_a_funcdef_sees_the_closed_form_count_of_points():
    # the spy records the size of each column call; the closed forms are the traced
    # harness's: p^(K n) for expansion, p^(k n) for roots, and for a fixed-coordinate lift
    # the start, then per level the base point alone and its p - 1 shifts as one column,
    # then the replay
    sizes = []

    class Spy(FuncDef):
        def on_columns(self, p, n, arity):
            columns = super().on_columns(p, n, arity)
            return lambda cols, undefined: sizes.append(len(cols[0])) or columns(cols, undefined)

    def seen(consumer, *args, **kwargs):
        sizes.clear()
        return consumer(*args, **kwargs), list(sizes)

    F = Spy(2, parse("x1^2 + x2^2 + 1", 2))
    assert sum(seen(vdp_expand_multi, F, 2, 2, 7, 4)[1]) == 7**4
    assert sum(seen(brute_force_roots_multi, F, 2, (0, 0), 2, 7)[1]) == 7**4
    assert sum(seen(roots_mod_uni, Spy(1, parse("x1^2 - 2", 1)), 0, 3, 7)[1]) == 7**3

    for p, text, root in [(7, "x1^2 - 2", 3), (5, "x1^3 - 3", 2), (2, "x1 - 5", 1)]:
        trace, got = seen(hensel_lift_multi, Spy(1, parse(text, 1)), (0,), (root,), 1, 12, p,
                          coordinate=1)
        assert trace.status == "lifted" and len(trace.levels) == 11
        assert got == [1] + [1, p - 1] * len(trace.levels) + [1]
        assert sum(got) == 2 + p * len(trace.levels) and max(got) <= max(p - 1, 1)

    # the entry-level gap of a weighted start: the base's digit is checked first, so no
    # shifted point is evaluated
    trace, got = seen(hensel_lift_multi, Spy(2, parse("x1 + 0 * x2", 2)), (1, 0), (3, 0), 1, 6,
                      3, coordinate=1)
    assert trace.status == "residual-nonliftable" and trace.failed_level == 2
    assert got == [1, 1]


@pytest.mark.parametrize("text, undefined, error, message", [
    ("divp(x1, 1)", (), InexactDivisionError, "value is not divisible by p^1 (p=7)"),
    ("divp(0 * x1, 5)", (), PrecisionExhaustedError,
     "dividing by p^5 leaves no known digits (precision 3)"),
    ("divp(0 * x1, 5)", (PrecisionExhaustedError,), None, None),
], ids=["inexact", "exhausted", "exhausted-undefined"])
def test_a_one_point_chunk_that_raises_is_evaluated_once(text, undefined, error, message):
    # its error is that point's already: it is raised, or the point marked undefined, at once
    sizes = []

    class Spy(FuncDef):
        def on_columns(self, p, n, arity):
            columns = super().on_columns(p, n, arity)
            return lambda cols, undefined: sizes.append(len(cols[0])) or columns(cols, undefined)

    evaluate = on_columns(Spy(1, parse(text, 1)), 7, 3, 1, undefined)
    if error is None:
        assert evaluate([(1,)]) == ([None], [None])
    else:
        with pytest.raises(error) as info:
            evaluate([(1,)])
        assert type(info.value) is error and str(info.value) == message
    assert sizes == [1]
