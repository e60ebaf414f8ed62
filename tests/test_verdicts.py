"""Every verdict decides vanishing by one strict rule and validates weights one way.

A verdict must not count digits it does not know as agreement: a check whose
known digits all vanish short of the order it needs is undecided, and with no
conclusive violation elsewhere that is a PrecisionExhaustedError naming the
digits needed vs known. A weight is n non-negative ints at arity n (a bare
int at arity 1) in every function that takes one.
"""
import json

import pytest

from padicvdp.core import PrecisionExhaustedError
from padicvdp.dsl import FuncDef, as_point_function, parse
from padicvdp.hensel import (
    brute_force_roots_multi,
    hensel_lift_multi,
    hensel_lift_uni,
    roots_mod_uni,
    well_defined_residue_check,
)
from padicvdp.vdp import (
    VdpTable,
    lip_alpha_check_uni,
    normalize_alpha,
    normalize_weighted,
    sampled_lip_check_uni,
    sampled_weighted_lip_check,
    vdp_expand_multi,
    vdp_expand_uni,
    weighted_lip_bound_check,
)
from padicvdp.cli import main


def uni(text):
    return FuncDef(1, parse(text, 1))


def multi(text, arity):
    return as_point_function(FuncDef(arity=arity, body=parse(text, arity)))


class TestOverclaims:
    def test_residue_check_with_too_few_digits_is_undecided(self):
        # f = x^2 keeps 3 of the 6 evaluation digits; agreement to order 4 is unknowable
        with pytest.raises(PrecisionExhaustedError, match=r"needs 4 digits, known 3"):
            well_defined_residue_check(multi("divp(343*x1^2, 3)", 1), 4, 0, 1, 7, 300)

    def test_sampled_pairs_with_too_few_digits_are_undecided(self):
        # pairs with ord(x - y) = 3 need 3 digits of f = x^2, which keeps 2
        with pytest.raises(PrecisionExhaustedError, match=r"needs 3 digits, known 2"):
            sampled_lip_check_uni(uni("divp(49*x1^2, 2)"), 0, 2000, 7, 4)

    def test_a_violation_wins_over_undecided_pairs(self):
        # the same draws and starved pairs, plus (x - x^7)/7, which is not 1-Lipschitz
        f = uni("divp(49*x1^2, 2) + divp(x1 - x1^7, 1)")
        report = sampled_lip_check_uni(f, 0, 2000, 7, 4)
        assert not report.ok and report.first_violation is not None


UNI = uni("x1")
BI = multi("x1 + x2", 2)
UNI_TABLE = vdp_expand_uni(UNI, 1, 7, 3)
BI_TABLE = vdp_expand_multi(BI, 1, 2, 7, 3)

# each probe takes a weight meant for arity 1 (an int) or 2 (a pair)
PROBES_UNI = {
    "bound": lambda a: lip_alpha_check_uni(UNI_TABLE, a),
    "normalize": lambda a: normalize_alpha(UNI_TABLE, a),
    "sampled": lambda a: sampled_lip_check_uni(UNI, a, 5, 7, 3),
    "residue": lambda a: well_defined_residue_check(multi("x1", 1), 3, a, 1, 7, 5),
    "roots": lambda a: roots_mod_uni(UNI, a, 3, 7),
    "lift": lambda a: hensel_lift_uni(UNI, a, 0, 1, 4, 7),
    "funcdef": lambda a: FuncDef(arity=1, body=parse("x1", 1), alpha=a),
    "table": lambda a: VdpTable.from_json({**UNI_TABLE.to_json(), "alpha": a, "b": [[0]] * 7}),
}
PROBES_BI = {
    "bound": lambda a: weighted_lip_bound_check(BI_TABLE, a),
    "normalize": lambda a: normalize_weighted(BI_TABLE, a),
    "sampled": lambda a: sampled_weighted_lip_check(BI, a, 5, 2, 7, 3),
    "residue": lambda a: well_defined_residue_check(BI, 3, a, 2, 7, 5),
    "roots": lambda a: brute_force_roots_multi(BI, 2, a, 2, 7),
    "lift": lambda a: hensel_lift_multi(BI, a, (0, 0), 1, 4, 7),
    "funcdef": lambda a: FuncDef(arity=2, body=parse("x1 + x2", 2), alpha=a),
    "table": lambda a: VdpTable.from_json(
        {**BI_TABLE.to_json(), "alpha": a, "a": {f"({i},{j})": [0] for i in range(7)
                                               for j in range(7)}}
    ),
}


@pytest.mark.parametrize("name", sorted(PROBES_UNI))
@pytest.mark.parametrize("alpha", [-1, (0, 0)], ids=["negative", "wrong-length"])
def test_bad_weight_is_rejected_at_arity_one(name, alpha):
    with pytest.raises(ValueError, match="weight must be"):
        PROBES_UNI[name](alpha)


@pytest.mark.parametrize("name", sorted(PROBES_BI))
@pytest.mark.parametrize("alpha", [(0, -1), (0,)], ids=["negative", "wrong-length"])
def test_bad_weight_is_rejected_at_arity_two(name, alpha):
    with pytest.raises(ValueError, match="weight must be"):
        PROBES_BI[name](alpha)


@pytest.mark.parametrize("command", [
    ["lipschitz", "--level", "1"], ["roots", "--level", "2"], ["lift", "--start", "0,0"],
])
@pytest.mark.parametrize("alpha", ["0,-1", "0"], ids=["negative", "wrong-length"])
def test_bad_weight_is_a_config_error_in_the_cli(capsys, command, alpha):
    argv = [command[0], "--prime", "7", "--vars", "2", "--expr", "x1 + x2",
            f"--alpha={alpha}", *command[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["category"] == "config" and "weight must be" in error["message"]


@pytest.mark.parametrize("alpha", ["-1", "0,0"], ids=["negative", "wrong-length"])
def test_bad_residue_weight_is_a_config_error_in_wellposed(capsys, alpha):
    argv = ["wellposed", "--prime", "7", "--expr", "x1", "--residue-level", "3",
            f"--alpha={alpha}"]
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["category"] == "config" and "weight must be" in error["message"]
