"""Fixed-precision p-adic analysis in one and several variables.

Digit arithmetic on Z_p and Z_p^n, a small expression language for
functions between them, van der Put coefficient tables with Lipschitz
certification, and derivative-free Hensel lifting of residue roots.
"""
from .core import (
    EnumerationBudgetError,
    InexactDivisionError,
    InvalidPrimeError,
    PadicError,
    PadicInt,
    PadicPoint,
    PrecisionExhaustedError,
    PrimeMismatchError,
    digit_length,
    floor_log_p,
    from_integer,
    from_rational,
    is_prime,
)
from .dsl import (
    FuncDef,
    FuncExpr,
    ParseError,
    as_point_function,
    as_univariate,
    divp_budget,
    parse,
    parse_funcdef,
    well_defined_check,
)
from .hensel import (
    LiftTrace,
    PreconditionError,
    brute_force_roots_multi,
    hensel_lift_multi,
    hensel_lift_uni,
    roots_mod_uni,
    well_defined_residue_check,
)
from .vdp import (
    VdpTable,
    lip_alpha_check_uni,
    normalize_alpha,
    normalize_weighted,
    projection,
    sampled_lip_check_uni,
    sampled_weighted_lip_check,
    vdp_eval_multi,
    vdp_eval_uni,
    vdp_expand_multi,
    vdp_expand_uni,
    weighted_lip_bound_check,
)

__version__ = "0.1.0"
