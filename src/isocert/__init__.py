"""Numerical toolkit for modified log-Sobolev and F-Sobolev inequalities on the line.

Components:
  convex    -- cost functions on [0, inf), discrete Legendre transforms
  entropy   -- entropy profiles F, their assumptions, log Phi of the conjugate Phi
  measure1d -- measures e^{-V}dx/Z, CDF/quantile machinery, isoperimetric profiles
  checker   -- integrability conditions with divergence diagnostics
  tester    -- empirical verification of the inequalities on test-function families
  cli       -- command-line front end
"""

from .convex import (
    CostFunction,
    ConjugateTable,
    eval_cost,
    legendre_transform,
    double_conjugate,
    dual_cost,
    check_condition_H,
)
from .entropy import (
    EntropyFunction,
    log_entropy,
    F_tau,
    eval_F_tau,
    log_Phi,
    check_assumptions,
    lemma32_bound_check,
)
from .measure1d import (
    Measure1D,
    IsoProfile,
    SampledFunction,
    build_measure,
    builtin_measure,
    tilde_profile,
    I_F_profile,
    cheeger_constant,
    bobkov_goetze,
    bobkov_bound_check,
    rearrange,
    lemma41_ratio,
)
from .checker import (
    ConditionSpec,
    ConditionReport,
    check_condition,
    check_exp_power,
    verify_growth_condition,
)
from .tester import (
    TestFamily,
    TestReport,
    entropy_functional,
    cost_energy,
    modified_energy,
    verify_theorem_2_1,
    verify_theorem_1_1,
    verify_theorem_4_4,
    lemma_3_3_check,
    lemma_3_4_check,
)

__version__ = "0.1.0"
