"""Numerical toolkit for modified log-Sobolev and F-Sobolev inequalities on the line.

Components:
  convex    -- cost functions on [0, inf), discrete Legendre transforms
  entropy   -- entropy profiles F, their assumptions, log Phi of the conjugate Phi
  measure1d -- measures e^{-V}dx/Z, CDF/quantile machinery, isoperimetric profiles
  checker   -- integrability conditions with divergence diagnostics
  tester    -- empirical verification of the inequalities on test-function families
  expr      -- the expression language of `expr:` measures, entropies and costs
  cli       -- command-line front end

The package itself imports none of them: import each name from its module
(`from isocert.checker import check_condition`).
"""

__version__ = "0.1.0"
