"""Empirically testing the inequalities on families of functions.

Each driver sweeps a family of test functions, reports the per-member
entropy/energy ratio, and returns the worst case as an empirical lower bound
on the true constant.  A stable constant under family enrichment is evidence
the sweep is not under-resolved.
"""

from isocert.convex import CostFunction
from isocert.entropy import log_entropy
from isocert.measure1d import builtin_measure
from isocert.tester import (
    TestFamily,
    verify_theorem_1_1,
    verify_theorem_2_1,
    verify_theorem_4_4,
)


def main():
    gauss = builtin_measure("gauss")
    fam = TestFamily("exponential", (0.25, 0.5, 1.0))

    rep = verify_theorem_2_1(gauss, log_entropy(), CostFunction.closed_form(1.0, 2.0), 2.0, fam)
    print("restricted-entropy decomposition on the Gaussian:")
    print(f"  empirical constant C^ = {rep.C_hat:.6f} (exact for this family: 4)")
    print(f"  additive constant  B^ = {rep.B_hat:.6f}")
    print(f"  variance-bound constant used: {rep.details['step1_constant']:.4f}")
    for row in rep.rows:
        print(f"    {row.name:18s} ratio={row.ratio:.6f} saturation={row.saturation}")

    print("\nendpoint constant for the Gaussian cost family:")
    rep = verify_theorem_1_1(builtin_measure("exp_power", alpha=2.0), 2.0, 1.0, 1.0, fam)
    print(f"  C^ = {rep.C_hat:.6f} (the known value is 2), stable={rep.details['stable']}")

    print("\npower-entropy inequality for the alpha=1.5 tail:")
    mu = builtin_measure("exp_power", alpha=1.5)
    stretched = TestFamily("stretched_exp", (0.25, 0.5, 1.0), exponent=0.7, smoothing=0.05)
    rep = verify_theorem_4_4(mu, 1.5, stretched)
    print(f"  beta = {rep.details['beta']:g}, C^ = {rep.C_hat:.6f}, "
          f"enriched C^ = {rep.details['C_hat_enriched']:.6f}, stable={rep.details['stable']}")


if __name__ == "__main__":
    main()
