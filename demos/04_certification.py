"""Certifying integrability conditions.

The checker decides whether the profile integral behind an entropy-energy
inequality converges: FINITE means the sufficient condition holds at the
given parameters, DIVERGENT_LIKELY means the fitted integrand exponent is
>= 1, and INCONCLUSIVE flags runs whose inputs could not be trusted all the
way down the tail.
"""

from isocert.checker import ConditionSpec, check_condition, check_exp_power
from isocert.entropy import log_entropy
from isocert.measure1d import builtin_measure


def show(tag, rep):
    est = "n/a" if rep.integral_estimate is None else f"{rep.integral_estimate:.4g}"
    print(f"  {tag:34s} -> {rep.verdict:16s} integral~{est:8s} tail p={rep.tail_p:.3f}")


def main():
    F = log_entropy()
    gauss = builtin_measure("gauss")
    expm = builtin_measure("exp")

    print("verdicts:")
    show("gauss, delta=0.5", check_condition(ConditionSpec(gauss, F, delta=0.5, K=2.0)))
    show("gauss, delta=3.0", check_condition(ConditionSpec(gauss, F, delta=3.0, K=2.0)))
    show("exp,   delta=0.5", check_condition(ConditionSpec(expm, F, delta=0.5, K=2.0)))

    print("\ndelta sweep on the Gaussian (largest delta that still converges):")
    finite = []
    for d in (3.0, 2.0, 1.5, 1.0, 0.5, 0.25):
        verdict = check_condition(ConditionSpec(gauss, F, delta=d, K=2.0)).verdict
        print(f"  delta={d:4.2f}: {verdict}")
        if verdict == "FINITE":
            finite.append(d)
    print(f"  best finite delta: {max(finite, default=None)}")

    print("\npaired runs for the power-tail measure (alpha=1.5):")
    pair = check_exp_power(builtin_measure("exp_power", alpha=1.5), 1.5, 1.0)
    print(f"  energy-cost run (exponent {pair.q_star:g} dual of {pair.alpha * pair.tau / (pair.alpha - 1):g}): "
          f"{pair.run_cost.verdict}")
    print(f"  endpoint quadratic run (beta={pair.beta:g}): {pair.run_quadratic.verdict}")


if __name__ == "__main__":
    main()
