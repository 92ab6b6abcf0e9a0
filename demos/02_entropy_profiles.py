"""Entropy functions, their exponential transform, and flattening.

An entropy function F is concave, increasing, with F(1) = 0.  Its transform
Phi (the conjugate of the perspective function) controls which integrability
conditions are checkable; for F = log it is exactly the exponential.  The
flattened family F_tau interpolates between F and bounded growth.
"""

import numpy as np

from isocert.entropy import (
    F_tau,
    check_assumptions,
    lemma32_bound_check,
    log_entropy,
    log_Phi,
)


def main():
    F = log_entropy()
    x = np.linspace(0.0, 5.0, 6)
    print("Phi for F = log against e^x:")
    for xi, vi in zip(x, np.exp(log_Phi(F, x))):
        print(f"  Phi({xi:3.1f}) = {vi:12.6f}   e^x = {np.exp(xi):12.6f}")

    half = F_tau(0.5)
    print(f"\nflattened profile F_1/2: x0 = {half.x0:.6f} (where the base profile hits 1)")
    ys = np.array([1.0, np.e, np.e ** 4])
    print("  F_1/2 at [1, e, e^4]:", np.round(half(ys), 6), "(exact at e^4: 3)")

    for name, G in (("log", F), ("F_1/2", half)):
        rep = check_assumptions(G)
        print(f"assumptions for {name}: concave/increasing={rep.a1} limits={rep.a2} "
              f"convex-start={rep.a3} tail-slope={rep.a4}")

    print("\npower-envelope margins y^(2 delta) - Phi(delta F(y)) on [T, 1e6]:")
    for delta in (0.1, 0.25, 0.5):
        rep = lemma32_bound_check(F, delta)
        print(f"  delta={delta:4.2f}: T={rep.T:g}, min margin={rep.min_margin:.3g}")


if __name__ == "__main__":
    main()
