"""Walk the shadowing decision on a small window system.

A two-loop shift is truncated to its central-window presentation, which
is a finite multivalued system with an exact rational metric.  The demo
shows the threshold grid, asks the shadowing question at two pinned
parameter pairs, exhibits a certificate when the answer is negative, and
prints the full modulus table (the best step tolerance per tracking
tolerance).

The first pair, (delta, epsilon) = (1/8, 1/4), holds by definition, not
by search: delta is below the least positive distance, 1/2, so every
delta-pseudo-orbit is a true orbit and traces itself.  The second,
delta = 2, is searched, and fails with a certificate.
"""

from fractions import Fraction

from dynlab import (
    build_xpq,
    modulus_table,
    shadowing_holds,
    threshold_grid,
    window_system,
)


def main():
    shift = build_xpq(3, 2)
    window = window_system(shift, 1)
    print(f"window system on {window.n} words:", ", ".join(window.points))

    grid = threshold_grid(window)
    print("threshold grid:", ", ".join(str(v) for v in grid.positive))
    print("(every delta- or epsilon-indexed answer can only change at "
          "these values)")

    ok, certificate = shadowing_holds(window, Fraction(1, 8), Fraction(1, 4))
    print(f"\nshadowing at (delta=1/8, epsilon=1/4): {ok}")

    ok, certificate = shadowing_holds(window, Fraction(2), Fraction(1, 4))
    print(f"shadowing at (delta=2,   epsilon=1/4): {ok}")
    if certificate is not None:
        print("  offending pseudo-orbit (stem|cycle):",
              list(certificate.lasso.stem), "|", list(certificate.lasso.cycle))
        print(f"  every candidate tracer is out of range by step "
              f"{certificate.dying_step}")

    table = modulus_table(window, "shadowing")
    print("\nmodulus table (largest workable delta per epsilon):")
    for eps, best in table.rows:
        print(f"  epsilon={str(eps):>4}  ->  delta={best}")


if __name__ == "__main__":
    main()
