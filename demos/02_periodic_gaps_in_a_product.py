"""A product of two-loop shifts that misses whole periods.

Each two-loop shift realises closed walks whose lengths form the
numerical semigroup generated by its two loop lengths.  A product of
two such shifts only has periodic points at lengths lying in BOTH
semigroups, so its low-period spectrum is full of holes: the counts of
``periodic_point_count`` are exact, and none is at periods 1, 2, 4
and 7.  The window presentation also passes the shadowing test at
(delta, epsilon) = (1/8, 1/4), but by definition only: delta is below
the least positive distance, 1/2, so every delta-pseudo-orbit there is
a true orbit.
"""

from fractions import Fraction

from dynlab import (
    build_xpq,
    periodic_point_count,
    product_system,
    shadowing_holds,
    window_system,
)


def main():
    left = build_xpq(3, 2)     # loops of length 2 and 3: realises 2,3,4,...
    right = build_xpq(5, 3)    # loops of length 3 and 5: realises 3,5,6,8,...
    product = product_system([left, right])
    print(f"product shift on {len(product.alphabet)} letters")

    print("\nperiodic points by period (adjacency trace):")
    for m in range(1, 9):
        a = periodic_point_count(left, m)
        b = periodic_point_count(right, m)
        c = periodic_point_count(product, m)
        marker = "  <- hole" if c == 0 else ""
        print(f"  m={m}:  left={a:3d}  right={b:3d}  product={c:3d}{marker}")

    window = window_system(product, 1)
    ok, _ = shadowing_holds(window, Fraction(1, 8), Fraction(1, 4))
    print(f"\nwindow presentation ({window.n} words) shadows at "
          f"(delta=1/8, epsilon=1/4): {ok}")
    print("decided: no periodic point of period 1, 2, 4 or 7 (exact "
          "counts above);\n"
          "definitional: the shadowing answer, since delta = 1/8 is below "
          "the least\npositive distance, where every pseudo-orbit is a "
          "true orbit")


if __name__ == "__main__":
    main()
