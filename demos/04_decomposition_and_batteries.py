"""Spectral structure of a random system, then the law batteries.

The non-wandering part of any finite system splits into transitive
basic sets, and each basic set rotates through cyclic parts on which
the right power of the map mixes.  The library computes that
decomposition by two independent routes (step-graph structure vs
stable-set classes), re-verifies every claim from scratch, and the
battery runner packages the cross-checks behind stable identifiers.
"""

from dynlab import (
    build_random_system,
    canonical_json,
    chain_recurrent_set,
    nonwandering_set,
    run_theorem_battery,
    spectral_decomposition,
)


def main():
    sys = build_random_system(seed=5, size=7, invertible=False)
    print(f"random system on {sys.n} points, map:",
          {p: sys.points[sys.fmap[i]] for i, p in enumerate(sys.points)})

    print("\nnon-wandering set:", nonwandering_set(sys))
    print("chain recurrent set:", chain_recurrent_set(sys).points)

    dec = spectral_decomposition(sys)
    print("\nbasic pieces:")
    for piece in dec.pieces:
        print(f"  points={piece.points} period={piece.period} "
              f"mixing={piece.mixing} routes_agree={piece.routes_agree}")
    print("re-verification from scratch:", dec.verify(sys))
    print("hypothesis report passes:", dec.report.passes)

    report = run_theorem_battery(sys, "hierarchy")
    print(f"\nhierarchy battery: {len(report['rows'])} grid rows, "
          f"{len(report['violations'])} law violations")

    report = run_theorem_battery(sys, "thmA")
    # every table row has a best delta (the sub-minimal delta passes every
    # table), so the rows agree by definition at finite scale
    agree = all(row["agree"] for row in report["rows"])
    print(f"tracing-equivalence battery: rows agree at every epsilon, by "
          f"definition (every row has a best delta): {agree}")
    print("\nfull battery report is canonical JSON; first lines:")
    print("\n".join(canonical_json(
        {"battery": report["battery"], "rows": report["rows"][:1]}
    ).splitlines()[:12]))


if __name__ == "__main__":
    main()
