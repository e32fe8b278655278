"""The paper's claims, each as the finite statement dynlab decides.

The abstract makes five claims; the README's ledger names, for each,
the finite statement, the battery law that checks it and the cell
pinned here.  A claim is pinned only where a search or an exact
threshold, not a definition, decides it, so claims 1, 2 and 5 have no
test yet (see the ledger).

- Claim 3, a system that is strong measure expansive but not
  expansive: on a finite bijection the two properties agree
  (``tests/test_spread.py::test_strong_measure_is_one_expansive_on_bijections``),
  so the witness is a map that is not invertible.
- Claim 4, N-expansive systems that are not strong measure expansive:
  the satellite lattice myex(5, 3), whose satellites break the
  hierarchy at explicit rational thresholds (``test_acceptance.py``,
  test 05).
"""

from fractions import Fraction

from dynlab.expansive import n_expansive_holds, strong_measure_expansive_holds
from dynlab.gallery import build_myex, build_random_system


def test_strong_measure_without_one_expansiveness_off_bijections():
    """Claim 3 needs a map that is not invertible (see above): this
    seeded 6-point map is strong measure expansive at delta = 1/3 and
    not 1-expansive there."""
    sys = build_random_system(2, 6)
    assert not sys.invertible
    assert not n_expansive_holds(sys, 1, Fraction(1, 3))
    assert strong_measure_expansive_holds(sys, Fraction(1, 3))[0]


def test_two_expansive_without_strong_measure_expansiveness():
    """Claim 4: at delta = 1/3 the satellite lattice myex(5, 3) is
    2-expansive, while neither 1-expansive nor strong measure
    expansive."""
    sys = build_myex(5, 3).system
    delta = Fraction(1, 3)
    assert n_expansive_holds(sys, 2, delta)
    assert not n_expansive_holds(sys, 1, delta)
    assert not strong_measure_expansive_holds(sys, delta)[0]
