"""Exception and warning types shared across dynlab."""

__all__ = [
    "BoundTooSmall",
    "DynlabError",
    "EmptyShift",
    "HorizonExceeded",
    "MetricViolation",
    "ModulusViolation",
    "NotABijection",
    "NotCoprime",
    "NotDecaying",
    "NotEnoughOrbits",
    "NotInvertible",
    "SchemaError",
    "StateExplosion",
]


class DynlabError(Exception):
    """Base class for all dynlab errors."""


class MetricViolation(DynlabError):
    """A candidate distance table fails a metric axiom.

    Carries the offending points and the axiom name so callers can
    report exactly which triple (or pair) broke.
    """

    def __init__(self, axiom, points, detail=""):
        self.axiom = axiom
        self.points = tuple(points)
        super().__init__(f"metric violation ({axiom}) at {self.points}: {detail}")


class NotABijection(DynlabError):
    """A map declared invertible is not a bijection."""


class NotInvertible(DynlabError):
    """A backward-time construction was requested on a forward-only system."""


class StateExplosion(DynlabError):
    """A subset-construction search exceeded its state cap."""

    def __init__(self, visited, cap, frontier_sample=()):
        self.visited = visited
        self.cap = cap
        self.frontier_sample = tuple(frontier_sample)
        super().__init__(
            f"subset search exceeded cap: visited {visited} states (cap {cap})"
        )


class EmptyShift(DynlabError):
    """Pruning removed every vertex of an edge shift."""


class HorizonExceeded(DynlabError):
    """Symbolic comparison could not be settled within the requested horizon."""


class NotCoprime(DynlabError):
    """Loop lengths of a two-loop shift must be coprime."""


class NotEnoughOrbits(DynlabError):
    """A construction needed more distinct periodic orbits than the lattice has."""


class NotDecaying(DynlabError):
    """A lasso fed to a limit-type check does not have an exact orbit tail."""


class ModulusViolation(DynlabError):
    """A telescoped block gap exceeded the target threshold.

    ``block`` is the index of the failing blocked pair, ``terms`` the
    exact per-step distances whose sum was supposed to stay below the
    threshold.
    """

    def __init__(self, block, terms, bound, detail=""):
        self.block = block
        self.terms = tuple(terms)
        self.bound = bound
        super().__init__(
            f"blocked gap {block} exceeds {bound} (terms {self.terms}) {detail}"
        )


class SchemaError(DynlabError):
    """A system file failed validation; ``pointer`` is a JSON-pointer-ish path."""

    def __init__(self, pointer, detail):
        self.pointer = pointer
        super().__init__(f"{pointer}: {detail}" if pointer else detail)


class BoundTooSmall(UserWarning):
    """A periodic search bound provably misses longer cycles of the step graph."""
