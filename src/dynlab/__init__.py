"""dynlab: exact finite-scale experiments with shadowing, specification,
expansiveness and spectral structure.

The package is organised around :class:`dynlab.core.FiniteSystem`:

- :mod:`dynlab.core` — systems, lassos, threshold grids;
- :mod:`dynlab.symbolic` — shifts of finite type and window systems;
- :mod:`dynlab.shadowing` — pseudo-orbit tracing decision procedures;
- :mod:`dynlab.specification` — segment-tracing (specification) checks;
- :mod:`dynlab.expansive` — dynamical balls, measures, stable sets;
- :mod:`dynlab.recurrence` — chain recurrence and spectral decomposition;
- :mod:`dynlab.gallery` — built-in example systems;
- :mod:`dynlab.battery` — law batteries over whole threshold grids;
- :mod:`dynlab.serialize` — canonical JSON, digests and the report
  encoders ``fraction_str``, ``decomposition_to_obj`` and
  ``modulus_table_to_obj``;
- :mod:`dynlab.errors` — ``DynlabError`` and its subclasses, among them
  ``NotABijection``, ``NotInvertible``, ``EmptyShift``,
  ``HorizonExceeded``, ``NotCoprime``, ``NotEnoughOrbits``,
  ``NotDecaying`` and ``ModulusViolation``, and the ``BoundTooSmall``
  warning;
- :mod:`dynlab.cli` — the ``dynlab`` command line tool.

Every submodule except the command line module is republished here:
each public name is declared once, in its module's ``__all__``, and
``from dynlab import ...`` reaches all of them.  ``import dynlab`` does
not load :mod:`dynlab.cli`.
"""

from .battery import *
from .core import *
from .errors import *
from .expansive import *
from .gallery import *
from .recurrence import *
from .serialize import *
from .shadowing import *
from .specification import *
from .symbolic import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *battery.__all__,
    *core.__all__,
    *errors.__all__,
    *expansive.__all__,
    *gallery.__all__,
    *recurrence.__all__,
    *serialize.__all__,
    *shadowing.__all__,
    *specification.__all__,
    *symbolic.__all__,
]
