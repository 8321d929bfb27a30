"""flatcheck: decide flatness of a finite-type module over a singular base.

The pipeline builds the n-fold fibred-power ideal of a cyclic module
presentation, adjoins a user-supplied regular cover, and tests it for
torsion over the base by one saturation; the minimal primes of the
torsion, whose contractions to the base strictly contain the base's
defining ideal, are the certified torsion witnesses.
"""

__version__ = "0.1.0"

from .errors import (
    FlatcheckError,
    GuardExceeded,
    Guards,
    HypothesisViolation,
    InvalidInput,
    NotZeroDimensional,
    ParseError,
    VariableClash,
)
from .flatness import (
    BaseRing,
    FlatnessProblem,
    ModuleSpec,
    RegularCover,
    Verdict,
    Witness,
    build_fibred_power,
    check_flatness,
    check_flatness_regular_source,
    torsion_witnesses,
    verify_hypotheses,
)
from .groebner import GroebnerBasis, groebner_basis, normal_form
from .ideals import (
    Ideal,
    contract_to_base,
    dimension,
    eliminate,
    ideal_sum,
    intersect,
    quotient,
    saturate,
)
from .orders import MonomialOrder
from .primdec import (
    Decomposition,
    PrimaryComponent,
    decompose,
    radical,
)
from .rings import Polynomial, PolyRing, VarMap

__all__ = [name for name in dir() if not name.startswith("_")]
