"""flatcheck: decide flatness of a finite-type module over a singular base.

The pipeline builds the n-fold fibred-power ideal of a cyclic module
presentation, adjoins a user-supplied regular cover, and searches the
associated primes for one whose contraction to the base strictly
contains the base's defining ideal — a certified torsion witness.
"""

__version__ = "0.1.0"

from .errors import (
    FlatcheckError,
    GenericityFailure,
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
    radical_membership,
    saturate,
)
from .orders import MonomialOrder
from .primdec import (
    Decomposition,
    PrimaryComponent,
    associated_primes,
    decompose,
    radical_and_minimal,
    zero_dim_decompose,
)
from .rings import Polynomial, PolyRing, VarMap

__all__ = [name for name in dir() if not name.startswith("_")]
