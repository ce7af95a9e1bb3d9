"""Exact arithmetic toolkit for Heisenberg nilflows and niltranslations.

Substitutions on two letters factor to automorphisms of the integer
Heisenberg lattice; their eigenflows admit sections whose first-return maps
are self-induced interval exchanges conjugate to niltranslations.  This
package carries the whole chain in exact quadratic-field arithmetic and
checks every identity pointwise, with floating point confined to display
and Weyl-sum experiments.
"""

from .scalar import (
    GOLDEN,
    ParseError,
    QuadraticContext,
    QuadraticNumber,
    Rational,
    floor_mod1,
    parse_scalar,
)
from .heisenberg import (
    AlgebraVector,
    GroupPoint,
    LatticePoint,
    NilPoint,
    bracket,
    canonicalize,
    central_flow,
    commutator,
    coset_eq,
    dilate,
    dist,
    exp_point,
    flow,
    flow_exchange_holds,
    log_point,
    norm4,
    translate,
    translation_orbit,
)
from .freegroup import (
    FIBONACCI,
    GENERATOR_SUBSTITUTIONS,
    Endomorphism,
    broken_line,
    broken_line_counts,
    concat,
    fixed_point_prefix,
    invert_word,
    iter_broken_line_counts,
    parse_substitution,
    reduce_word,
)
from .factorization import (
    EigenData,
    EigenSignError,
    GENERATOR_ENDOS,
    HeisenbergEndo,
    HypothesisError,
    SurfaceQuadric,
    check_hypothesis_H,
    conjugation_identity_holds,
    decompose,
    eigen_data,
    factor,
    flow_of,
    gamma_from_integers,
    gamma_of,
    recompose,
    surface_quadric,
    tile_membership,
)
from .dynamics import (
    DiagonalSection,
    PiecewiseTorusMap,
    RegionCoeffs,
    ReturnRecord,
    SectionPoint,
    SigmaSection,
    counterexample_suite,
    equidistribution_report,
    fibonacci_chart_equivalence,
    iet_orbit_check,
    psi_identity_check,
    renormalization_check,
    self_induction_check,
    strip_family,
)

__version__ = "0.1.0"
