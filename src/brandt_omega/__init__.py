"""Exact arithmetic for the inverse semigroup generated by a family of
atomic subsets of the naturals, its Brandt-extension realization, equation
solvers, and finite-bound verifiers for the associated zero-neighborhood
topologies."""

from .brandt import (
    BrandtElem,
    brandt_invert,
    brandt_multiply,
    embed,
    embed_inverse,
    fiber,
    format_brandt,
    in_restricted,
    parse_brandt,
    restricted_universe,
    verify_embedding_homomorphism,
    verify_restricted_closed,
)
from .core import (
    AtomElem,
    ZERO,
    Zero,
    elements_upto,
    format_elem,
    idempotent_chain_census,
    immediate_predecessors,
    invert,
    is_idempotent,
    maximal_chain_down,
    multiply,
    nat_leq,
    nat_leq_definitional,
    parse_elem,
)
from .equations import (
    FiniteSolutions,
    InfiniteZeroCase,
    brute_force_solutions,
    solve_left,
    solve_right,
)
from .errors import (
    BrandtOmegaError,
    FamilyError,
    InvalidElementError,
    NotInImageError,
    NotTranslateEquivalentError,
    ParseError,
)
from .families import (
    AtomicFamily,
    SupportSet,
    are_translate_equivalent,
    parse_family,
    parse_support,
)
from .report import VerificationReport
from .topology import (
    ADJOINED,
    AcNbhd,
    Adjoined,
    MSeq,
    Tau1Nbhd,
    ac_complement_size,
    check_continuity_tau1,
    check_inversion_ac,
    check_prop49_condition,
    check_shift_continuity_ac,
    extended_multiply,
    find_zero_witness,
    mseq_nbhd_contains,
    phi,
    psi,
)
from .verification import (
    BoundedUniverse,
    check_associativity,
    check_chain_census_invariance,
    check_chain_structure,
    check_inverse_axioms,
    check_isomorphism_transport,
    check_order_equivalence,
    maximal_chain_census,
)

__version__ = "0.1.0"
