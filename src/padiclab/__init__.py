"""Exact p-adic arithmetic, product formulas over places, Hensel lifting
and codes, Pauli/lattice quantum logic, and Borel summation of the Euler
flow equation."""

from types import ModuleType as _ModuleType

from .errors import (
    AccuracyError,
    DecodeFailureError,
    DomainError,
    ExpansionFormatError,
    ExpansionParseError,
    MixedPrimesError,
    NonEncodableError,
    NotARootError,
    NotPrimeError,
    PadiclabError,
    RangeError,
    ResourceLimitError,
    SingularRootError,
    ZeroInversionError,
)
from .hensel import LiftTrace, hensel_lift, roots_mod_p, sqrt_padic
from .hensel_codes import (
    HenselCode,
    code_add,
    code_div,
    code_mul,
    code_sub,
    decode,
    encode,
    farey_bound,
)
from .padic_core import (
    ARCHIMEDEAN,
    INFINITY,
    AxiomResult,
    PadicNumber,
    RationalPolynomial,
    SeminormReport,
    Valuation,
    check_seminorm_axioms,
    gauss_norm,
    is_prime,
    norm,
    nu,
    parse_expansion_string,
    to_expansion_string,
)
from .quantum_logic import (
    BasisReport,
    FiniteLattice,
    GaussianMatrix,
    GaussianRational,
    LawCheck,
    NormalizerCheck,
    PauliElement,
    SubspaceLattice,
    boolean_lattice,
    chain_lattice,
    decompose_in_pauli_basis,
    diamond_lattice,
    is_distributive,
    is_in_normalizer,
    is_modular,
    pauli_basis,
    pauli_basis_check,
    pauli_generators,
    pauli_group_order,
    pauli_mul,
    pentagon_lattice,
    subspace_lattice,
)
from .resurgence import (
    EulerSeries,
    SummationResult,
    borel_sum,
    borel_with_residual,
    euler_series_partial,
    exp_e1_oracle,
    general_solution,
    ode_residual,
    optimal_truncation_index,
    truncated_series_defect,
)
from .valuations_product import (
    FqPolynomial,
    Place,
    PrimeFactorization,
    RationalFunction,
    enumerate_irreducibles,
    factor,
    factor_poly,
    local_norms,
    local_norms_ff,
    poly_valuation,
    product_formula_check,
    product_formula_check_ff,
)

__version__ = "0.1.0"

__all__ = [name for name, value in sorted(globals().items())
           if not (name.startswith("_") or isinstance(value, _ModuleType))]
