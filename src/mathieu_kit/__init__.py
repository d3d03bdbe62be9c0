"""Exact decision procedures, certificates and classification experiments
for Mathieu subspaces of finite-dimensional associative unital algebras
over prime fields and the rationals."""

from .algebra import (
    Algebra,
    AlgebraHom,
    CycleInfo,
    Element,
    ElementClassification,
    MinPolyData,
    build_p_of_a,
    classify_element,
    direct_sum,
    elem_mul,
    elem_power,
    field_algebra,
    idempotent_poly,
    is_quasi_idempotent,
    make_algebra,
    matrix_algebra,
    minimal_polynomial,
    opposite,
    poly_eval_element,
    poly_quotient_algebra,
    power_cycle,
    quasi_ratio,
)
from .experiments import (
    CatalogEntry,
    CheckResult,
    LatticeReport,
    SuiteReport,
    SUITE_NAMES,
    catalog,
    enumerate_all_mathieu,
    run_suite,
)
from .fields import (
    GF,
    QQ,
    Field,
    Poly,
    Scalar,
    field_arith,
    poly_ext_gcd,
    poly_gcd,
    poly_split_at_zero,
)
from .mathieu import (
    MAX_SCAN_DEFAULT,
    MathieuVerdict,
    RadicalCertificate,
    Witness,
    certify_radical_membership,
    decide_all_variants,
    decide_mathieu,
    find_nontrivial_mathieu,
    is_mathieu_commutative,
    is_quasi_stable,
    is_stable,
    line_is_mathieu,
    oracle_mathieu,
    radical_enumerate,
    radical_member,
    verify_witness,
)
from .matrixlab import (
    Codim1Report,
    LinesReport,
    TraceDual,
    canonical_rep,
    classify_codim1,
    classify_lines,
    mathieu_iff_idempotent_free,
    trace_dual,
    trace_of_product,
    trace_orthogonal,
    witness_idempotents,
)
from .serialize import witness_from_dict
from .subspace import (
    ALL_VARIANTS,
    Sidedness,
    Subspace,
    all_subspaces,
    enumerate_subspaces,
    gaussian_binomial,
    image,
    intersect,
    is_theta_ideal,
    max_theta_ideal,
    preimage,
    quotient_algebra,
    span,
    theta_ideal,
)

__version__ = "0.1.0"
