"""Exact computer algebra for quadratic forms with line-bundle values on the
projective plane, their even Clifford algebras, and the attached conic
bundles: discriminants, fiber classification, the trace pairing and form
recovery, Brauer-Severi minor identities, Hilbert series, and the numeric
invariants of the minimal del Pezzo quaternion types."""

from .scalars import QQ, FpElement, PrimeField, Rationals
from .poly import (
    HomogPoly,
    PolyMatrix,
    PolyRing,
    adjugate3,
    det,
    det3,
    divide_exact,
    minor,
    parse_poly,
    poly_sqrt,
)
from .series import RationalSeries, series_expand
from .qform import (
    ConicType,
    FiberPoint,
    QForm,
    SingularityType,
    discriminant,
    fiber_conic_type,
    is_nowhere_zero,
    new_qform,
    normalize,
    projective_points,
    qform_from_upper,
    rank_at,
    singularity_type_at,
    twist,
)
from .clifford import (
    AlgebraType,
    CliffordWord,
    FiberAlgebra,
    azumaya_at,
    cayley_hamilton_check,
    classify,
    fiber_algebra,
    fiber_algebra_at,
    fiber_at,
    gamma_dimension_bruteforce,
    gamma_hilbert_series,
    kronecker_quiver_algebra,
    recover_form,
    reduce_word,
    trace_pairing_fiber,
    trace_pairing_global,
    validate_fiber_algebra,
)
from .brauer_severi import (
    BiPoly,
    MinorReport,
    bipoly_from_alpha_map,
    bs_matrix,
    bs_matrix_via_algebra,
    bs_membership,
    conic_equation,
    conic_point_count,
    verify_minors,
)
from .invariants import (
    BundleDescriptor,
    CotangentTwist,
    LineBundle,
    chern_c1_c2,
    chi_O,
    chi_bundle,
    chi_top_conic_bundle,
    chi_top_plane_curve,
    minus_k3_via_chern,
    minus_k3_via_chern_printed,
    minus_k3_via_euler,
)
from .catalog import (
    CATALOG,
    DelPezzoTag,
    F25PlusProvider,
    QuadricNet,
    make_f25plus,
    make_net,
    make_type,
    net_from_upper,
    report,
)

__version__ = "0.1.0"
