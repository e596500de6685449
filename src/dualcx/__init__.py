"""dualcx: dual complexes of degenerating surfaces, at desk scale.

Combinatorial topology of semi-simplicial and triangulated sets (homology,
collapsibility, fundamental-group certificates), normal-crossing surface
descriptions with their dual complexes and degree bookkeeping, line
bundles on nodal rational curves, and numerical evaluation of the
obstruction class of two-cubic constructs.
"""

__version__ = "0.1.0"

from .errors import BudgetError, DualcxError, GuardError, RootFindingError, ValidationError
from .numerics import INF, DEFAULT_TOL, Divisor, Mobius, Poly, Tolerances
from .simplicial import (
    SemiSimplicialSet,
    TriangulatedSet,
    functor_p,
    functor_q,
    has_semisimplicial_lift,
    is_simple,
    is_strictly_simple,
    isomorphic,
    make_cyclic_triangle,
    make_duncehat,
    make_single_2_simplex,
    make_tetrahedron_boundary,
)
from .topology import (
    GroupPresentation,
    IntegerChainComplex,
    barycentric_subdivision,
    chain_complex,
    edge_path_presentation,
    euler_characteristic,
    free_faces,
    homology,
    is_collapsible,
    lattice_span_index,
    smith_normal_form,
    tietze_trivialize,
)
from .ncgeom import (
    CurveIncidenceGraph,
    NCSurfaceDescription,
    PicClass,
    PicTorus,
    curve_graph,
    dual_complex,
    duncehat_curve_graph,
    duncehat_surface_description,
    generic_fiber_euler,
    kulikov_degree,
    numerical_invariants,
    pi1_vanishing_verdict,
    pic0_structure,
    pic_is_trivial,
    pic_mul,
    pic_normalize,
    wrong_case_surface_description,
)
from .cubics import (
    Construct,
    CubicMap,
    NodalCubic,
    affine_direction,
    affine_family,
    flexes,
    implicitize,
    intersect,
    make_construct,
    nodal_cubic,
    random_construct,
)
from .obstruction import (
    GluingTriple,
    JPoint,
    closed_form_data,
    consistency_check,
    direct_pipeline_data,
    eval_main_rows,
    jacobian_rank,
    seeded_family,
    surjectivity_scan,
)
