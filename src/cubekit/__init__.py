"""cubekit: finite-scale median graphs, cube skeletons, wallspace duality,
projection systems with their quasitrees, hierarchical instances, and the
embedding-and-promotion pipeline between them.
"""

from .graphs import (
    UnitGraph,
    grid_graph,
    hypercube_graph,
    path_graph,
    random_tree,
)
from .median import (
    MedianAlgebra,
    check_isometric_subalgebra,
    is_median_graph,
    median_subset_report,
)
from .cubes import (
    CubeSkeleton,
    convex_hull,
    helly_intersection,
    hull_neighbourhood_check,
    hyperplane_decomposition,
)
from .walls import (
    Orientation,
    Wallspace,
    coherent_orientations,
    dual_cube_complex,
    walls_of_skeleton,
)
from .projection import (
    ProjectionSystem,
    QuasiTreeSpace,
    axes_in_tree_system,
    build_quasitree,
    check_bbf_distance_formula,
    flat_distance,
    flat_projection,
    piece_embedding_check,
    verify_projection_axioms,
)
from .hhs import (
    Colouring,
    Domain,
    HHSInstance,
    check_consistent_tuple,
    distance_formula_fit,
    find_bbf_colouring,
    hhs_median,
    is_hierarchically_quasiconvex,
    is_hierarchy_path,
    is_unparametrised_quasigeodesic,
    product_region,
    relevant_domains,
    theta_hull,
    validate_instance,
)
from .embedding import (
    ColouredSystem,
    PsiImage,
    build_coloured_system,
    default_constants,
    measure_embedding,
    psi_map,
    quasimedian_defect,
)
from .applications import (
    TreeProduct,
    bounded_packing_count,
    coarse_helly_experiment,
    promote_to_cube_complex,
    tree_approximate,
)

__version__ = "0.1.0"
