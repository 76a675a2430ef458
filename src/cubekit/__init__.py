"""cubekit: finite-scale median graphs, cube skeletons, wallspace duality,
projection systems with their quasitrees, hierarchical instances, and the
embedding-and-promotion pipeline between them that the `cubekit` command
runs.
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
    is_median_graph,
)
from .cubes import (
    CubeSkeleton,
    helly_intersection,
    hyperplane_decomposition,
)
from .walls import (
    Orientation,
    Wallspace,
    dual_cube_complex,
    walls_of_skeleton,
)
from .projection import (
    ProjectionSystem,
    QuasiTreeSpace,
    axes_in_tree_system,
    build_quasitree,
    piece_embedding_check,
    verify_projection_axioms,
)
from .hhs import (
    Colouring,
    Domain,
    HHSInstance,
    distance_formula_fit,
    find_bbf_colouring,
    hhs_median,
    product_region,
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
