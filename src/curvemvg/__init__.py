"""Synthetic multi-view geometry workbench for algebraic curves.

The package builds projective two-view and multi-view instruments around
space curves: tangency constraints that pin down the epipolar geometry,
three reconstruction routes (cone intersection, dual surface, Chow form),
and classification of point trajectories observed by unsynchronized cameras.
"""

from types import ModuleType as _ModuleType

from .polycore import (
    HomogeneousPolynomial,
    MonomialBasis,
    enumerate_monomials,
    evaluate,
    fit_nullspace,
    fit_vanishing_form,
    pullback,
    quadratic_matrix,
    restrict_to_line,
    whitening_map,
)
from .projective_cameras import (
    Camera,
    EpipolarGeometry,
    PluckerLine,
    fundamental,
    homography,
)
from .curve_models import (
    RationalCurve3D,
    class_of,
    image_tangent,
    implicit_image_curve,
    node_count,
    preset_curve,
)
from .kruppa import (
    KruppaInstance,
    build_instance,
    detection_response,
    quadric_degeneracy,
    refine_epipolar,
    solution_dimension,
    tangency_points,
)
from .reconstruct import (
    ChowForm,
    DualSurface,
    InsufficientViews,
    ReconstructionError,
    chow_membership,
    chow_reconstruct,
    consistency_report,
    dual_reconstruct,
    epipolar_sweep,
    min_views_chow,
    min_views_dual,
    views_for_chow,
    views_for_dual,
)
from .dynamics import (
    MotionClass,
    RaySet,
    classify_motion,
    lift_observations,
    localize_on_ray,
    recover_line_motion,
    recover_static_point,
    recover_trajectory_chow,
)
from .scenes import (
    camera_ring,
    make_trajectory,
    observe_trajectory,
    random_camera,
)

# the names imported above, without the submodules they come from
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
