"""Synthetic multi-view geometry workbench for algebraic curves.

The package builds projective two-view and multi-view instruments around
space curves: tangency constraints that pin down the epipolar geometry,
three reconstruction routes (cone intersection, dual surface, Chow form),
and classification of point trajectories observed by unsynchronized cameras.

Import names from their submodules (``curvemvg.polycore``,
``curvemvg.projective_cameras``, ``curvemvg.curve_models``,
``curvemvg.kruppa``, ``curvemvg.reconstruct``, ``curvemvg.dynamics``,
``curvemvg.scenes``, ``curvemvg.scene_cli``); importing the package loads
none of them.
"""


class CurvemvgError(ValueError):
    """Root of the library's documented errors: a geometry or model the call cannot reach."""
