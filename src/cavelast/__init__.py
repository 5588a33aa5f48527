"""Cavitation in planar nonlinear elasticity on triangle meshes.

Deformations live on conforming triangle meshes of a punctured reference
domain. The package measures stored elastic energy plus an anisotropic
perimeter of the cavity surfaces, certifies discrete minimizers through
first-variation batteries and an invertibility check, inverts deformations
numerically, and carries an independent radially symmetric solver used as
a cross-check on symmetric scenarios.
"""

from .exceptions import (ArtifactError, CavelastError, ConfigurationError,
                         DomainError, GeometryError, InfeasibleEnergyError)
from .material import BulkDensity, SurfaceDensity
from .geometry import (BoundaryData, DeformationField, Mesh, TriangleLocator,
                       build_annulus_mesh, build_disk_mesh, build_square_mesh,
                       load_mesh, mollify, trace_on_circle)
from .degree import (CavityRecord, DegreeRaster, InvReport, check_inv,
                     load_pgm, marching_squares, topological_image,
                     topological_image_point, winding_number)
from .energy import (DiscreteEnergy, EnergyBreakdown, EnergyState, SeparableTestField,
                     anisotropic_perimeter, detect_cavities,
                     surface_functional_S_sum,
                     surface_functional_S_testfield, total_energy)
from .inverse import (InverseField, JumpContour, area_formula_check,
                      build_inverse_field, default_marker, extract_jump_set,
                      inverse_gradient, invert_point, jump_set_to_csv)
from .variation import (BumpField, DilationField, IterationLog,
                        VariationReport, anisotropic_tangential_divergence,
                        battery_residual, certification_battery,
                        elastic_first_variation, field_vanishes_on,
                        first_variation_residual, gamma_images, minimize,
                        outer_compose, surface_first_variation)
from .radial import (BvpReport, RadialProfile, anisotropic_circle_perimeter,
                     bvp_boundary_check, radial_energy,
                     radial_energy_breakdown, radial_lift, solve_radial,
                     sweep_lambda, sweep_to_csv)
from .cli import ScenarioConfig, compare_runs, run_scenario

__version__ = "0.1.0"

__all__ = [
    "ArtifactError", "CavelastError", "ConfigurationError", "DomainError",
    "GeometryError", "InfeasibleEnergyError",
    "BulkDensity", "SurfaceDensity",
    "BoundaryData", "DeformationField", "Mesh", "TriangleLocator",
    "build_annulus_mesh", "build_disk_mesh", "build_square_mesh",
    "load_mesh", "mollify", "trace_on_circle",
    "CavityRecord", "DegreeRaster", "InvReport", "check_inv", "load_pgm",
    "marching_squares", "topological_image", "topological_image_point",
    "winding_number",
    "DiscreteEnergy", "EnergyBreakdown", "EnergyState", "SeparableTestField",
    "anisotropic_perimeter", "detect_cavities",
    "surface_functional_S_sum", "surface_functional_S_testfield",
    "total_energy",
    "InverseField", "JumpContour", "area_formula_check",
    "build_inverse_field", "default_marker", "extract_jump_set",
    "inverse_gradient", "invert_point", "jump_set_to_csv",
    "BumpField", "DilationField", "IterationLog",
    "VariationReport", "anisotropic_tangential_divergence",
    "battery_residual", "certification_battery", "elastic_first_variation",
    "field_vanishes_on", "first_variation_residual", "gamma_images",
    "minimize", "outer_compose", "surface_first_variation",
    "BvpReport", "RadialProfile", "anisotropic_circle_perimeter",
    "bvp_boundary_check", "radial_energy", "radial_energy_breakdown",
    "radial_lift", "solve_radial", "sweep_lambda", "sweep_to_csv",
    "ScenarioConfig", "compare_runs", "run_scenario",
    "__version__",
]
