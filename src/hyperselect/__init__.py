"""Set-valued selection, subspace-ball duality, and block-algebra tools.

The package namespace is lazy (PEP 562): `import hyperselect` loads no
library module and not numpy.  The first access to an exported name, or to
a submodule, imports the module that defines it.
"""

import importlib

# module -> the names the package exports from it
_EXPORTS = {
    "norms": (
        "DimensionMismatch",
        "DiscFamily",
        "InvariantViolation",
        "NormSpec",
        "OutsideUnitBall",
        "Subspace",
        "UnsupportedNorm",
        "dual_kind",
        "dyadic_weights",
        "eval_norm",
        "l1",
        "l2",
        "linf",
        "make_probe_sequence",
        "min_distance_oracle",
        "probe_metric",
        "probe_strong",
        "probe_strong_star",
        "probe_weak",
    ),
    "hulls": ("HullProjector", "TooManyGenerators"),
    "selection": (
        "BUNDLED_MAPS",
        "BallRestrictedValue",
        "DiscreteDomain",
        "FamilyMember",
        "HullTarget",
        "IterationStall",
        "NetTooCoarse",
        "NotACover",
        "OpenCover",
        "PartitionOfUnity",
        "SetValuedMap",
        "approx_selection",
        "build_partition_of_unity",
        "check_lower_continuity",
        "dense_selection_family",
        "density_audit",
        "grid_domain_1d",
        "grid_domain_2d",
        "jump_map",
        "michael_selection",
        "restrict_value",
    ),
    "duality": (
        "DualityMismatch",
        "annihilator",
        "ball_section_points",
        "convergence_gap",
        "counterexample_ball",
        "counterexample_limit_disc",
        "counterexample_subspace",
        "exact_support",
        "is_subspace_ball",
        "quotient_routes",
        "quotient_routes_by_dimension",
        "subspace_from_spanning",
    ),
    "algebras": (
        "CapExceeded",
        "FunctionalSpec",
        "MatrixAlgebra",
        "SubsetSeq",
        "adjoint_modulus",
        "apply_functional",
        "build_fS",
        "diagonal_algebra",
        "full_algebra",
        "functional_norm_on_fS",
        "generate_algebra",
        "marechal_pseudometric",
        "marechal_support",
        "operator_norm",
        "polar_witness",
        "rotated_diagonal_algebra",
        "scalar_algebra",
        "trace_norm",
        "unit_ball_sample",
    ),
    "borel": (
        "DepthInsufficient",
        "PrunedTree",
        "TruncPoint",
        "bundled_borel_instances",
        "closed_complement_cylinders",
        "increasing_hulls",
        "pfin_census",
        "pi3_reduce",
        "sigma2_reduce",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # read on every access, not cached here, so a name rebound in its module
    # (a test's monkeypatch, say) reads the same through the package
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
