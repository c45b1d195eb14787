"""Authentication systems from combinatorial designs, with exact analysis.

The pipeline: verify a t-design or cyclic difference family, order its
blocks into a balanced encoding matrix (every message in every column
equally often — perfect secrecy under equiprobable keys), then measure its
resistance to spoofing exactly: classical deception probabilities, and the
offline/online verification-oracle game values, all in rational arithmetic.

Public names resolve lazily (PEP 562): importing the package imports no
submodule; the first use of a name imports the one that defines it.
"""

import importlib

_SUBMODULE = {name: module for module, names in {
    "analysis": ("AttackReport", "SecrecySystem", "analyze",
                 "deception_bound", "deception_probability", "offline_bound",
                 "online_bound", "perfect_secrecy_check",
                 "voracle_offline_value", "voracle_online_value"),
    "apa": ("PerpendicularArray", "van_rees_array", "verify_apa"),
    "balancing": ("EncodingMatrix", "SplitGraph", "balance", "edge_color",
                  "format_matrix_table", "split_points", "verify_balanced"),
    "budget": ("DEFAULT_BUDGET",),
    "designs": ("BlockDesign", "DesignParameters", "VerificationReport",
                "complete_design", "derived_design", "lambda_table",
                "massey_schobi_bound", "optimality_class", "teirlinck_params",
                "verify_design"),
    "difference_families": ("DifferenceFamily", "develop", "develop_matrix",
                            "netto_triples", "verify_df"),
    "errors": ("AuthDesignsError", "BudgetError", "ConstructionError",
               "DomainError", "StructuralError"),
}.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_SUBMODULE[name]}")
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
