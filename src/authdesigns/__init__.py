"""Authentication systems from combinatorial designs, with exact analysis.

The pipeline: verify a t-design or cyclic difference family, order its
blocks into a balanced encoding matrix (every message in every column
equally often — perfect secrecy under equiprobable keys), then measure its
resistance to spoofing exactly: classical deception probabilities, and the
offline/online verification-oracle game values, all in rational arithmetic.
"""

from .analysis import (DeceptionReport, OracleReport, SecrecySystem,
                       analyze_oracle, analyze_spoofing, deception_bound,
                       deception_probability, offline_bound, online_bound,
                       perfect_secrecy_check, voracle_offline_value,
                       voracle_online_value)
from .apa import PerpendicularArray, van_rees_array, verify_apa
from .balancing import (BalanceReport, EncodingMatrix, SplitGraph, balance,
                        edge_color, format_matrix_table, split_points,
                        verify_balanced)
from .budget import DEFAULT_BUDGET
from .designs import (BlockDesign, DesignParameters, VerificationReport,
                      complete_design, derived_design, divisibility_check,
                      lambda_s, massey_schobi_bound, optimality_class,
                      teirlinck_params, verify_design)
from .difference_families import (DifferenceFamily, develop, develop_matrix,
                                  netto_triples, verify_df)
from .errors import (AuthDesignsError, BudgetError, ConstructionError,
                     DomainError, StructuralError)

__version__ = "0.1.0"

__all__ = [
    "AuthDesignsError", "BalanceReport", "BlockDesign", "BudgetError",
    "ConstructionError", "DEFAULT_BUDGET", "DeceptionReport",
    "DesignParameters", "DifferenceFamily", "DomainError", "EncodingMatrix",
    "OracleReport", "PerpendicularArray", "SecrecySystem", "SplitGraph",
    "StructuralError", "VerificationReport", "analyze_oracle",
    "analyze_spoofing", "balance", "complete_design", "deception_bound",
    "deception_probability", "derived_design", "develop", "develop_matrix",
    "divisibility_check", "edge_color", "format_matrix_table", "lambda_s",
    "massey_schobi_bound", "netto_triples", "offline_bound", "online_bound",
    "optimality_class", "perfect_secrecy_check", "split_points",
    "teirlinck_params", "van_rees_array",
    "verify_apa", "verify_balanced", "verify_design", "verify_df",
    "voracle_offline_value", "voracle_online_value",
]
