"""splitwise: decision-tree identification solvers and audit machinery.

Core objects are DTInstance (weighted hypotheses x K-ary tests, bitmask
sets, exact-rational or float arithmetic) and DecisionTree.  Solvers:
greedy splitting, memoized exact / bounded-depth search, and the recursive
budgeted solver in `fulltree`.  The `chains`, `mssc`, and `setcover`
modules carry the analysis instrumentation; `audits` bundles it into a
seeded battery; `cli` exposes everything as a command line tool.
"""

from .errors import (BudgetExceededError, FormatError, GenerationError,
                     IncompleteTreeError, InvalidInstanceError,
                     NonUniformError, ParameterError, SplitwiseError,
                     StructureError)
from .instance import (DTInstance, ValidationReport, format_number,
                       has_two_sided_test, iter_bits, members_of,
                       parse_number, round_weights,
                       require_solvable, require_valid,
                       undistinguished_pairs, validate_instance)
from .tree import (CostBreakdown, DecisionTree, Entries, NodeRecord, cost,
                   depth_of, grow, interior_weight_sum, is_complete,
                   recompute_masks, structural_problems, tree_from_json_obj,
                   tree_from_text, tree_to_json_obj, tree_to_text,
                   verify_caches)
from .greedy import (build_greedy_node, build_greedy_tree, greedy_choice,
                     heavy_above, majority_parts)
from .exact import ExactSolver, optimal_cost, optimal_tree, partial_tree
from .mssc import (MsscInstance, MsscSolution, chain_order, induced_mssc,
                   is_greedy_order, mssc_cost, mssc_greedy, mssc_optimal)
from .setcover import greedy_cover_bound, max_set_weight, optimal_cover_size
from .chains import (ChainDecomposition, HeavyPath, VertexLabel, VertexLabels,
                     assembled_audit, chain_decomposition, chain_mssc_audit,
                     choose_delta, classify_vertices, entropy_audit,
                     greediness_audit, greediness_problems,
                     heavy_cover_instance, heavy_path_audit, heavy_paths,
                     imbalanced_audit, label_invariant_problems,
                     monotonicity_audit, theorem1_bound, uniform_binary_bound)
from .fulltree import (CallRecord, FullTreeConfig, RecursionTrace,
                       approximation_factor, audit_trace, depth_budget,
                       full_tree, keep_greedy_threshold, raw_depth_budget)
from .generators import (GridLayout, ReductionMeta, gen_grid_adversarial,
                         gen_random, gen_setcover_reduction,
                         grid_certificate_tree, grid_layout)
from .report import AuditLine, all_pass, make_line
from .audits import (BatteryResult, FailureArtifact, corrupt_interior_mask,
                     run_battery)

__version__ = "0.1.0"
