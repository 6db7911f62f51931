"""qclab: an exact small-scale laboratory for Boolean-function query
complexity and its NAND-tree separations."""

__version__ = "0.1.0"

from .boolfunc import (
    BooleanFunction,
    ProductDistribution,
    sensitivity,
    influence,
    variance,
    check_poincare,
)
from .dtree import (
    DecisionTree,
    Leaf,
    Query,
    RandomizedTree,
    run,
    exact_D,
    optimal_dist_error,
    exact_Dmu_eps,
    zero_error_expected_cost,
    avg_leaf_bias,
    label_leaves,
    tree_error,
)
from .games import (
    GameValue,
    enumerate_trees,
    solve_zero_sum,
    exact_R_eps,
    exact_RS_eps,
    exact_RSE,
    sens_miss_profile,
    pair_miss_profile,
    amplify,
    check_amplified_bias,
    check_two_point_bound,
    dprod_search,
)
from .nandtree import (
    eval_formula,
    zero_probs,
    greedy_zero,
    saks_wigderson,
    mc_cost,
    max_two_level_factor,
    fit_exponent,
)
from .sabotage import (
    HardPair,
    sample_hard_pair,
    check_embedding,
    sep_value_counts,
    estimate_sep_counts,
    q_counts_sw,
    block_case_bounds,
    check_recursions,
    spectral_alpha,
)
