"""Symmetry invariants of finite trees and distinguishing 2-colorings.

Exact automorphism group orders, motion, asymmetrizing numbers via the
twin-class product recursion, explicit unranking of distinguishing
colorings, and brute-force oracles that cross-validate every formula.
"""

from .asym import (
    GroupOrderBound,
    a_values,
    asym_at_every_root,
    asym_rooted,
    asym_unrooted,
    group_order_bound_check,
    is_2_distinguishable,
)
from .autom import (
    ASYMMETRIC,
    AutomorphismLimitExceeded,
    Motion,
    aut_order,
    aut_order_rooted,
    enumerate_automorphisms,
    motion,
)
from .canon import (
    CanonCode,
    TreeAnalysis,
    TwinClass,
    canon_code,
    child_classes,
    colored_unrooted_code,
    is_isomorphic,
    subtree_codes,
    twin_classes,
    unrooted_code,
)
from .coloring import (
    LobeAssignmentError,
    OneEndedTruncation,
    combinadic_unrank,
    construct_distinguishing,
    extend_ray_coloring,
    one_ended_truncation,
    to_dot,
    unrank_distinguishing,
    unrank_unrooted,
    verify_distinguishing,
)
from .corpus import (
    CorpusSpec,
    ConjectureReport,
    SuiteReport,
    all_trees,
    caterpillar,
    conjecture_check,
    generate,
    kary_tree,
    lobed_extremal,
    random_one_ended_truncation,
    random_tree,
    run_theorem_suite,
    spider,
    tree_from_pruefer,
)
from .oracle import (
    OracleSizeError,
    OrbitReport,
    brute_asym,
    brute_graph_aut,
    brute_motion,
    exists_automorphism,
)
from .treelike import (
    ForestExtraction,
    RootedGraph,
    TreelikeReport,
    extract_forest,
    is_treelike,
    parse_graph_edge_list,
    treelike_distinguish,
)
from .trees import (
    Coloring,
    EdgeCenter,
    EdgeListParseError,
    RootedTree,
    Tree,
    VertexCenter,
    center,
    parse_edge_list,
    relabel,
    root_at,
    serialize_edge_list,
)

__version__ = "0.1.0"
