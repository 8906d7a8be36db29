"""permlab: a verification laboratory for finite permutation-group phenomena.

The package enumerates small groups exactly, model-checks first-order
sentences over them, measures Schreier-graph expansion and almost-
automorphism clustering, runs residue/CRT witness-prime searches, and
checks almost-homomorphism stability, everything with exact arithmetic
and brute-force oracles at desk scale.

No job path imports numpy.random or numpy.ma (8-23 ms each): draws come from
`random`, and np.unique runs only with a return flag (without, it asks numpy.ma).
"""

__version__ = "0.1.0"

from .perms import (
    CycleType,
    LambdaProfile,
    Permutation,
    centralizer_order_sym,
    conjugacy_test,
    evaluate_word,
    hamming_distance,
    identity,
    lambda_profile,
    min_conjugate_distance,
    parse_permutation,
)
from .groups import (
    FiniteGroup,
    GroupSpec,
    construct_group,
    default_corpus,
    parse_group_spec,
)
from .arithmetic import (
    SelectorProblem,
    crt_combine,
    factorial_gap_check,
    find_witness_prime,
    residue_pair,
)
from .sentences import (
    classify_nonabelian_simple,
    congruence_sentence,
    holds_on_sym,
    phi1,
    phi2,
    prime_remark_sentence,
    satisfies_congruence,
)
from .schreier import (
    LabeledSchreierGraph,
    build_schreier_graph,
    cluster_scan,
    edge_expansion,
    epsilon_defect,
    exact_automorphisms,
    regular_action_graph,
    spectral_gap,
)
from .rigidity import (
    GroupAction,
    biregular_double_centralizer,
    centralizer_transitive_action,
    one_discrete_check,
)
from .stability import (
    STABILITY_BOUND,
    AlmostHom,
    almost_hom,
    enumerate_homs,
    nearest_hom,
    uniform_defect,
)

__all__ = [
    "__version__",
    "Permutation",
    "CycleType",
    "LambdaProfile",
    "identity",
    "parse_permutation",
    "hamming_distance",
    "lambda_profile",
    "centralizer_order_sym",
    "conjugacy_test",
    "min_conjugate_distance",
    "evaluate_word",
    "FiniteGroup",
    "GroupSpec",
    "construct_group",
    "default_corpus",
    "parse_group_spec",
    "SelectorProblem",
    "crt_combine",
    "factorial_gap_check",
    "find_witness_prime",
    "residue_pair",
    "classify_nonabelian_simple",
    "congruence_sentence",
    "holds_on_sym",
    "phi1",
    "phi2",
    "prime_remark_sentence",
    "satisfies_congruence",
    "LabeledSchreierGraph",
    "build_schreier_graph",
    "cluster_scan",
    "edge_expansion",
    "epsilon_defect",
    "exact_automorphisms",
    "regular_action_graph",
    "spectral_gap",
    "GroupAction",
    "biregular_double_centralizer",
    "centralizer_transitive_action",
    "one_discrete_check",
    "AlmostHom",
    "almost_hom",
    "enumerate_homs",
    "nearest_hom",
    "uniform_defect",
    "STABILITY_BOUND",
]
