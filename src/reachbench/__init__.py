"""Parser-synthesis workbench for evaluating reachability estimators.

Pipeline: generate labeled LL(1) grammars, compile them to recursive-descent
parser programs with known coverage-element ground truth, fuzz them,
aggregate coverage into incidence matrices, and score species-richness
estimators of the maximum reachable coverage against the known truth.
"""

__version__ = "0.1.0"

from .codegen import (
    CompileError,
    GroundTruthMismatch,
    ParserProgram,
    compile_to_parser,
    cyclomatic_complexity,
    execute_parser,
    interpret_parser,
    export_c_source,
)
from .estimators import ALL_METHODS, EstimateWithCI, estimate, estimate_all
from .evaluation import (
    BernoulliProductModel,
    SensitivityVerdict,
    ci_coverage,
    imprecision,
    mean_bias,
    sensitivity_analysis,
    simulate_incidence,
)
from .fuzzer import (
    CampaignConfig,
    CampaignLog,
    MutationPolicy,
    generate_seed_corpus,
    run_campaign,
)
from .grammar import (
    EOI,
    Grammar,
    GrammarError,
    Rule,
    check_ll1,
    compute_first_follow,
    parse_grammar,
    serialize_grammar,
)
from .grammargen import GenConfig, GroundTruthLabel, generate_grammar
from .incidence import IncidenceMatrix, build_incidence_matrix, rebin
from .stattests import mann_whitney_u, shapiro_wilk, welch_t_test
