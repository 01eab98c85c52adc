"""Tag-based diffusion recommenders on folksonomy graphs, plus a
trace-driven gossip simulator for opportunistic networks."""

# the one version string: manifests and the package metadata read it from here
__version__ = "0.1.0"

from .evaluation import (
    CorrelationReport,
    EvalReport,
    LinkRemovalSet,
    correlation_analysis,
    evaluate_on_pruned,
    jaccard,
    precision,
    prune_for_link_prediction,
    recall,
    spearman_similarity,
)
from .graph import FolksonomyGraph, load_graph_tsv, save_graph_tsv
from .recommend import (
    RecommendationVector,
    ScoreVector,
    affinity_scores,
    cf_user_based,
    heats_scores,
    hybrid_scores,
    pliers_tripartite,
    probs_scores,
    rank,
    similarity_scores,
    tag_expansion,
)
from .simulator import (
    ContactEvent,
    ContentEvent,
    DownloadPolicySpec,
    DownloadPolicyState,
    SimConfig,
    Simulation,
    StepMetrics,
    apply_download_policy,
    compute_step_metrics,
    generate_synthetic_contacts,
    run,
)
from .synth import generate_folksonomy, generate_synthetic_contents
