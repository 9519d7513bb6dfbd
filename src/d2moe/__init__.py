"""Difficulty-aware dynamic mixture-of-experts for graph node classification.

Nodes whose predictive distribution is uncertain get a larger expert budget;
confident nodes get a smaller one. The package covers the model and its
custom differentiation tape, synthetic graph generation, the regularized
training loop, post-hoc analysis (entropy stratification, ablations), the
capacity scaling law, and a command line front end.
"""

from .analysis import (
    AblationResult,
    DecileBucket,
    decile_activation_spearman,
    proxy_config,
    run_ablation,
    stratify_by_entropy,
    train_proxy,
)
from .graph import (
    Graph,
    GraphFormatError,
    SbmSpec,
    edge_homophily,
    generate_sbm,
    load_graph_dir,
    split_nodes,
    write_graph,
)
from .moe_core import (
    CheckpointError,
    EvalReport,
    ModelConfig,
    ModelParams,
    RoutingTrace,
    TopK,
    evaluate,
    forward,
    init_params,
    load_checkpoint,
    map_budget,
    predict,
    predictive_entropy,
    save_checkpoint,
    select_top_p_batch,
)
from .theory import (
    ScalingParams,
    ScalingRow,
    fit_scaling_exponent,
    generalization_error,
    optimal_k_bruteforce,
    optimal_k_closed_form,
    scaling_rows,
)
from .training import (
    EpochReport,
    FixedTopP,
    Full,
    RandomTopP,
    TrainConfig,
    TrainingDivergence,
    TrainState,
    Variant,
    fit,
    make_variant,
    variant_label,
    write_metrics,
)

__version__ = "0.1.0"

__all__ = [
    "AblationResult",
    "CheckpointError",
    "DecileBucket",
    "EpochReport",
    "EvalReport",
    "FixedTopP",
    "Full",
    "Graph",
    "GraphFormatError",
    "ModelConfig",
    "ModelParams",
    "RandomTopP",
    "RoutingTrace",
    "SbmSpec",
    "ScalingParams",
    "ScalingRow",
    "TopK",
    "TrainConfig",
    "TrainingDivergence",
    "TrainState",
    "Variant",
    "decile_activation_spearman",
    "edge_homophily",
    "evaluate",
    "fit",
    "fit_scaling_exponent",
    "forward",
    "generalization_error",
    "generate_sbm",
    "init_params",
    "load_checkpoint",
    "load_graph_dir",
    "make_variant",
    "map_budget",
    "optimal_k_bruteforce",
    "optimal_k_closed_form",
    "predict",
    "predictive_entropy",
    "proxy_config",
    "run_ablation",
    "save_checkpoint",
    "scaling_rows",
    "select_top_p_batch",
    "split_nodes",
    "stratify_by_entropy",
    "train_proxy",
    "variant_label",
    "write_graph",
    "write_metrics",
]
