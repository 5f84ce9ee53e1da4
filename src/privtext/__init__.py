"""Metric-DP text perturbation toolkit: embedding-space randomizers,
privacy amplification stages, a localize-amplify-curate protocol
simulation, and privacy/utility analysis tools."""

from .amplification import (
    AmplifierConfig,
    amplified_epsilon,
    kthreshold_batch,
    shuffle_batch,
    subsample_batch,
)
from .analysis import (
    DeniabilityStats,
    MetricDpReport,
    Posterior,
    attack_accuracy,
    deniability_stats,
    optimal_attack,
    posterior,
    verify_metric_dp,
)
from .embeddings import EmbeddingStore, load_embeddings
from .errors import PrivtextError
from .pipeline import CorpusSpec, CuratorReport, ProtocolConfig, run_protocol
from .randomizers import (
    Mechanism,
    MechanismConfig,
    TransitionMatrix,
    build_transition_matrix,
    sample_from_matrix,
)
from .samplers import (
    MultivariateLaplaceParam,
    RngStream,
    sample_mv_laplace,
    sample_mv_laplace_truncated,
    sample_permutation,
    sample_unit_sphere,
)
from .sensitivity import SensitivityProfile, build_profile

__version__ = "0.1.0"
