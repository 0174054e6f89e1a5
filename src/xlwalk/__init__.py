"""xlwalk: deterministic simulator for model-carrying random walkers.

Autonomous walkers traverse a graph of data-holding nodes, train their model
on each node's local samples, and optionally interact: colliding to average
models, attracting each other, and meeting at scheduled rendezvous points.
"""

from .datahub import Dataset, Partition, gen_synthetic, partition_clique_dominant, partition_label_skew
from .errors import ConfigError, GenerationError
from .experiment import (
    ExperimentConfig,
    MetricsRecord,
    RunResult,
    build_environment,
    config_from_dict,
    run_many,
    run_single,
    run_sweep,
    simulate,
    summarize,
)
from .learner import LearnerSpec, ModelParams, evaluate, init_model, sgd_steps, weighted_average
from .policy import (
    ElasticSpec,
    PolicySpec,
    TransitionPolicy,
    accuracy_scaled_alpha,
    build_transition,
    data_quality,
    elastic_iterations,
    importance_vector,
    mh_transition,
    uniform_transition,
)
from .presets import PRESETS, preset_configs
from .swarm import AttractionSpec, SwarmState, attraction_probability, clique_confined_policy
from .topology import Centrality, Graph, betweenness, gen_connected_caveman, gen_rgg, next_hop_toward
from .walker import MemorySpec, WalkerState, memory_merge, perception_refresh, step, visit

__version__ = "0.1.0"
