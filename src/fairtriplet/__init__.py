"""fairtriplet: group-balanced triplet training and biometric evaluation for
cross-domain identity verification on synthetic, demographically imbalanced
pair data."""

from .core import (
    CONTINENTS,
    COUNTRIES,
    GENDERS,
    ConfigError,
    Dataset,
    ResolutionError,
    continent_of,
    normalize,
    squared_distance,
)
from .datagen import GeneratorConfig, GroupGeometry, generate_dataset
from .model import EmbeddingNetwork, OptimizerState, TrainingConfig, triplet_loss
from .sampling import SamplerSpec
from .config import EvalConfig, ExperimentConfig, SamplerConfig, load_config
from .harness import RunRecord, run_eval, run_training

__version__ = "0.1.0"

__all__ = [
    "CONTINENTS",
    "COUNTRIES",
    "GENDERS",
    "ConfigError",
    "Dataset",
    "EmbeddingNetwork",
    "EvalConfig",
    "ExperimentConfig",
    "GeneratorConfig",
    "GroupGeometry",
    "OptimizerState",
    "ResolutionError",
    "RunRecord",
    "SamplerConfig",
    "SamplerSpec",
    "TrainingConfig",
    "continent_of",
    "generate_dataset",
    "load_config",
    "normalize",
    "run_eval",
    "run_training",
    "squared_distance",
    "triplet_loss",
]
