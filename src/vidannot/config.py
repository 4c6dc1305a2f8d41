"""One typed ledger for every pipeline parameter, grouped by stage."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .ash import AshConfig
from .assoc import AssocConfig
from .backends import DetectionNoise, PropagationDegradation, SyntheticWorldConfig
from .chunker import ChunkerConfig
from .smart_od import SmartOdConfig


@dataclass(frozen=True)
class DeploymentConfig:
    """Dataset-deployment knobs: objective weighting, validation, QA."""

    alpha_weight: float = 0.5  # recall weight in the detection objective
    gamma: float = 0.9  # cross-validation tolerance
    tau_qa: float = 0.9  # QA mean-IoU floor per sequence
    qa_sample_fraction: float = 0.2
    qa_seed: int = 0
    # Candidate values per SmartOdConfig field for the grid search.
    parameter_grid: dict[str, list] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha_weight <= 1.0:
            raise ValueError(f"alpha_weight out of [0,1]: {self.alpha_weight}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma out of (0,1]: {self.gamma}")
        if not 0.0 < self.tau_qa < 1.0:
            raise ValueError(f"tau_qa out of (0,1): {self.tau_qa}")
        if not 0.0 < self.qa_sample_fraction <= 1.0:
            raise ValueError(f"qa_sample_fraction out of (0,1]: {self.qa_sample_fraction}")
        unknown = sorted(set(self.parameter_grid) - {f.name for f in fields(SmartOdConfig)})
        if unknown:
            raise ValueError(f"parameter_grid names no smart_od field: {', '.join(unknown)}")
        for key, values in self.parameter_grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"parameter_grid['{key}'] is not a non-empty list: {values!r}")


@dataclass(frozen=True)
class PipelineConfig:
    smart_od: SmartOdConfig = field(default_factory=SmartOdConfig)
    assoc: AssocConfig = field(default_factory=AssocConfig)
    ash: AshConfig = field(default_factory=AshConfig)
    chunker: ChunkerConfig = field(default_factory=ChunkerConfig)
    deploy: DeploymentConfig = field(default_factory=DeploymentConfig)
    world: SyntheticWorldConfig = field(default_factory=SyntheticWorldConfig)
    noise: DetectionNoise = field(default_factory=DetectionNoise)
    degradation: PropagationDegradation = field(default_factory=PropagationDegradation)
    seed: int = 0
