"""Cooperative multi-UAV terrain monitoring simulator and training engine."""

__version__ = "0.1.0"

from .gridmap import (
    GroundTruthMap,
    ImportanceWeights,
    Measurement,
    OccupancyGrid,
    SensorModel,
    footprint,
    fuse_measurement,
    map_entropy,
    simulate_measurement,
    weighted_cell_entropy,
)
from .environment import (
    Action,
    AgentLocalState,
    EnvConfig,
    GlobalState,
    NoiseStreams,
    TerrainEnv,
    exchange_messages,
    generate_terrain,
    reward,
    valid_actions,
)

__all__ = [
    "Action",
    "AgentLocalState",
    "EnvConfig",
    "GlobalState",
    "GroundTruthMap",
    "ImportanceWeights",
    "Measurement",
    "NoiseStreams",
    "OccupancyGrid",
    "SensorModel",
    "TerrainEnv",
    "exchange_messages",
    "footprint",
    "fuse_measurement",
    "generate_terrain",
    "map_entropy",
    "reward",
    "simulate_measurement",
    "valid_actions",
    "weighted_cell_entropy",
]
