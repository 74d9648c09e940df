"""Exception types shared across the package."""


class TerrascoutError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(TerrascoutError):
    """A config value is inconsistent or refers to something unknown."""


class DomainError(TerrascoutError):
    """A numeric argument lies outside its mathematical domain."""


class InvalidPositionError(TerrascoutError):
    """A measurement position is outside the terrain or below ground."""


class InvalidMeasurementError(TerrascoutError):
    """A measurement does not fit the map it is fused into."""


class DimensionError(TerrascoutError):
    """Operand shapes cannot be combined."""


class ContractViolation(TerrascoutError):
    """A caller broke an operation precondition (empty mask, bad lengths, ...)."""


class RejectedStepError(TerrascoutError):
    """A joint action contained a component forbidden by the action mask."""


class DegenerateTerrainError(TerrascoutError):
    """The terrain has no region of interest to evaluate against."""


class TrainingDivergenceError(TerrascoutError):
    """A loss or gradient became non-finite during optimization."""


class UsageError(TerrascoutError):
    """Bad command-line usage. Maps to exit code 2."""


class DataError(TerrascoutError):
    """Malformed input data file. Maps to exit code 3."""
