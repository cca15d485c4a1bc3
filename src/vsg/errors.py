"""Exception hierarchy shared across the package."""


class VsgError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(VsgError):
    """A file could not be parsed; the message carries path and field context."""


class TaxonomyError(VsgError):
    """A class, attribute, or relationship name is unknown to the taxonomy."""


class ObjectLookupError(VsgError):
    """An object id does not exist in the graph."""


class PairingError(VsgError):
    """Two scans cannot be paired (different environment or taxonomy)."""


class DimensionError(VsgError):
    """Array shapes or layer dimensions do not chain."""


class ConfigError(VsgError):
    """A configuration value is out of its valid range."""


class GraphError(VsgError):
    """An edge index or graph structure is inconsistent."""


class CheckpointError(VsgError):
    """A checkpoint file is unreadable, truncated, or incompatible."""


class GeneratorError(VsgError):
    """A synthetic-scene generator spec is infeasible."""


class TrainingError(VsgError):
    """Training hit a non-finite value or an invalid state."""


class EvaluationError(VsgError):
    """Evaluation was asked to run on an empty or invalid sample set."""


class UsageError(VsgError):
    """An operation was called in a way its contract forbids."""
