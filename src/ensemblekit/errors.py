"""Exception hierarchy shared across the package."""


class EnsembleKitError(Exception):
    """Base class for all domain errors raised by ensemblekit."""


class IllegalTransition(EnsembleKitError):
    """Task state machine edge is not allowed."""


class InvalidNodeSpec(EnsembleKitError):
    """Node shape is degenerate (e.g. all cores reserved)."""


class Unplaceable(EnsembleKitError):
    """A single process of the task exceeds what one node offers, or the
    task can never fit the allocation."""


class PolicyGap(EnsembleKitError):
    """No walltime-policy tier covers the requested node count."""


class ParseError(EnsembleKitError):
    """Config file could not be parsed; message carries line context."""


class ValidationError(EnsembleKitError):
    """Config parsed but violates invariants; message lists them all."""


class DoubleRelease(EnsembleKitError):
    """Placement released twice."""


class UnknownNode(EnsembleKitError):
    """Node id outside the slot table."""


class PolicyViolation(EnsembleKitError):
    """Requested walltime exceeds the policy tier for the allocation."""


class ConfigError(EnsembleKitError):
    """Invalid workflow, model, or engine configuration."""


class IncompleteLog(EnsembleKitError):
    """Event log has no JOB_END; metrics and failure collection refuse it."""


class MalformedLog(EnsembleKitError):
    """Event log violates per-task event ordering."""


class InsufficientData(EnsembleKitError):
    """Not enough events to compute a rate."""


class EmptyPlan(EnsembleKitError):
    """Resubmission requested with no failure records."""


class UnknownShape(EnsembleKitError):
    """Example-workflow generator does not know the requested shape."""
