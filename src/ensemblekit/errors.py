"""Exception hierarchy shared across the package."""


class EnsembleKitError(Exception):
    """Base class for all domain errors raised by ensemblekit."""


class ConfigError(EnsembleKitError):
    """Invalid workflow, platform, model or engine configuration. Every
    configuration error derives from it; the CLI exits 2 for any of them."""


class IllegalTransition(EnsembleKitError):
    """Task state machine edge is not allowed."""


class InvalidNodeSpec(EnsembleKitError):
    """Node shape is degenerate (e.g. all cores reserved)."""


class Unplaceable(ConfigError):
    """A single process of the task exceeds what one node offers, or the
    task can never fit the allocation."""


class PolicyGap(ConfigError):
    """No walltime-policy tier covers the requested node count."""


class ParseError(ConfigError):
    """Config file could not be parsed; message carries line context."""


class ValidationError(ConfigError):
    """Config parsed but violates invariants; message lists them all."""


class DoubleRelease(EnsembleKitError):
    """Placement released twice."""


class PolicyViolation(ConfigError):
    """Requested walltime exceeds the policy tier for the allocation."""


class IncompleteLog(EnsembleKitError):
    """Event log has no JOB_END; metrics and failure collection refuse it."""


class MalformedLog(EnsembleKitError):
    """Event log violates per-task event ordering."""


class Interrupted(EnsembleKitError):
    """A local run stopped on SIGINT or SIGTERM; ``log`` is its complete
    event log, every unfinished task canceled and JOB_END last."""

    def __init__(self, message: str, log):
        super().__init__(message)
        self.log = log


class InsufficientData(EnsembleKitError):
    """Not enough events to compute a rate."""


class EmptyPlan(EnsembleKitError):
    """Resubmission requested with no failure records."""


class UnknownShape(ConfigError):
    """Example-workflow generator does not know the requested shape."""
