"""Every akpz error is an AkpzError, which the command line maps to exit
code 2; each class also keeps its builtin base (ValueError or RuntimeError)."""


class AkpzError(Exception):
    """Base class of every akpz error."""


class ParameterError(AkpzError, ValueError):
    """Torus or model parameters outside their admissible range."""


class ConfigError(AkpzError, ValueError):
    """A particle configuration or an experiment configuration is malformed."""


class StateSpaceError(AkpzError, ValueError):
    """Exhaustive enumeration requested on a torus that is too large."""


class DomainError(AkpzError, ValueError):
    """Argument outside the mathematical domain of a function."""


class ModelError(AkpzError, ValueError):
    """A structural property of the limit model failed numerically."""


class AccuracyError(AkpzError, RuntimeError):
    """Requested tolerance not reached within the refinement budget."""
