"""Exception types shared across the workbench."""


class ValveBenchError(Exception):
    """Base class for workbench-specific failures."""


class ConfigError(ValveBenchError):
    """Invalid configuration input (bad key, bad value, malformed file)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class IdentifiabilityError(ValveBenchError):
    """Regression problem is rank deficient or numerically singular."""


class DivergenceError(ValveBenchError):
    """Recursive estimation blew up: the estimate or its gain matrix is no longer
    finite, the gain matrix lost positive definiteness, or lambda1 left (0, 1]."""


class DesignError(ValveBenchError):
    """Controller synthesis failed (degree mismatch, common factor, b1 = 0, ...)."""
