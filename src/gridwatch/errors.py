"""Exception types shared across the package.

The CLI maps these onto exit codes: anything deriving from ``UserInputError``
is a user/input problem (exit 2), everything else is an internal failure
(exit 1).
"""


class GridwatchError(Exception):
    """Base class for all package errors."""


class UserInputError(GridwatchError):
    """Bad input data, bad arguments, or missing upstream artifacts."""


class RangeError(UserInputError, ValueError):
    """A decoded field falls outside its legal range (e.g. slot not in 1..48)."""


class ContractViolation(GridwatchError):
    """A caller broke an operation precondition (e.g. mixed meter ids)."""


class SplitError(UserInputError):
    """Dataset cannot be split into train/validation (span too short)."""


class TrainingError(GridwatchError):
    """Model training failed (e.g. empty training set)."""


class ModelDecodeError(UserInputError):
    """A serialized model payload is corrupt or has the wrong format."""


class SequencingError(ContractViolation):
    """A detector received observations out of chronological order."""


class ScenarioError(GridwatchError):
    """A scenario stage failed; carries the stage name for diagnosis."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"scenario stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
