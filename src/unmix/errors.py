"""Exception hierarchy shared by all modules."""


class UnmixError(Exception):
    """Base class for all errors raised by this package."""


class InputError(UnmixError):
    """The input data or configuration is at fault, not the program."""


class FormatError(InputError):
    """A file did not match its declared on-disk layout."""


class UnsupportedFormatError(FormatError):
    """The file is recognizable but uses an encoding we do not read."""


class RangeError(InputError):
    """A value fell outside its documented range."""


class ShapeError(UnmixError):
    """Array arguments do not line up."""


class InsufficientInputError(InputError):
    """The signal is too short for the requested operation."""


class ConfigurationError(InputError):
    """Invalid or inconsistent configuration."""


class GeometryError(InputError):
    """A scene or array layout is physically impossible."""


class NoSignalError(UnmixError):
    """An operation that needs signal energy got none (e.g. all-zero mask)."""


class UndefinedMetricError(UnmixError):
    """A metric is undefined for the given inputs (e.g. zero reference)."""


class ContractViolationError(UnmixError):
    """An input violated a documented numeric contract (e.g. non-Hermitian)."""
