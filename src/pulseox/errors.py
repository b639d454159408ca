"""Exception types shared across the package."""


class PulseoxError(Exception):
    """Base class for all package-specific errors."""


# signal_io
class MalformedHeader(PulseoxError):
    pass


class NonMonotonicBeyondTolerance(PulseoxError):
    """More than 1% of rows arrived out of timestamp order; capture is corrupt."""


class EmptyStream(PulseoxError):
    pass


# spo2
class WindowTooShort(PulseoxError):
    pass


class TooFewPairs(PulseoxError):
    pass


# features / gbdt
class SingleClass(PulseoxError):
    pass


class EmptyMatrix(PulseoxError):
    pass


class CatalogMismatch(PulseoxError):
    pass


class SchemaVersionMismatch(PulseoxError):
    pass


class CorruptFile(PulseoxError):
    pass


# pipeline / metrics
class LengthMismatch(PulseoxError):
    pass


class EmptyGroup(PulseoxError):
    pass


class InsufficientUserData(PulseoxError):
    pass


# synth
class ConfigOutOfRange(PulseoxError):
    pass


class IoFailure(PulseoxError):
    pass
