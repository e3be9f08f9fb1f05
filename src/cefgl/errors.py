"""Exception types shared across the package."""


class CefglError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(CefglError):
    pass


class NonFiniteInput(CefglError):
    pass


class ZeroVector(CefglError):
    pass


class BadBits(CefglError):
    pass


class MalformedPayload(CefglError):
    pass


class IoError(CefglError):
    pass


class MissingFile(IoError):
    pass


class ParseError(IoError):
    pass


class IndexOutOfRange(IoError):
    pass


class AmbiguousDataset(IoError):
    pass


class BadSpec(CefglError):
    pass


class BadRatios(CefglError):
    pass


class BadMode(CefglError):
    pass


class DivergenceDetected(CefglError):
    pass


class ConfigError(CefglError):
    pass


class VersionMismatch(CefglError):
    pass
