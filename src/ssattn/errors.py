"""Exception taxonomy shared across the library."""


class SSAttnError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(SSAttnError):
    """Operands have incompatible shapes or geometry."""


class SizeError(SSAttnError):
    """Requested extents are negative or overflow the address space."""


class EmptyDomainError(SSAttnError):
    """A lattice was requested on an axis of extent zero."""


class DTypeError(SSAttnError):
    """An array's dtype differs from the dtype the operation is built for."""


class NumericError(SSAttnError):
    """Non-finite values where the contract requires finite ones."""


class StateError(SSAttnError):
    """A parameter state to load lacks expected entries or has extra ones."""


class ConfigError(SSAttnError):
    """A configuration violates its invariants."""


class FormatError(SSAttnError):
    """Base class for file-format errors."""


class MagicError(FormatError):
    """File does not start with the expected magic tag."""


class TruncatedPayloadError(FormatError):
    """File ends before the declared payload does."""


class PayloadSizeError(FormatError):
    """Declared shape and payload byte count disagree."""


class ManifestError(FormatError):
    """Checkpoint manifest is missing, duplicated, or inconsistent."""
