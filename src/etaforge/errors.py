"""Exception types shared across the library."""


class EtaforgeError(Exception):
    """Base class for library-specific failures."""


class UsageError(EtaforgeError):
    """Caller supplied arguments that violate an operation's contract."""


class SeriesDomainError(EtaforgeError):
    """Series operation outside its domain (bad constant term, order mismatch)."""


class UnknownHodgeData(EtaforgeError):
    """A Hodge number lies in a moduli-dependent range with no declared value."""


class ProviderConsistencyError(EtaforgeError):
    """Provider data contradicts a structural constraint it promised to satisfy."""


class InvalidDolbeaultData(EtaforgeError):
    """Dolbeault multiplicities form no exact complex: a negative d^p or a nonzero d^m."""


class CrossCheckFailed(EtaforgeError):
    """A closed form disagrees with the independent oracle that checks it."""


class NoConsistentConvention(EtaforgeError):
    """Calibration found no convention set satisfying the consistency targets."""
