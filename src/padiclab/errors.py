"""Exception hierarchy shared by all padiclab modules.

Every error carries a stable ``code`` string so the CLI can emit a
machine-parsable reason. ``DomainError`` maps to exit status 1,
``ResourceLimitError`` to exit status 3.
"""

import sys
from functools import lru_cache

#: Longest part of an input string that an error message quotes.
_QUOTE_CHARS = 40


def max_str_digits() -> int:
    """CPython's active int <-> str digit limit, at most 4300; 4300 where none is set."""
    return min(getattr(sys, "get_int_max_str_digits", int)() or 4300, 4300)  # 0: no limit


@lru_cache(maxsize=8)
def _power_of_ten(digits: int) -> int:
    return 10**digits


def printable_bound() -> int:
    """10**max_str_digits(), read at the active limit: CPython prints an int below it."""
    return _power_of_ten(max_str_digits())


def int_str(n: int) -> str:
    """``str(n)``; an int of over ``max_str_digits()`` digits shows its bit length instead."""
    if abs(n) >= printable_bound():
        return f"{'-' if n < 0 else ''}<int of {n.bit_length()} bits>"
    return str(n)


def quoted(s) -> str:
    """``repr(s)``, an int as the repr of ``int_str(s)``; past ``_QUOTE_CHARS``
    characters only the prefix and the length show."""
    if isinstance(s, int):
        s = int_str(s)
    if isinstance(s, str) and len(s) > _QUOTE_CHARS:
        return f"{s[:_QUOTE_CHARS]!r}... ({len(s)} characters)"
    return repr(s)


class PadiclabError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class DomainError(PadiclabError):
    """An operation was called with arguments outside its domain."""

    code = "domain_error"


class ResourceLimitError(PadiclabError):
    """Input exceeds the documented desk-scale resource bounds."""

    code = "resource_limit"


class NotPrimeError(DomainError):
    code = "not_prime"


class MixedPrimesError(DomainError):
    code = "mixed_primes"


class ZeroInversionError(DomainError):
    code = "zero_inversion"


class ExpansionFormatError(DomainError):
    """Negative-valuation numbers have no plain digit expansion."""

    code = "unsupported_expansion"


class ExpansionParseError(DomainError):
    code = "expansion_parse_error"


class NotARootError(DomainError):
    code = "not_a_root"


class SingularRootError(DomainError):
    """The simple-root lifting scheme does not apply (derivative vanishes mod p)."""

    code = "singular_root"


class NonEncodableError(DomainError):
    """The rational has no r-digit residue code (p divides its denominator)."""

    code = "non_encodable"


class DecodeFailureError(DomainError):
    """No rational inside the Farey box reproduces the residue."""

    code = "decode_failure"


class AccuracyError(PadiclabError):
    """Quadrature failed to reach the requested tolerance."""

    code = "accuracy_error"

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class RangeError(DomainError):
    """Evaluation would leave the supported numeric range."""

    code = "range_error"
