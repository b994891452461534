"""Exception and warning types shared across the package, the int rules
behind every count, cap, bound and world number (check_int, check_count),
and the type rule of the library's doors (check_type)."""

from __future__ import annotations


class InputError(ValueError):
    """Malformed or ineligible input: bad JSON, out-of-range worlds, failed prechecks."""


class CapExceededError(RuntimeError):
    """A request exceeded a configured resource cap and was refused, not attempted."""


class MissingVariableWarning(UserWarning):
    """A formula variable was absent from the valuation and treated as the empty set."""


def check_int(value: object, what: str) -> int:
    """value, if its type is int (so no bool); what names it in the refusal."""
    if type(value) is int:
        return value
    raise InputError(f"{what} must be an int, not {type(value).__name__}")


def check_type(value: object, kind: type, what: str):
    """value, if an instance of kind; what names it in the refusal."""
    if isinstance(value, kind):
        return value
    raise InputError(f"{what} must be a {kind.__name__}, not {type(value).__name__}")


def check_count(value: object, what: str) -> int:
    """value, if it is a nonnegative int: a count, cap or bound named what."""
    if check_int(value, what) < 0:
        raise InputError(f"{what} must be nonnegative, got {shown(value)}")
    return value


def shown(value: object) -> str:
    """value in a refusal: an int past 64 bits by its size (str stops at 4300 digits)."""
    if type(value) is int and value.bit_length() > 64:
        return f"<{value.bit_length()}-bit int>"
    try:
        return repr(value)
    except ValueError:  # a container holding an int past the digit limit
        return f"<{type(value).__name__}>"
