"""Shared exception types."""


class FieldMismatch(Exception):
    """Operands live over different coefficient fields."""


class NotMultihomogeneous(Exception):
    """Operation requires a multihomogeneous input."""


class DegreeMismatch(Exception):
    """Linearization target degrees do not sum to the variable's degree."""


class BadArity(Exception):
    """Generator arity out of range."""


class ArityMismatch(Exception):
    """Substitution tuple length does not match the number of variables."""


class NotPurelyX(Exception):
    """Element has y-part where a polynomial in x alone is required."""


class ResourceLimit(Exception):
    """Configured degree / size cap exceeded."""


class UsageError(Exception):
    """Malformed command-line option or environment setting."""


class ParseError(Exception):
    """Syntax error in an expression, with character position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownVariable(ParseError):
    """Variable name outside the supported x1..x999 range."""
