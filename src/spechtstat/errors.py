"""Exception types shared across the library."""


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """A computation exceeds a limit: a factorial-cost route above its configured
    ceiling, or a number too long for the interpreter's int/string conversion."""


class ParseError(ValueError):
    """A text file or string could not be parsed; the message carries a line number."""
