"""Exception types shared across the package."""

from __future__ import annotations

from .core import _Frozen


class SourceSpan(_Frozen):
    """Half-open byte range into the parsed text."""

    __slots__ = __match_args__ = ("start", "end")

    def __init__(self, start: int, end: int) -> None:
        if start < 0 or start > end:
            raise ValueError(f"bad span {start}..{end}")
        self._fill(start, end)

    def __iter__(self):
        return iter((self.start, self.end))


class FtlError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(FtlError, ValueError):
    """A domain object was constructed from invalid data."""


class UnknownAtom(FtlError):
    """An atom name is not declared by the trace."""


class PositionOutOfRange(FtlError):
    """A position past the end of a finite trace was addressed."""


class HorizonExceedsTrace(FtlError):
    """A bounded window leaves a finite trace under the strict policy."""


class FormulaTooDeep(FtlError):
    """A formula nests deeper than evaluation can recurse (Python's stack
    limit); raised in place of a RecursionError.  Parsing has no depth
    limit."""


class ScaleIndexOutOfRange(FtlError):
    """A scaling operator index lies outside 1 .. n_eta-1."""


class NotALasso(FtlError):
    """An operation requiring a lasso trace was given a finite one."""


class NotCrisp(FtlError):
    """A crisp-only operation met a truth degree other than 0 or 1."""


class WindowTooLarge(FtlError):
    """The enumeration oracle refuses windows past its guard size."""


class NoConvergence(FtlError):
    """The limit oracle exhausted its bracket budget."""

    def __init__(self, message: str, last_value: float | None = None):
        super().__init__(message)
        self.last_value = last_value


class ParseError(FtlError):
    """Rejected concrete syntax, with a source span and expected tokens."""

    def __init__(
        self,
        message: str,
        span: SourceSpan | tuple[int, int],
        expected: frozenset[str] = frozenset(),
    ):
        super().__init__(message)
        if not isinstance(span, SourceSpan):
            span = SourceSpan(*span)
        self.span = span
        self.expected = expected

    def __str__(self) -> str:
        base = super().__str__()
        if self.expected:
            opts = ", ".join(sorted(self.expected))
            return f"{base} at {self.span.start}..{self.span.end} (expected: {opts})"
        return f"{base} at {self.span.start}..{self.span.end}"


class BudgetExceeded(FtlError):
    """Rewriting grew past the node budget; carries the partial result."""

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = partial


class NotLowerable(FtlError):
    """No sound rule can remove an operator for the requested target set."""

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = partial
