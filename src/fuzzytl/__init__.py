"""Fuzzy-time temporal logic: truth degrees on [0, 1], relaxed temporal
operators weighted by an avoiding function, and four interchangeable
interpretations of the connectives."""

from .core import (
    AlmostAlways,
    AlmostAlwaysB,
    AlmostUntil,
    AlmostUntilB,
    Always,
    AlwaysB,
    And,
    Atom,
    AvoidingFunction,
    Bot,
    Eventually,
    EventuallyB,
    Formula,
    Implies,
    Interpretation,
    Lasts,
    Next,
    Not,
    Or,
    Scale,
    Soon,
    Top,
    Trace,
    TruthDegree,
    Until,
    UntilB,
    WeakAnd,
    WeakOr,
    Within,
    degree,
)
from .errors import (
    BudgetExceeded,
    FormulaTooDeep,
    FtlError,
    HorizonExceedsTrace,
    NoConvergence,
    NotALasso,
    NotCrisp,
    NotLowerable,
    ParseError,
    PositionOutOfRange,
    ScaleIndexOutOfRange,
    SourceSpan,
    UnknownAtom,
    ValidationError,
    WindowTooLarge,
)
from .evaluator import (
    ComparisonCounter,
    EvalContext,
    EvalResult,
    Exactness,
    FinitePolicy,
    almost_always_fast,
    eval_unbounded_lasso,
    evaluate,
)
from .parser import format_formula, parse

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
