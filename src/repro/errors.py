"""Exception hierarchy shared by all repro subsystems."""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SourceError(ReproError):
    """An error attributable to a location in Mini-C source code."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column or 0}: {message}"
        super().__init__(message)


class LexerError(SourceError):
    """Invalid character or token while scanning Mini-C source."""


class ParseError(SourceError):
    """Malformed syntax while parsing Mini-C source."""


class SemanticError(SourceError):
    """Type or scope error found during semantic analysis."""


class LoweringError(ReproError):
    """Internal failure while lowering the AST to IR."""


class IRError(ReproError):
    """Malformed IR detected by the builder or the verifier."""


class PassError(ReproError):
    """Failure inside an analysis or transformation pass."""


class VMError(ReproError):
    """Runtime error raised by the IR interpreter."""


class AssertionFailure(VMError):
    """A Mini-C ``assert`` failed during execution or model checking."""

    def __init__(self, message, thread_id=None):
        self.thread_id = thread_id
        super().__init__(message)
