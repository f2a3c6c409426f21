"""Diagnostic codes, the diagnostic record, and the exception hierarchy.

Every user-facing failure carries a stable code so scripts can match on
it; README's "Diagnostic codes" table lists each code with its meaning.
The CLI renders diagnostics as text or JSON lines.
"""

from __future__ import annotations

from .node import node


@node
class Diagnostic:
    severity: str  # error | warning | info
    code: str
    message: str
    path: str | None = None
    line: int | None = None
    col: int | None = None
    evidence: dict | None = None

    def text(self) -> str:
        where = self.path or "<input>"
        if self.line is not None:
            where += f":{self.line}"
            if self.col is not None:
                where += f":{self.col}"
        return f"{self.severity}[{self.code}] {where}: {self.message}"

    def json(self) -> str:
        import json  # only --json renders; importing it costs start-up time
        record = {
            "severity": self.severity,
            "code": self.code,
            "file": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.evidence is not None:
            record["evidence"] = self.evidence
        return json.dumps(record, sort_keys=True)


class FordcError(Exception):
    """Base for all tool errors; knows its diagnostic code, the class's
    unless `code` is given."""

    code = "E-TYPE"

    def __init__(self, message: str, *, code: str | None = None,
                 loc: tuple[int, int] | None = None,
                 evidence: dict | None = None):
        super().__init__(message)
        self.message = message
        self.code = code or self.code
        self.loc = loc
        self.evidence = evidence

    def diagnostic(self, path: str | None = None) -> Diagnostic:
        line, col = self.loc if self.loc else (None, None)
        return Diagnostic("error", self.code, self.message, path, line, col,
                          self.evidence)


class ParseError(FordcError):
    code = "E-PARSE"

    def __init__(self, message: str, line: int, col: int,
                 expected: frozenset[str] = frozenset(), *,
                 code: str | None = None):
        super().__init__(message, code=code, loc=(line, col))
        self.expected = expected


class ScopeError(ParseError):
    """Name resolution failure; a parse-stage error for exit-code purposes."""

    code = "E-SCOPE"


class TypeCheckError(FordcError):
    code = "E-TYPE"


class CoverageError(TypeCheckError):
    code = "E-COVERAGE"


class StepBudgetExceeded(FordcError):
    code = "E-STEP-BUDGET"


class TransformError(FordcError):
    """A transform refused its input; each raise gives the `code`."""
