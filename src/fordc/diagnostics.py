"""Diagnostic codes, the diagnostic record, and the exception hierarchy.

Every user-facing failure carries a stable code from CODES so scripts can
match on it; the CLI renders diagnostics as text or JSON lines.
"""

from __future__ import annotations

from .node import node

CODES = {
    "E-PARSE": "source text does not match the grammar",
    "E-SCOPE": "unknown, ambiguous, or duplicate name",
    "E-ARITY": "wrong number of patterns, arguments, or availability entries",
    "E-TYPE": "expected and actual types differ",
    "E-UNIVERSE": "term does not fit in the two-universe hierarchy",
    "E-UNIFY-STUCK": "index unification blocked on a neutral term",
    "E-UNIFY-CLASH": "index unification hit distinct rigid constructors",
    "E-COVERAGE": "clauses do not cover every canonical case",
    "E-TERMINATION": "no argument position decreases structurally",
    "E-POSITIVITY": "datatype occurs in a negative position",
    "E-STEP-BUDGET": "normalization exceeded the step budget",
    "E-DEPTH": "input nested too deeply for the parser or the checker",
    "E-NAME-CLASH": "generated or declared name collides with an existing one",
    "E-FORD-TARGET": "datatype cannot be forded",
    "E-FORD-NO-INDICES": "ford target has no indices",
    "E-MERGE-BLOCK": "merge block violates the plain-datatype restriction",
    "E-IO": "file could not be read or written",
    "E-INTERNAL": "fordc failed on a defect of its own, not on the input",
}


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
