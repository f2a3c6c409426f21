"""fordc: a type checker and transformer for a small language of indexed
datatypes with availability rows.

Two transformations are provided: fording (de-indexing a family through
explicit equality arguments) and mini-universe merging (folding a block of
plain datatypes into one enumeration-indexed family).
"""

from .canon import canonical_family_values, canonical_values
from .decls import (AxiomDecl, Binder, Clause, CtorDecl, DataDecl, FunDecl,
                    MutualBlock, PatCtor, PatInacc, PatRefl, Pattern, PatVar,
                    SourceModule)
from .diagnostics import (CoverageError, Diagnostic, FordcError, ParseError,
                          ScopeError, StepBudgetExceeded, TransformError,
                          TypeCheckError)
from .ford import FordPlan, ford_data, ford_module, gen_converters
from .kernel import (Checker, check_module, convertible, normalize,
                     prelude_signature)
from .merge import MergePlan, merge_block
from .parser import NameEnv, parse_term_text
from .printer import print_module, print_term
from .signature import Signature
from .unify import UnifyMismatch, UnifyStuck, UnifySuccess, unify_terms


def parse(source: str, env: NameEnv | None = None) -> SourceModule:
    """Parse a module; names resolve against the built-in prelude unless an
    explicit environment is given."""
    from .parser import parse as _parse
    return _parse(source, env if env is not None
                  else prelude_signature().name_env())
