"""Rule catalogue: importing this package registers every rule.

One module per rule family; each module's docstring carries the paper
rationale that ``docs/STATIC_ANALYSIS.md`` summarizes. Every rule is a
single-pass AST check of one module.
"""

from __future__ import annotations

from . import determinism  # noqa: F401
from . import floateq  # noqa: F401
from . import frozen  # noqa: F401
from . import infeasible  # noqa: F401
from . import layering  # noqa: F401
from . import printer  # noqa: F401
from . import spanctx  # noqa: F401
from . import units  # noqa: F401
from . import wallclock  # noqa: F401

from .determinism import ModuleStateWriteRule, UnseededRandomnessRule
from .floateq import FloatEqualityRule
from .frozen import FrozenMutationRule
from .infeasible import InfeasibleArithmeticRule
from .layering import ImportLayeringRule
from .printer import PrintInLibraryRule
from .spanctx import SpanContextRule
from .units import UnitSuffixRule
from .wallclock import WallClockRule

__all__ = [
    "FloatEqualityRule",
    "FrozenMutationRule",
    "InfeasibleArithmeticRule",
    "ImportLayeringRule",
    "ModuleStateWriteRule",
    "PrintInLibraryRule",
    "SpanContextRule",
    "UnitSuffixRule",
    "UnseededRandomnessRule",
    "WallClockRule",
]
