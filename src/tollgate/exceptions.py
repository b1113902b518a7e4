"""Exception types shared across the package, the base of the records that
check their fields, and the one left fold that sums floats.

Every refusal of a scenario document is a :class:`ScenarioError` with a
code and the ``path`` of the offending field from the document root; the
loader roots a section's errors there with :meth:`ScenarioError.under`.
"""

from __future__ import annotations

import functools
import operator


class TollgateError(Exception):
    """Base class for all package errors."""


class ScenarioError(TollgateError):
    """Base class for scenario loading failures. Carries a stable error code."""

    code = "scenario"

    def __init__(self, message: str, path: str = "") -> None:
        self.message = message
        self.path = path
        super().__init__(f"[{self.code}] {message}" + (f" (at {path})" if path else ""))

    def under(self, root: str) -> ScenarioError:
        """This error at ``root.path``: the path from a section's root made
        the path from the document's."""
        return type(self)(self.message, f"{root}.{self.path}" if self.path else root)


class ScenarioParseError(ScenarioError):
    code = "parse"


class ScenarioReferenceError(ScenarioError):
    code = "unresolved-reference"


class ModelValidationError(ScenarioError):
    """A model, record or scenario section violates a structural invariant."""

    code = "invariant"


class UnreachableNodeError(TollgateError):
    """An intervention or query names a (time, state) node the model does not have."""


class PolicyUndefinedError(TollgateError):
    """A policy was asked for a decision node it does not cover."""


class EnumerationBudgetError(TollgateError):
    """A brute-force enumeration exceeded its hard cap."""


class PartitionMismatchError(TollgateError):
    """An increment sequence does not sum to the stated total."""


class CalibrationSizeError(TollgateError):
    """Calibration set too small for the requested confidence level."""


class InvalidWitnessError(TollgateError):
    """A witness event has zero probability under the designated model."""


class RunArtifactError(TollgateError):
    """The artifacts of a run directory disagree on which episodes it holds,
    or hold a record, cell or manifest field that does not convert."""


class Checked:
    """Base of a named tuple whose ``__new__`` checks its fields. Its
    ``_make``, which ``_replace`` calls, builds through ``__new__`` too, so
    no copy or rebuild of the record skips the checks."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        values = tuple(iterable)
        if len(values) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(values)}")
        return cls(*values)


def fold(values):
    """``values`` added left to right from the int 0, as ``sum()`` adds
    floats before Python 3.12, whose ``sum()`` compensates."""
    return functools.reduce(operator.add, values, 0)
