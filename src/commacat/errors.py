"""Shared exception types.

BudgetExceeded lives in linalg (it originates there); everything else that
crosses module boundaries is collected here so the CLI can map exception
classes to exit codes in one place.
"""

from __future__ import annotations


class CapabilityError(Exception):
    """An abelian-structure operation was requested in a context whose
    functors do not declare the exactness needed to support it."""


class ExactnessViolation(Exception):
    """A connecting-map linear system had no (or no unique) solution.

    This is how a silently false exactness assumption surfaces: the data
    refused to produce the map the construction requires."""


class CertificateFailure(ExactnessViolation):
    """A computed result failed the check that certifies it, such as an
    HN factor that is not semistable or a composition factor that is not
    simple."""


class ForeignMorphism(ValueError):
    """A morphism was handed to an instance it does not belong to."""


class SpecError(Exception):
    """A workspace file failed to parse or validate."""
