"""hyperstruct: finite level towers of property-tagged bonds.

Build towers bond by bond, validate the defining laws, compose bonds across
levels, check sieve/topology axioms on bond families, fold local states into
global ones over a site, run the iterated category-of-elements construction
with nerve homology, and detect Brunnian binding patterns.
"""

from .core import (
    Bond,
    BondSpec,
    ElementId,
    Hyperstructure,
    IDENTITY_PROPERTY,
    Support,
    add_bond,
    add_bonds,
    assign_property,
    boundary,
    gamma,
    identity_bond,
    iterated_boundary,
    new_hyperstructure,
    validate,
)
from .report import CheckReport, Finding

__all__ = [
    "Bond",
    "BondSpec",
    "CheckReport",
    "ElementId",
    "Finding",
    "Hyperstructure",
    "IDENTITY_PROPERTY",
    "Support",
    "add_bond",
    "add_bonds",
    "assign_property",
    "boundary",
    "gamma",
    "identity_bond",
    "iterated_boundary",
    "new_hyperstructure",
    "validate",
]
