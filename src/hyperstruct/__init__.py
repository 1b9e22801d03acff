"""hyperstruct: finite level towers of property-tagged bonds.

Build towers bond by bond, validate the defining laws, compose bonds across
levels, check sieve/topology axioms on bond families, fold local states into
global ones over a site, run the iterated category-of-elements construction
with nerve homology, and detect Brunnian binding patterns.

The names below load with their module on first use (PEP 562), so importing
the package, or running one CLI command, loads only the modules it reads.
"""

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

#: The module each name is read from; the rest come from core, which loads
#: the modules that hold validate and the one-step operations in turn.
_HOMES = {"CheckReport": "report", "Finding": "report"}


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__name__}.{_HOMES.get(name, 'core')}", fromlist=[name]), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
