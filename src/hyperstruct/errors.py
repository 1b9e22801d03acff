"""Exception classes shared across the package.

Every error carries a stable ``kind`` string; the CLI prints it as the
machine-parsable first line ``error: <kind>``. A subclass's kind is its
class name unless it passes its own, as ``DanglingReference`` does with
``kind="ReferenceError"``.
"""


class HyperstructError(Exception):
    kind = "Error"

    def __init_subclass__(cls, kind: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.kind = kind or cls.__name__

    def __init__(self, message: str = ""):
        super().__init__(message)
        self.message = message


# -- tower construction ------------------------------------------------------

class DuplicateId(HyperstructError):
    pass


class EmptyBase(HyperstructError):
    pass


class EmptySupport(HyperstructError):
    pass


class UnknownElement(HyperstructError):
    pass


class LevelOutOfRange(HyperstructError):
    pass


class PropertyNotAssigned(HyperstructError):
    pass


class NotABond(HyperstructError):
    pass


class ReservedProperty(HyperstructError):
    pass


class MixedLevels(HyperstructError):
    pass


# -- assignment behaviour checks ---------------------------------------------

class MissingInducedMap(HyperstructError):
    pass


class CombinerUndefined(HyperstructError):
    pass


class NotDisjoint(HyperstructError):
    pass


# -- composition --------------------------------------------------------------

class NotComposable(HyperstructError):
    pass


class NotGluable(HyperstructError):
    pass


# -- topology ------------------------------------------------------------------

class NotRefinement(HyperstructError):
    pass


class SweepTooLarge(HyperstructError):
    pass


class NotATopology(HyperstructError):
    def __init__(self, message: str = "", report=None):
        super().__init__(message)
        self.report = report


# -- states ---------------------------------------------------------------------

class InvalidStateTower(HyperstructError):
    pass


class MissingState(HyperstructError):
    pass


class ConnectorUndefined(HyperstructError):
    pass


class CoConnectorUndefined(HyperstructError):
    pass


class OperationMissing(HyperstructError):
    pass


# -- categories -------------------------------------------------------------------

class InvalidCategory(HyperstructError):
    pass


class InvalidPresheaf(HyperstructError):
    pass


class InconsistentComplex(HyperstructError):
    pass


# -- installers ---------------------------------------------------------------------

class ArityMismatch(HyperstructError):
    pass


class UnknownCoordinate(HyperstructError):
    pass


class EmptyEdge(HyperstructError):
    pass


class UnknownVertex(HyperstructError):
    pass


class DownwardClosureViolation(HyperstructError):
    pass


class InvalidBranching(HyperstructError):
    pass


# -- documents ------------------------------------------------------------------------

class ParseError(HyperstructError):
    pass


class SchemaError(HyperstructError):
    pass


class DanglingReference(HyperstructError, kind="ReferenceError"):
    pass
