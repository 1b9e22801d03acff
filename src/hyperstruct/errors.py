"""Exception classes shared across the package.

Every error carries a stable ``kind`` string; the CLI prints it as the
machine-parsable first line ``error: <kind>``.
"""


class HyperstructError(Exception):
    kind = "Error"

    def __init__(self, message: str = ""):
        super().__init__(message)
        self.message = message


# -- tower construction ------------------------------------------------------

class DuplicateId(HyperstructError):
    kind = "DuplicateId"


class EmptyBase(HyperstructError):
    kind = "EmptyBase"


class EmptySupport(HyperstructError):
    kind = "EmptySupport"


class UnknownElement(HyperstructError):
    kind = "UnknownElement"


class LevelOutOfRange(HyperstructError):
    kind = "LevelOutOfRange"


class PropertyNotAssigned(HyperstructError):
    kind = "PropertyNotAssigned"


class NotABond(HyperstructError):
    kind = "NotABond"


class ReservedProperty(HyperstructError):
    kind = "ReservedProperty"


class MixedLevels(HyperstructError):
    kind = "MixedLevels"


# -- assignment behaviour checks ---------------------------------------------

class MissingInducedMap(HyperstructError):
    kind = "MissingInducedMap"


class CombinerUndefined(HyperstructError):
    kind = "CombinerUndefined"


class NotDisjoint(HyperstructError):
    kind = "NotDisjoint"


# -- composition --------------------------------------------------------------

class NotComposable(HyperstructError):
    kind = "NotComposable"


class NotGluable(HyperstructError):
    kind = "NotGluable"


# -- topology ------------------------------------------------------------------

class NotRefinement(HyperstructError):
    kind = "NotRefinement"


class SweepTooLarge(HyperstructError):
    kind = "SweepTooLarge"


class NotATopology(HyperstructError):
    kind = "NotATopology"

    def __init__(self, message: str = "", report=None):
        super().__init__(message)
        self.report = report


# -- states ---------------------------------------------------------------------

class InvalidStateTower(HyperstructError):
    kind = "InvalidStateTower"


class MissingState(HyperstructError):
    kind = "MissingState"


class ConnectorUndefined(HyperstructError):
    kind = "ConnectorUndefined"


class CoConnectorUndefined(HyperstructError):
    kind = "CoConnectorUndefined"


class OperationMissing(HyperstructError):
    kind = "OperationMissing"


# -- categories -------------------------------------------------------------------

class InvalidCategory(HyperstructError):
    kind = "InvalidCategory"


class InvalidPresheaf(HyperstructError):
    kind = "InvalidPresheaf"


class InconsistentComplex(HyperstructError):
    kind = "InconsistentComplex"


# -- installers ---------------------------------------------------------------------

class ArityMismatch(HyperstructError):
    kind = "ArityMismatch"


class UnknownCoordinate(HyperstructError):
    kind = "UnknownCoordinate"


class EmptyEdge(HyperstructError):
    kind = "EmptyEdge"


class UnknownVertex(HyperstructError):
    kind = "UnknownVertex"


class DownwardClosureViolation(HyperstructError):
    kind = "DownwardClosureViolation"


class InvalidBranching(HyperstructError):
    kind = "InvalidBranching"


# -- documents ------------------------------------------------------------------------

class ParseError(HyperstructError):
    kind = "ParseError"


class SchemaError(HyperstructError):
    kind = "SchemaError"


class DanglingReference(HyperstructError):
    kind = "ReferenceError"
