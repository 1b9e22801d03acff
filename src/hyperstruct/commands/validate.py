"""validate: check the tower laws of a document."""
from . import _need, _print, _read_document


def run(args) -> int:
    from .. import core

    rep = core.validate(_need(_read_document(args.input), "hyperstructure"))
    _print(rep.lines())
    return 0 if rep.passed else 1
