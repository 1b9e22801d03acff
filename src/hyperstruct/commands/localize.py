"""localize: distribute top states down the tower."""
from . import _assignment_lines, _emit, _need, _print, _read_document
from ..errors import SchemaError


def run(args) -> int:
    from .. import states

    doc = _read_document(args.input)
    h = _need(doc, "hyperstructure")
    sec = _need(doc, "states")
    if sec.top is None or sec.co_connectors is None:
        raise SchemaError("localize needs states.top and states.co_connectors")
    lam = states.localize(h, sec.top, sec.co_connectors)
    lines = _assignment_lines("localized", lam)
    _emit(args.out, doc._replace(states=sec._replace(assignment=lam)))
    _print(lines)
    return 0
