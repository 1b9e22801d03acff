"""globalize: fold base states up to the top of the tower."""
from . import _assignment_lines, _emit, _need, _print, _read_document
from ..errors import SchemaError


def run(args) -> int:
    from .. import states

    doc = _read_document(args.input)
    h = _need(doc, "hyperstructure")
    sec = _need(doc, "states")
    if sec.base is None or sec.connectors is None:
        raise SchemaError("globalize needs states.base and states.connectors")
    lam = states.globalize(h, sec.base, sec.connectors)
    lines = _assignment_lines("globalized", lam)
    if sec.tower is not None:
        rep = states.validate_lambda(h, sec.tower, lam)
        lines.extend(rep.lines())
        if not rep.passed:
            _print(lines)
            return 1
    _emit(args.out, doc._replace(states=sec._replace(assignment=lam)))
    _print(lines)
    return 0
