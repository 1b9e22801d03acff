"""compose: glue two bonds compatible at a probe level."""
from . import _emit, _need, _print, _read_document
from .refs import _combiner, _element_ref


def run(args) -> int:
    from .. import composition

    doc = _read_document(args.input)
    h = _need(doc, "hyperstructure")
    a = _element_ref(h, args.a)
    b = _element_ref(h, args.b)
    comb = _combiner(args.combiner)
    if a.level == b.level:
        h2, eid = composition.compose(h, a, b, args.p, args.mode, comb, args.id)
    else:
        h2, eid = composition.compose_cross(h, a, b, args.p, args.mode, comb, args.id)
    bond = h2.bond(eid)
    _emit(args.out, doc._replace(hyperstructure=h2))
    _print(
        [
            f"composed: {eid!r}",
            f"support: {bond.support!r}",
            f"property: {bond.property}",
        ]
    )
    return 0
