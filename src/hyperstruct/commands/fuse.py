"""fuse: weak-mode gluing, logged with its level signature."""
from . import _emit, _need, _print, _read_document
from .refs import _combiner, _element_ref


def run(args) -> int:
    from .. import composition

    doc = _read_document(args.input)
    h = _need(doc, "hyperstructure")
    a = _element_ref(h, args.a)
    b = _element_ref(h, args.b)
    h2, eid = composition.fuse(h, a, b, args.k, _combiner(args.combiner), args.id)
    rec = h2.fusion_log[-1]
    bond = h2.bond(eid)
    _emit(args.out, doc._replace(hyperstructure=h2))
    _print(
        [
            f"fused: {eid!r}",
            f"signature: (k={rec.k}, m={rec.m}, n={rec.n})",
            f"support: {bond.support!r}",
            f"property: {bond.property}",
        ]
    )
    return 0
