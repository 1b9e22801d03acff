"""betti: GF(2) homology ranks of simplicial data or a category's nerve."""
from . import _need, _print, _read_document


def run(args) -> int:
    from .. import catelem

    doc = _read_document(args.input)
    if doc.simplicial is not None:
        data = doc.simplicial
    else:
        cat = _need(doc, "category")
        data = catelem.nerve(cat, args.max_dim + 1)
    numbers = catelem.betti_gf2(data, args.max_dim)
    _print(["betti: " + " ".join(str(n) for n in numbers)])
    return 0
