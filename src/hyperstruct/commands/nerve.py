"""nerve: composable chains of the document's category."""
from __future__ import annotations

from . import _emit, _need, _print, _read_document
from ..errors import SchemaError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .. import catelem


def run(args) -> int:
    from .. import catelem

    doc = _read_document(args.input)
    cat = _need(doc, "category")
    data = catelem.nerve(cat, args.max_dim)
    lines = []
    for k in range(data.max_dim + 1):
        names = sorted(map(_simplex_name, data.simplices[k]))
        lines.append(f"dim {k}: " + (" ".join(names) if names else "(none)"))
    if args.out:
        _emit(args.out, doc._replace(simplicial=_flatten_nerve(data)))
    _print(lines)
    return 0


def _simplex_name(s) -> str:
    """A nerve simplex as text: a chain, a plain tuple, as (a,b,...); anything
    else by str, including an ElementId object, which is a tuple too."""
    return str(s) if type(s) is not tuple else "(" + ",".join(str(x) for x in s) + ")"


def _flatten_nerve(data: catelem.SimplicialData) -> catelem.SimplicialData:
    """Rename chain simplices to strings so the nerve can live in a document.

    Two simplices with one name (morphisms 1 and "1", or a morphism named
    "a,b" beside the chain (a,b)) are refused: no document can hold both."""
    from .. import catelem

    names = [[_simplex_name(s) for s in dim] for dim in data.simplices]
    seen: set = set()
    for name in (name for dim in names for name in dim):
        if name in seen:
            raise SchemaError(f"nerve: more than one simplex is named {name!r}")
        seen.add(name)
    simplices = tuple(tuple(sorted(dim)) for dim in names)
    faces = {_simplex_name(sid): tuple(None if f is None else _simplex_name(f) for f in fs) for sid, fs in data.faces.items()}
    return catelem.SimplicialData(max_dim=data.max_dim, simplices=simplices, faces=faces)
