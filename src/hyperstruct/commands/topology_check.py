"""topology-check: check the covering axioms of the document's topology."""
from . import _need, _print, _read_document


def run(args) -> int:
    from .. import topology

    doc = _read_document(args.input)
    h = _need(doc, "hyperstructure")
    j = _need(doc, "topology")
    exhaustive = True if args.exhaustive else (False if args.sampled is not None else None)
    seed = args.sampled if args.sampled is not None else 0
    levels = [args.level] if args.level is not None else list(range(h.order + 1))
    lines: list[str] = []
    ok = True
    for i in levels:
        rep = topology.is_grothendieck_topology(h, j, i, exhaustive=exhaustive, seed=seed)
        ok = ok and rep.passed
        lines.extend(rep.lines())
    _print(lines)
    return 0 if ok else 1
