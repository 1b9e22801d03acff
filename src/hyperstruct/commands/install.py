"""install: build a tower from a relation, hypergraph, complex or branching list."""
from . import _emit, _print, _read_text, _tower_summary
from ..document import Document, _expect_id, _expect_list, load_json
from ..errors import SchemaError

#: Each install payload's fields, in the order its installer takes them; True
#: marks a list of id lists (components, tuples, edges, simplices).
INSTALL_FIELDS = {
    "relation": {"components": True, "tuples": True},
    "hypergraph": {"vertices": False, "edges": True},
    "simplicial": {"vertices": False, "simplices": True},
}


def _load_install_payload(path: str, kind: str) -> list[list]:
    """The INSTALL_FIELDS[kind] fields of the payload, in order, each checked to list ids or id lists."""
    data = load_json(_read_text(path, SchemaError, "install payload: "), SchemaError, "install payload: ")
    if not isinstance(data, dict):
        raise SchemaError("install payload must be a JSON object")
    fields = INSTALL_FIELDS[kind]
    for key in data:
        if key not in fields:
            raise SchemaError(f"install {kind}: unknown field {key!r}")
    out = []
    for key, nested in fields.items():
        value = _expect_list(data.get(key, []), f"install {kind}: {key}")
        for k, entry in enumerate(value):
            where = f"install {kind}: {key}[{k}]"
            for x in _expect_list(entry, where) if nested else (entry,):
                _expect_id(x, where)
        out.append(value)
    return out


def run(args) -> int:
    from .. import installers

    if args.kind == "brunnian":
        if not args.branching:
            raise SchemaError("install brunnian needs --branching, e.g. --branching 3,3")
        try:
            branching = [int(x) for x in args.branching.split(",") if x != ""]
        except ValueError:
            raise SchemaError(f"bad --branching value {args.branching!r}") from None
        h = installers.make_brunnian_tower(branching)
    else:
        if not args.input:
            raise SchemaError(f"install {args.kind} needs an input payload file")
        first, second = _load_install_payload(args.input, args.kind)
        if args.kind == "relation":
            h = installers.from_relation(first, second)
        elif args.kind == "hypergraph":
            h = installers.from_hypergraph(first, second)
        else:
            h = installers.from_simplicial_complex(first, second, graded=args.graded)
    _emit(args.out, Document(hyperstructure=h))
    _print([f"installed: {args.kind}"] + _tower_summary(h))
    return 0
