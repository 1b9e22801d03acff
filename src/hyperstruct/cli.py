"""Command-line front end over canonical documents.

Exit codes: 0 = success or passing check, 1 = a check failed (the report
says why), 2 = input error. Reports are deterministic — identical inputs
produce identical bytes — and result documents are written atomically.
Each command imports the library modules it runs inside its cmd_* function,
so a process loads only what its own command needs. Reading and writing a
document loads a payload section's module (topology, states or catelem,
which hold that section's codec) only when the document carries the
section, so a command on a bare tower loads none of them.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

from .core import ElementId, Hyperstructure, RawId, validate
from .document import Document, _expect_id, _expect_list, parse, refuse_lone_surrogates, serialize
from .errors import (
    HyperstructError,
    NotATopology,
    NotComposable,
    NotGluable,
    ParseError,
    SchemaError,
    UnknownElement,
)

if TYPE_CHECKING:
    from . import catelem

#: Errors that mean "the check failed" rather than "the input is broken".
CHECK_FAILURES = (NotComposable, NotGluable, NotATopology)

#: Each install payload's fields, in the order its installer takes them; True
#: marks a list of id lists (components, tuples, edges, simplices).
INSTALL_FIELDS = {
    "relation": {"components": True, "tuples": True},
    "hypergraph": {"vertices": False, "edges": True},
    "simplicial": {"vertices": False, "simplices": True},
}


def _read_document(path: str) -> Document:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"byte {e.start}: not UTF-8 text ({e.reason})") from None
    return parse(text)


def _write_atomic(path: str, text: str) -> None:
    target = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".", prefix=target.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(text)
            os.replace(tmp, str(target))
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise SchemaError(f"cannot write {path}: {e.strerror}") from None


def _need(doc: Document, section: str):
    got = getattr(doc, section)
    if got is None:
        raise SchemaError(f"document lacks a {section} section")
    return got


def _resolve_id(h: Hyperstructure, level: int, raw: str) -> RawId:
    """A command-line id at level: an integer id written as its own canonical
    text ("1", "-2"; not "01", "+1" or " 2") wins if that element exists."""
    try:
        as_int = int(raw)
    except ValueError:
        return raw
    return as_int if str(as_int) == raw and h.has_element(ElementId(level, as_int)) else raw


def _element_ref(h: Hyperstructure, ref: str) -> ElementId:
    """Parse a level:id reference; integer ids win over equal-looking strings."""
    if ":" not in ref:
        raise SchemaError(f"element reference {ref!r} must look like level:id")
    lvl_s, raw = ref.split(":", 1)
    try:
        lvl = int(lvl_s)
    except ValueError:
        raise SchemaError(f"element reference {ref!r} must start with a level index") from None
    e = ElementId(lvl, _resolve_id(h, lvl, raw))
    if h.has_element(e):
        return e
    raise UnknownElement(f"no element {raw!r} at level {lvl}")


def _combiner(name: str | None):
    if name is None:
        return None
    from .assignments import BUILTIN_COMBINERS

    got = BUILTIN_COMBINERS.get(name)
    if got is None:
        raise SchemaError(f"unknown combiner {name!r}; choose from {sorted(BUILTIN_COMBINERS)}")
    return got


def _assignment_lines(title: str, lam) -> list[str]:
    lines = [title]
    for i, level in enumerate(lam.per_level):
        shown = ", ".join(f"{e.id}={level[e]!r}" for e in sorted(level, key=lambda e: e.key))
        lines.append(f"level {i}: {shown}")
    return lines


def _simplex_name(s) -> str:
    """A nerve simplex as text: a chain, a plain tuple, as (a,b,...); anything
    else by str, including an ElementId object, which is a tuple too."""
    return str(s) if type(s) is not tuple else "(" + ",".join(str(x) for x in s) + ")"


def _tower_summary(h: Hyperstructure) -> list[str]:
    lines = [f"level-0 elements: {len(h.levels[0])}"]
    for i in range(1, h.order + 1):
        lines.append(f"level-{i} bonds: {len(h.levels[i])}")
    return lines


def _print(lines) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _emit(out: str | None, doc: Document) -> None:
    """Write the result document, if asked for. Commands call this before they
    print, so a document that cannot be written leaves only the error on stdout."""
    if out:
        _write_atomic(out, serialize(doc))


# -- commands --------------------------------------------------------------------


def cmd_validate(args) -> int:
    doc = _read_document(args.input)
    rep = validate(_need(doc, "hyperstructure"))
    _print(rep.lines())
    return 0 if rep.passed else 1


def _load_install_payload(path: str, kind: str) -> list[list]:
    """The INSTALL_FIELDS[kind] fields of the payload, in order, each checked to list ids or id lists."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        data = json.loads(text)
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise SchemaError(f"install payload: byte {e.start}: not UTF-8 text ({e.reason})") from None
    except json.JSONDecodeError as e:
        raise SchemaError(f"install payload: line {e.lineno}: {e.msg}") from None
    except RecursionError:
        raise SchemaError("install payload: nested too deeply") from None
    refuse_lone_surrogates(text, data, SchemaError, "install payload: ")
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


def cmd_install(args) -> int:
    from . import installers

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


def cmd_compose(args) -> int:
    from . import composition

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
    doc.hyperstructure = h2
    _emit(args.out, doc)
    _print(
        [
            f"composed: {eid!r}",
            f"support: {bond.support!r}",
            f"property: {bond.property}",
        ]
    )
    return 0


def cmd_fuse(args) -> int:
    from . import composition

    doc = _read_document(args.input)
    h = _need(doc, "hyperstructure")
    a = _element_ref(h, args.a)
    b = _element_ref(h, args.b)
    h2, eid = composition.fuse(h, a, b, args.k, _combiner(args.combiner), args.id)
    rec = h2.fusion_log[-1]
    bond = h2.bond(eid)
    doc.hyperstructure = h2
    _emit(args.out, doc)
    _print(
        [
            f"fused: {eid!r}",
            f"signature: (k={rec.k}, m={rec.m}, n={rec.n})",
            f"support: {bond.support!r}",
            f"property: {bond.property}",
        ]
    )
    return 0


def cmd_topology_check(args) -> int:
    from . import topology

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


def cmd_globalize(args) -> int:
    from . import states

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
    sec.assignment = lam
    _emit(args.out, doc)
    _print(lines)
    return 0


def cmd_localize(args) -> int:
    from . import states

    doc = _read_document(args.input)
    h = _need(doc, "hyperstructure")
    sec = _need(doc, "states")
    if sec.top is None or sec.co_connectors is None:
        raise SchemaError("localize needs states.top and states.co_connectors")
    lam = states.localize(h, sec.top, sec.co_connectors)
    lines = _assignment_lines("localized", lam)
    sec.assignment = lam
    _emit(args.out, doc)
    _print(lines)
    return 0


def cmd_emergent(args) -> int:
    from .assignments import emergent

    doc = _read_document(args.input)
    h = _need(doc, "hyperstructure")
    comb = _combiner(args.combiner)
    s1 = h.support_at(args.level, _split_ids(h, args.level, args.s1))
    s2 = h.support_at(args.level, _split_ids(h, args.level, args.s2))
    got = emergent(h.omegas[args.level], s1, s2, comb)
    _print([f"emergent: {', '.join(sorted(got)) if got else '(none)'}"])
    return 0


def _split_ids(h: Hyperstructure, level: int, joined: str) -> list[RawId]:
    return [_resolve_id(h, level, part) for part in joined.split(",") if part != ""]


def cmd_nerve(args) -> int:
    from . import catelem

    doc = _read_document(args.input)
    cat = _need(doc, "category")
    data = catelem.nerve(cat, args.max_dim)
    lines = []
    for k in range(data.max_dim + 1):
        names = sorted(map(_simplex_name, data.simplices[k]))
        lines.append(f"dim {k}: " + (" ".join(names) if names else "(none)"))
    if args.out:
        doc.simplicial = _flatten_nerve(data)
        _emit(args.out, doc)
    _print(lines)
    return 0


def _flatten_nerve(data: catelem.SimplicialData) -> catelem.SimplicialData:
    """Rename chain simplices to strings so the nerve can live in a document.

    Two simplices with one name (morphisms 1 and "1", or a morphism named
    "a,b" beside the chain (a,b)) are refused: no document can hold both."""
    from . import catelem

    names = [[_simplex_name(s) for s in dim] for dim in data.simplices]
    seen: set = set()
    for name in (name for dim in names for name in dim):
        if name in seen:
            raise SchemaError(f"nerve: more than one simplex is named {name!r}")
        seen.add(name)
    simplices = tuple(tuple(sorted(dim)) for dim in names)
    faces = {_simplex_name(sid): tuple(None if f is None else _simplex_name(f) for f in fs) for sid, fs in data.faces.items()}
    return catelem.SimplicialData(max_dim=data.max_dim, simplices=simplices, faces=faces)


def cmd_betti(args) -> int:
    from . import catelem

    doc = _read_document(args.input)
    if doc.simplicial is not None:
        data = doc.simplicial
    else:
        cat = _need(doc, "category")
        data = catelem.nerve(cat, args.max_dim + 1)
    numbers = catelem.betti_gf2(data, args.max_dim)
    _print(["betti: " + " ".join(str(n) for n in numbers)])
    return 0


def cmd_brunnian(args) -> int:
    from . import installers

    doc = _read_document(args.input)
    h = _need(doc, "hyperstructure")
    lines = _tower_summary(h)
    brunnians = installers.brunnian_bond_ids(h)
    counts = Counter(e.level for e in brunnians)
    lines += [f"level-{i} brunnian bonds: {counts[i]}" for i in range(1, h.order + 1)]
    lines.append(f"order: {installers.brunnian_order(h, brunnians)}")
    _print(lines)
    return 0


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hyperstruct", description="Level towers of bonds: build, check, fold, measure.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", cmd_validate, help="check the tower laws of a document")
    sp.add_argument("input")

    sp = add("install", cmd_install, help="build a tower from a relation, hypergraph, complex or branching list")
    sp.add_argument("kind", choices=["relation", "hypergraph", "simplicial", "brunnian"])
    sp.add_argument("input", nargs="?", help="JSON payload (not used by brunnian)")
    sp.add_argument("--branching", help="comma-separated block sizes, e.g. 3,3")
    sp.add_argument("--graded", action="store_true", help="stack simplices as bonds of their faces")
    sp.add_argument("--out")

    sp = add("compose", cmd_compose, help="glue two bonds compatible at a probe level")
    sp.add_argument("input")
    sp.add_argument("--a", required=True, help="bond reference level:id")
    sp.add_argument("--b", required=True, help="bond reference level:id")
    sp.add_argument("--p", type=int, required=True, help="probe level")
    sp.add_argument("--mode", choices=["strict", "weak"], default="strict")
    sp.add_argument("--combiner", help="union | disjoint-union | tensor-pairs")
    sp.add_argument("--id", required=True, help="identifier for the composite")
    sp.add_argument("--out")

    sp = add("fuse", cmd_fuse, help="weak-mode gluing, logged with its level signature")
    sp.add_argument("input")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--k", type=int, required=True, help="gluing level")
    sp.add_argument("--combiner")
    sp.add_argument("--id", required=True)
    sp.add_argument("--out")

    sp = add("topology-check", cmd_topology_check, help="check the covering axioms of the document's topology")
    sp.add_argument("input")
    sp.add_argument("--level", type=int)
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--exhaustive", action="store_true")
    g.add_argument("--sampled", type=int, metavar="SEED")

    sp = add("globalize", cmd_globalize, help="fold base states up to the top of the tower")
    sp.add_argument("input")
    sp.add_argument("--out")

    sp = add("localize", cmd_localize, help="distribute top states down the tower")
    sp.add_argument("input")
    sp.add_argument("--out")

    sp = add("emergent", cmd_emergent, help="tokens at a union not produced by the combiner")
    sp.add_argument("input")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--s1", required=True, help="comma-separated element ids")
    sp.add_argument("--s2", required=True)
    sp.add_argument("--combiner", default="union")

    sp = add("nerve", cmd_nerve, help="composable chains of the document's category")
    sp.add_argument("input")
    sp.add_argument("--max-dim", type=int, default=2, dest="max_dim")
    sp.add_argument("--out")

    sp = add("betti", cmd_betti, help="GF(2) homology ranks of simplicial data or a category's nerve")
    sp.add_argument("input")
    sp.add_argument("--max-dim", type=int, default=2, dest="max_dim")

    sp = add("brunnian", cmd_brunnian, help="per-level counts and the Brunnian nesting order")
    sp.add_argument("input")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CHECK_FAILURES as e:
        lines = [f"error: {e.kind}", e.message]
        if isinstance(e, NotATopology) and e.report is not None:
            lines.extend(e.report.lines())
        _print(lines)
        return 1
    except HyperstructError as e:
        _print([f"error: {e.kind}", e.message])
        return 2


if __name__ == "__main__":
    sys.exit(main())
