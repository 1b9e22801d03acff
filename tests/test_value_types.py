"""The contract every value type keeps: field-wise ==, the hash of the
tuple of its fields, read-only fields, a stable repr, _replace and pickling.

The towers' set iteration orders, and so every report and document byte,
rest on these hashes."""
import pickle

import pytest

from hyperstruct.assignments import Combiner, InducedMaps
from hyperstruct.catelem import FiniteCategory, Morphism, Presheaf, SimplicialData, poset_category
from hyperstruct.core import Bond, BondSpec, ElementId, FusionRecord, Hyperstructure, Support, add_bonds, new_hyperstructure
from hyperstruct.document import Document, StatesSection
from hyperstruct.installers import BrunnianComplex
from hyperstruct.report import Finding
from hyperstruct.states import CoConnector, Connector, LambdaAssignment, SpaceOp, StateTower
from hyperstruct.topology import CoveringChain, Site, Sieve

A, B, X = ElementId(0, "a"), ElementId(0, "b"), ElementId(1, "x")
AB = Support(0, frozenset({A, B}))
TOWER = new_hyperstructure(["a", "b"])
XOR = SpaceOp(unit=0, table={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0})
ARROW = FiniteCategory(
    objects=frozenset({0, 1}),
    morphisms=(Morphism((0, 0), 0, 0), Morphism((0, 1), 0, 1), Morphism((1, 1), 1, 1)),
    identities={0: (0, 0), 1: (1, 1)},
    composition={((0, 1), (0, 0)): (0, 1), ((1, 1), (0, 1)): (0, 1), ((0, 0), (0, 0)): (0, 0), ((1, 1), (1, 1)): (1, 1)},
)

# (type, every field in declared order, whether the value hashes); every value's fields are read-only
CASES = [
    (ElementId, dict(level=1, id="a"), True),
    (Support, dict(level=0, members=frozenset({A, B})), True),
    (Bond, dict(id=X, support=AB, property="edge", identity=False), True),
    (FusionRecord, dict(k=0, m=1, n=1, a=X, b=ElementId(1, "y"), result=ElementId(1, "z")), True),
    (Hyperstructure, dict(order=0, levels=TOWER.levels, omegas=TOWER.omegas, bonds=(), fusion_log=()), False),
    (Finding, dict(code="shape", message="chain too short"), True),
    (SpaceOp, dict(unit=XOR.unit, table=XOR.table), False),
    (StateTower, dict(spaces=(frozenset({0, 1}),), ops=(None,)), True),
    (Connector, dict(kind="product", table=None), True),
    (Connector, dict(kind="table", table={(0, 1): 1}), False),
    (LambdaAssignment, dict(per_level=({A: 0, B: 1},)), False),
    (CoConnector, dict(kind="table", table={1: 0}), False),
    (InducedMaps, dict(variance="covariant", restrictions={}), False),
    (Combiner, dict(name="union", kind="union", table=None), True),
    (BrunnianComplex, dict(vertices=frozenset({"a"}), family=frozenset({frozenset(), frozenset({"a"})})), True),
    (Sieve, dict(root=X, members=frozenset({X})), True),
    (CoveringChain, dict(chain=(A, X), families=(frozenset({A}), frozenset({X}))), True),
    (Site, dict(h=TOWER, topology={A: frozenset()}), False),
    (Morphism, dict(id="f", src="x", tgt="y"), True),
    (FiniteCategory, dict(objects=ARROW.objects, morphisms=ARROW.morphisms, identities=ARROW.identities, composition=ARROW.composition), False),
    (Presheaf, dict(on_objects={0: frozenset({"*"})}, on_morphisms={(0, 0): {"*": "*"}}), False),
    (SimplicialData, dict(max_dim=0, simplices=(("v",),), faces={"v": ()}), False),
    (StatesSection, dict(tower=StateTower(spaces=(frozenset({0}),), ops=(None,)), base={A: 0}, top=None, connectors=None, co_connectors=None, assignment=None), False),
    (Document, dict(hyperstructure=TOWER, topology=None, states=None, category=None, presheaf=None, simplicial=None), False),
]
CUSTOM_REPR = {ElementId: "1:a", Support: "{a,b}", Sieve: "Sieve(1:x: {x})"}
MEMBERS = {Support: [A, B]}  # what iterating the value lists, in sorted order


@pytest.mark.parametrize(
    "cls, fields, hashable",
    CASES,
    ids=[f"{cls.__name__}-{k}" for k, (cls, *_rest) in enumerate(CASES)],
)
def test_value_type_contract(cls, fields, hashable):
    assert cls._fields == tuple(fields)
    values = tuple(fields.values())
    v, w = cls(**fields), cls(*values)
    assert v == w and not v != w
    if not isinstance(v, tuple):  # the others equal the plain tuple of their fields; SimplicialData equals only its own type
        assert v != values and not v == values
    assert tuple(getattr(v, f) for f in cls._fields) == values

    if hashable:
        assert hash(v) == hash(w) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(v)

    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(v, name, values[0])
    with pytest.raises(AttributeError):
        delattr(v, name)
    with pytest.raises(AttributeError):
        setattr(v, "no_such_field", 1)
    assert v == w

    if cls in MEMBERS:
        assert list(v) == MEMBERS[cls] and len(v) == len(MEMBERS[cls])
        assert all(m in v for m in MEMBERS[cls]) and X not in v

    expected = CUSTOM_REPR.get(cls, f"{cls.__name__}(" + ", ".join(f"{f}={x!r}" for f, x in fields.items()) + ")")
    assert repr(v) == expected

    changed = v._replace(**{name: None})
    assert getattr(changed, name) is None and changed != v
    assert changed._replace(**{name: values[0]}) == v
    with pytest.raises(ValueError):
        v._replace(no_such_field=1)

    assert pickle.loads(pickle.dumps(v)) == v


def test_cached_indexes_and_marks_are_not_fields():
    """A tower's cached indexes and a category's lawful mark live in the
    instance dict: a pickled or replaced copy starts without them, and none
    of them can be assigned."""
    h = add_bonds(new_hyperstructure(["a", "b"]), [BondSpec(0, AB, "edge", "x")])
    assert h.bond_index == {X: Bond(X, AB, "edge")} and h.element_index[1] == {"x": X}
    cat = poset_category([0, 1], lambda x, y: x <= y)
    assert {"bond_index", "element_index"} <= h.__dict__.keys() and "_lawful" in cat.__dict__
    for v in (h, cat):
        for copy in (pickle.loads(pickle.dumps(v)), v._replace()):
            assert copy == v and copy.__dict__ == {}
    index = h.bond_index
    with pytest.raises(AttributeError):
        setattr(h, "bond_index", {})
    assert h.bond_index is index
