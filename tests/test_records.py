"""Value semantics of the package's frozen records.

Every record keeps the behaviour it had as a frozen dataclass: positional
and keyword construction with the same defaults, validation and
normalisation, equality only within one class, a hash of the field tuple,
the Name(field=value, ...) repr, and no assignment or deletion.
"""

import pytest

from chaingroup.braids import BraidWord
from chaingroup.finite import AbelianInvariants, LnParams, PermRep
from chaingroup.graphs import ActionGraph, GenusAuditReport, TypeA, TypeB
from chaingroup.homology import CurveClass, SkewLattice, TransvectionTriple
from chaingroup.homs import BraidHom
from chaingroup.riemann_hurwitz import OrderBounds, RamificationData, Section5Report

W4 = (BraidWord(4, (1,)), BraidWord(4, (2,)))

# (class, fields by keyword in declaration order, repr of the normalised record)
CASES = [
    (BraidWord, dict(n=3, letters=[1, -2]), "BraidWord(n=3, 1 -2)"),
    (BraidHom, dict(n=3, m=4, images=list(W4)),
     "BraidHom(n=3, m=4, images=(BraidWord(n=4, 1), BraidWord(n=4, 2)))"),
    (SkewLattice, dict(genus=2), "SkewLattice(genus=2)"),
    (CurveClass, dict(v=[1, 0, 0, 0]), "CurveClass(v=(1, 0, 0, 0))"),
    (TransvectionTriple,
     dict(chain=(CurveClass((1, 0)), CurveClass((0, 1))), epsilon=-1, direction=((1, 0), (0, 1))),
     "TransvectionTriple(chain=(CurveClass(v=(1, 0)), CurveClass(v=(0, 1))), epsilon=-1,"
     " direction=((1, 0), (0, 1)))"),
    (LnParams, dict(r=3, M=3, m=3, d=3, s=9), "LnParams(r=3, M=3, m=3, d=3, s=9)"),
    (AbelianInvariants, dict(factors=(2, 4), free_rank=1),
     "AbelianInvariants(factors=(2, 4), free_rank=1)"),
    (PermRep, dict(k=3, images=((1, 0, 2), (0, 2, 1))),
     "PermRep(k=3, images=((1, 0, 2), (0, 2, 1)))"),
    (ActionGraph, dict(num_vertices=1, edges=[(0, 0)], vperm=[0], eperm=[0], labels=((1, 2),)),
     "ActionGraph(num_vertices=1, edges=((0, 0),), vperm=(0,), eperm=(0,), labels=((1, 2),))"),
    (TypeA, dict(k=5, p=2, d=1), "TypeA(k=5, p=2, d=1)"),
    (TypeB, dict(k=3, l=4, d=1), "TypeB(k=3, l=4, d=1)"),
    (GenusAuditReport,
     dict(num_curves=12, independent_cycles=7, low_degree_vertices=0, within_bound=True,
          corank_ok=True, equality_case=True, equality_allowed=True, feasible=True),
     "GenusAuditReport(num_curves=12, independent_cycles=7, low_degree_vertices=0,"
     " within_bound=True, corank_ok=True, equality_case=True, equality_allowed=True,"
     " feasible=True)"),
    (RamificationData, dict(chi_total=-4, m=8, branch=[4, 2], chi_quotient=1),
     "RamificationData(chi_total=-4, m=8, branch=(2, 4), chi_quotient=1)"),
    (OrderBounds, dict(finite_subgroup_max=84, cyclic_max=10, genus1_max=None),
     "OrderBounds(finite_subgroup_max=84, cyclic_max=10, genus1_max=None)"),
    (Section5Report,
     dict(r=3, m=3, d=1, ineq6_holds=False, ineq7_holds=True, ineq8_holds=None, subgroup_card=3,
          kernel_lower_bound=9, chi_bound=24, kernel_exceeds_bound=False),
     "Section5Report(r=3, m=3, d=1, ineq6_holds=False, ineq7_holds=True, ineq8_holds=None,"
     " subgroup_card=3, kernel_lower_bound=9, chi_bound=24, kernel_exceeds_bound=False)"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(cls, fields, text):
    a, b = cls(*fields.values()), cls(**fields)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, name) for name in fields))
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_another_class_with_the_same_fields_is_not_equal(cls, fields, text):
    twin = type(cls.__name__, (cls,), {})
    a, b = cls(**fields), twin(**fields)
    assert all(getattr(a, name) == getattr(b, name) for name in fields)
    assert a != b and b != a
    assert a != tuple(getattr(a, name) for name in fields)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, text):
    rec = cls(**fields)
    first = next(iter(fields))
    before = getattr(rec, first)
    for name in (first, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, before)
    with pytest.raises(AttributeError):
        delattr(rec, first)
    assert getattr(rec, first) == before


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_construction_rejects_missing_and_unknown_fields(cls, fields, text):
    values = list(fields.values())
    with pytest.raises(TypeError):
        cls(*values, **{next(iter(fields)): values[0]})
    with pytest.raises(TypeError):
        cls(**fields, bogus=1)
    with pytest.raises(TypeError):
        cls(*values, values[0])
    if cls not in (BraidWord, ActionGraph):
        with pytest.raises(TypeError):
            cls(*values[:-1])


def test_defaults():
    assert BraidWord(3) == BraidWord(3, ()) == BraidWord(n=3)
    assert BraidWord(3).letters == ()
    g = ActionGraph(2, [(1, 0)], [1, 0], [0])
    assert g.labels is None
    assert g == ActionGraph(num_vertices=2, edges=((0, 1),), vperm=(1, 0), eperm=(0,), labels=None)
    assert repr(g) == (
        "ActionGraph(num_vertices=2, edges=((0, 1),), vperm=(1, 0), eperm=(0,), labels=None)"
    )


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BraidWord(1), "strand count must be at least 2, got 1"),
        (lambda: BraidWord(3, (3,)), "letter 3 out of range for 3 strands"),
        (lambda: BraidWord(3, (0,)), "letter 0 out of range for 3 strands"),
        (lambda: BraidHom(1, 4, ()), "strand count must be at least 2, got 1"),
        (lambda: BraidHom(3, 4, W4[:1]), "need 2 generator images, got 1"),
        (lambda: BraidHom(3, 5, W4), "image words must live on the target strand count"),
        (lambda: SkewLattice(0), "homology model needs genus at least 1"),
        (lambda: CurveClass((2, 0)), "nonzero class must be primitive: (2, 0)"),
        (lambda: LnParams(1, 0, 0, 0, 0), "need at least 2 generators"),
        (lambda: LnParams(3, 3, -1, 3, 9), "parameters must be nonnegative"),
        (lambda: AbelianInvariants((2, 3), 0), "factors must form a divisibility chain: (2, 3)"),
        (lambda: ActionGraph(2, [(0, 1)], [0, 0], [0]),
         "vperm is not a permutation of the vertices"),
        (lambda: ActionGraph(2, [(0, 1)], [1, 0], [1]), "eperm is not a permutation of the edges"),
        (lambda: ActionGraph(2, [(0, 2)], [0, 1], [0]), "edge endpoint out of range"),
        (lambda: ActionGraph(3, [(0, 1), (1, 2)], [1, 2, 0], [1, 0]),
         "the action is not a graph automorphism at edge 1"),
        (lambda: ActionGraph(2, [(0, 1)], [1, 0], [0], ((1, 0),)),
         "need one (genus, natural boundary) label per vertex"),
        (lambda: TypeA(0, 1, 1), "k and d must be positive"),
        (lambda: TypeA(4, 2, 1), "step 2 invalid for vertex count 4"),
        (lambda: TypeB(0, 1, 1), "orbit sizes and multiplicity must be positive"),
        (lambda: TypeB(2, 1, 1), "orbit sizes are normalized ascending (k <= l)"),
        (lambda: TypeB(2, 4, 1), "orbit sizes must be coprime"),
        (lambda: RamificationData(-4, 0, (), 1), "group order must be positive"),
        (lambda: RamificationData(-4, 8, (3,), 1),
         "each preimage count must be a proper divisor of 8, got 3"),
    ],
)
def test_validation_errors_are_unchanged(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message
