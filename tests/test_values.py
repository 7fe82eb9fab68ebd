"""The value classes: immutable, with the reprs, equality, hashing,
ordering and defaults of frozen dataclasses, and every one pickles and
deep-copies."""
import ast
import copy
import pickle
from pathlib import Path

import pytest

from kzresidue import (
    CheckReport,
    ContentPolynomial,
    DiagramStats,
    DualMatrix,
    FactoredSum,
    FundamentalMatrix,
    Numbering,
    Partition,
    PolyMatrix,
    ReflectionSolution,
    SolutionTable,
    SparsePolynomial,
    Tabloid,
    alternating_twist,
    diagram_stats,
    dual_matrix,
    fundamental_solution,
    reflection_dual_solutions,
    reflection_solutions,
    z_atom,
)

ONE = SparsePolynomial.constant(2, 1)
Z1 = SparsePolynomial.variable(2, 1)
MATRIX = PolyMatrix([[ONE]])
ONE_1 = SparsePolynomial.constant(1, 1)  # a dual of one point lives in one variable
FACTORED = FactoredSum.term(3, [(z_atom(1), z_atom(2), -2)])
POINT = Tabloid(((1,),))  # the one tabloid of (1,)

# (constructor of a fresh instance, its repr as the dataclass wrote it)
CASES = {
    "Partition": (lambda: Partition((2, 1)), "Partition(parts=(2, 1))"),
    "Numbering": (lambda: Numbering(((1, 2), (3,))), "Numbering(rows=((1, 2), (3,)))"),
    "Tabloid": (lambda: Tabloid(((3, 1), (2,))), "Tabloid(rows=((1, 3), (2,)))"),
    "DiagramStats": (
        lambda: diagram_stats(Partition((2, 1)), 2),
        "DiagramStats(f2=0, specht_dim=2, d_plus=1, transpose=Partition(parts=(2, 1)), "
        "m_profile=(3, 1), config_dim=1, m=2, solution_degree=6)",
    ),
    "SolutionTable": (
        lambda: SolutionTable(Partition((1,)), 1, POINT, {POINT: SparsePolynomial.constant(1, 1)}),
        "SolutionTable(lam=Partition(parts=(1,)), m=1, cycle=Tabloid(rows=((1,),)), "
        "components={Tabloid(rows=((1,),)): 1}, twisted=False, den=None)",
    ),
    "FundamentalMatrix": (
        lambda: FundamentalMatrix(Partition((1,)), 1, (Numbering(((1,),)),), (), MATRIX),
        "FundamentalMatrix(lam=Partition(parts=(1,)), m=1, "
        "cycles=(Numbering(rows=((1,),)),), tables=(), "
        "matrix=PolyMatrix(entries=((1,),)))",
    ),
    "DualMatrix": (
        lambda: DualMatrix(Partition((1,)), -1, ONE_1, PolyMatrix([[ONE_1]])),
        "DualMatrix(lam=Partition(parts=(1,)), m=-1, det=1, "
        "entries=PolyMatrix(entries=((1,),)))",
    ),
    "ReflectionSolution": (
        lambda: ReflectionSolution(2, 1, 1, (Z1,)),
        "ReflectionSolution(n=2, m=1, index=1, components=(z1,), den=None)",
    ),
    "CheckReport": (
        lambda: CheckReport("kz", Partition((1,)), 1),
        "CheckReport(check='kz', lam=Partition(parts=(1,)), m=1, witness=None, info={})",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_value_class_contract(name):
    make, text = CASES[name]
    value = make()
    assert type(value).__name__ == name
    assert repr(value) == text
    field = text[len(name) + 1:].partition("=")[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == text  # untouched
    # a separately built equal value is equal, and not a different class
    assert value == make()
    assert value != object()
    if name in ("SolutionTable", "FundamentalMatrix", "DualMatrix", "CheckReport"):
        # the hash of a dict or a PolyMatrix field raises, and so does theirs
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(make())
    _assert_round_trips(value)


def _assert_round_trips(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin is not value
        assert twin == value and repr(twin) == repr(value)


def test_content_values_are_immutable_and_round_trip_without_their_memo():
    value = ContentPolynomial({(1, 2): 2}, SparsePolynomial.constant(2, 3))
    for field in ("content", "core"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == "3*z2^2 - 6*z1*z2 + 3*z1^2"
    assert value == value.expand() and hash(value) == hash(value.expand())
    moved = value.permute_variables((2, 1))  # (z2 - z1)^2 = (z1 - z2)^2
    assert moved == value and moved.expand() == value.expand()
    for v in (value, moved):
        _assert_round_trips(v)


@pytest.mark.parametrize("cls, field", [(Partition, "parts"), (Numbering, "rows"),
                                        (Tabloid, "rows")])
def test_young_data_compare_and_hash_as_their_field_tuple(cls, field):
    small, large = (
        (cls((2, 1)), cls((3,))) if cls is Partition
        else (cls(((1, 2), (3,))), cls(((1, 3), (2,))))
    )
    for x in (small, large):
        assert hash(x) == hash((getattr(x, field),))
    assert small == cls(getattr(small, field)) and small != large
    assert small < large and small <= large and large > small and large >= small
    assert not small < cls(getattr(small, field)) and small <= cls(getattr(small, field))
    assert sorted([large, small]) == [small, large]
    assert small != getattr(small, field)  # no equality with the bare tuple
    with pytest.raises(TypeError):
        small < getattr(small, field)


def test_a_report_fails_exactly_when_it_has_a_witness():
    bad = CheckReport("kz", Partition((1,)), 1, {"reason": "r"})
    good = CheckReport("kz", Partition((1,)), 1, None, {"cycles": 1})
    for rep in (bad, good):
        for twin in (rep, pickle.loads(pickle.dumps(rep)), copy.deepcopy(rep)):
            assert twin.passed is (rep is good)
            assert twin.verdict == ("pass" if rep is good else "fail")


def test_value_class_defaults():
    a = CheckReport("kz", None, None)
    b = CheckReport("kz", None, None)
    assert a.witness is None and a.info == {} and a.info is not b.info
    table = SolutionTable(Partition((1,)), 1, POINT, {POINT: SparsePolynomial.constant(1, 1)})
    assert table.twisted is False and table.den is None
    assert ReflectionSolution(2, 1, 1, (Z1,)).den is None
    fm = FundamentalMatrix(Partition((1,)), 1, (), (), MATRIX)
    other = FundamentalMatrix(Partition((1,)), 1, (), (), MATRIX)
    assert fm._cache == {} and fm._cache is not other._cache
    fm._cache["kz"] = ()  # the memo is out of equality and repr
    assert fm == other and repr(fm) == repr(other)
    assert copy.deepcopy(fm)._cache == {}  # a copy starts with an empty memo
    other = SolutionTable(Partition((1,)), 1, POINT, {POINT: SparsePolynomial.constant(1, 1)})
    assert table._cache == {} and table._cache is not other._cache
    table._cache[(1, 1)] = (None, {})  # the KZ record is out of equality and repr
    assert table == other and repr(table) == repr(other)
    for twin in (copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert twin == table and twin._cache == {}


@pytest.mark.parametrize("value, field",
                         [(Z1, "terms"), (MATRIX, "entries"), (FACTORED, "terms")],
                         ids=["SparsePolynomial", "PolyMatrix", "FactoredSum"])
def test_polynomial_and_matrix_refuse_assignment_and_deletion(value, field):
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == before
    _assert_round_trips(value)


def test_matrix_repr_equality_and_hash():
    assert repr(MATRIX) == "PolyMatrix(entries=((1,),))"
    assert MATRIX == PolyMatrix([[ONE]]) and MATRIX != PolyMatrix([[Z1]])
    assert MATRIX != ((ONE,),)
    with pytest.raises(TypeError):
        hash(MATRIX)


def test_solved_values_round_trip():
    fm = fundamental_solution(Partition((2, 1)), 1)
    assert "0x" not in repr(fm)  # every field writes its value, not its address
    for value in (
        fm,
        dual_matrix(fm),
        alternating_twist(fm.tables[0]),
        reflection_solutions(3, 1),
        reflection_dual_solutions(3, 1),
    ):
        _assert_round_trips(value)


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kzresidue"


def _class_members(tree):
    """(class, name) for every method and plain assignment in a class body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield node.name, item.name
                for target in getattr(item, "targets", ()):
                    if isinstance(target, ast.Name):
                        yield node.name, target.id


def test_only_frozen_defines_setattr_or_delattr():
    """Immutability has one implementation, which every value class inherits."""
    owners = [
        f"{path.name}:{cls}.{name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for cls, name in _class_members(ast.parse(path.read_text(), str(path)))
        if name in ("__setattr__", "__delattr__")
    ]
    assert owners == ["_frozen.py:Frozen.__setattr__", "_frozen.py:Frozen.__delattr__"]


def test_only_the_value_protocol_defines_equality_hash_or_order():
    """`Frozen` compares, hashes and orders by the field tuple for every
    value class; only the classes whose equality or hash differs on purpose
    define their own."""
    owners = [
        f"{path.name}:{cls}.{name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for cls, name in _class_members(ast.parse(path.read_text(), str(path)))
        if name in ("__eq__", "__hash__", "__lt__")
    ]
    assert sorted(owners) == [
        "_frozen.py:Frozen.__eq__",
        "_frozen.py:Frozen.__hash__",
        "exactalg.py:ContentPolynomial.__eq__",
        "exactalg.py:ContentPolynomial.__hash__",
        "exactalg.py:FactoredSum.__hash__",
        "exactalg.py:PolyMatrix.__hash__",
        "exactalg.py:SparsePolynomial.__hash__",
        "shapes.py:_Young.__lt__",
    ]
