"""The value classes: immutable, with the reprs, equality, hashing,
ordering and defaults of frozen dataclasses."""
import pickle

import pytest

from kzresidue import (
    CheckReport,
    DiagramStats,
    DualMatrix,
    FundamentalMatrix,
    Numbering,
    Partition,
    PolyFraction,
    PolyMatrix,
    ReflectionSolution,
    SolutionTable,
    SparsePolynomial,
    Tabloid,
    diagram_stats,
)

ONE = SparsePolynomial.constant(2, 1)
Z1 = SparsePolynomial.variable(2, 1)
MATRIX = PolyMatrix([[ONE]])

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
    "PolyFraction": (lambda: PolyFraction(Z1, ONE), "PolyFraction(num=z1, den=1)"),
    "SolutionTable": (
        lambda: SolutionTable(Partition((1,)), 1, Tabloid(((1,),)), {}),
        "SolutionTable(lam=Partition(parts=(1,)), m=1, cycle=Tabloid(rows=((1,),)), "
        "components={}, twisted=False)",
    ),
    "FundamentalMatrix": (
        lambda: FundamentalMatrix(Partition((1,)), 1, (Numbering(((1,),)),), (), MATRIX),
        "FundamentalMatrix(lam=Partition(parts=(1,)), m=1, "
        f"cycles=(Numbering(rows=((1,),)),), tables=(), matrix={MATRIX!r})",
    ),
    "DualMatrix": (
        lambda: DualMatrix(Partition((1,)), -1, ONE, MATRIX),
        f"DualMatrix(lam=Partition(parts=(1,)), m=-1, det=1, entries={MATRIX!r})",
    ),
    "ReflectionSolution": (
        lambda: ReflectionSolution(2, 1, 1, (Z1,)),
        "ReflectionSolution(n=2, m=1, index=1, components=(z1,))",
    ),
    "CheckReport": (
        lambda: CheckReport("kz", Partition((1,)), 1, True),
        "CheckReport(check='kz', lam=Partition(parts=(1,)), m=1, passed=True, "
        "witness=None, info={})",
    ),
}
# the cases that hold no SparsePolynomial, which does not pickle
PICKLABLE = {"Partition", "Numbering", "Tabloid", "DiagramStats", "SolutionTable",
             "CheckReport"}


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
    if name in PICKLABLE:
        assert pickle.loads(pickle.dumps(value)) == value


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


def test_value_class_defaults():
    a = CheckReport("kz", None, None, False)
    b = CheckReport("kz", None, None, False)
    assert a.witness is None and a.info == {} and a.info is not b.info
    table = SolutionTable(Partition((1,)), 1, Tabloid(((1,),)), {})
    assert table.twisted is False
    fm = FundamentalMatrix(Partition((1,)), 1, (), (), MATRIX)
    other = FundamentalMatrix(Partition((1,)), 1, (), (), MATRIX)
    assert fm._cache == {} and fm._cache is not other._cache
    fm._cache["det"] = ONE  # the memo is out of equality and repr
    assert fm == other and repr(fm) == repr(other)


def test_poly_fraction_refuses_a_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        PolyFraction(Z1, SparsePolynomial.zero(2))
