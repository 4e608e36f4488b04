"""The package's immutable value classes behave as frozen dataclasses do.

One instance of each class is built from its fields in order.  The reprs,
the hashability and the `__post_init__` coercions below were recorded
from the frozen dataclasses these classes used to be.
"""

import pickle
from fractions import Fraction

import pytest

from heightlab.cli import RunConfig
from heightlab.counting import CountReport, HeightWindow
from heightlab.exactnum import LogLin
from heightlab.freeness import FreenessReport, FreenessStats, PnFreeness, TangentLattice
from heightlab.geomcurve import (
    BranchData,
    CurveMap,
    LimitExperiment,
    LimitRow,
    SplittingType,
    splitting_type,
)
from heightlab.lattice import EucLattice, NewtonPolygon, TauInvariant, _Reduction
from heightlab.motivic import LPoly, LSeries
from heightlab.projpoint import Metric, ModPoint, PrimPoint, VarietyId
from heightlab.tamagawa import CountConstant
from heightlab.zoomlab import ScanResult, ZoomCloud, ZoomConfig

P2 = VarietyId("pn", 2)
HALF_LOG_2 = LogLin.from_log(2, Fraction(1, 2))
ZOOM = ZoomConfig(P2, (1, 2, 3), Fraction(1, 2), 1, 10)

# (class, {field: value} in field order, recorded repr, hashable); a
# LogLin field makes an instance unhashable, as LogLin itself is
CASES = [
    (RunConfig, dict(command="count", params=(("bound", "10"),),
                     format="json", out=None, cache_dir=None, seed=0),
     "RunConfig(command='count', params=(('bound', '10'),), format='json', "
     "out=None, cache_dir=None, seed=0)", True),
    (HeightWindow, dict(variety=P2, metric=Metric.EUCLID, bound=10, box=None,
                        direction=None, scale=None),
     "HeightWindow(variety=VarietyId(kind='pn', n=2), metric=<Metric.EUCLID: "
     "'euclid'>, bound=Fraction(10, 1), box=None, direction=None, scale=None)",
     True),
    (CountReport, dict(count=7, scale=Fraction(3), fitted=0.5, reference=0.25,
                       rel_error=1.0),
     "CountReport(count=7, scale=Fraction(3, 1), fitted=0.5, reference=0.25, "
     "rel_error=1.0)", True),
    (TangentLattice, dict(point=PrimPoint((1, 2)),
                          lattice=EucLattice(((2, 1), (1, 3))), h=HALF_LOG_2),
     "TangentLattice(point=[1:2], lattice=EucLattice(gram=((Fraction(2, 1), "
     "Fraction(1, 1)), (Fraction(1, 1), Fraction(3, 1)))), "
     "h=LogLin(1/2*log(2)))", False),
    (FreenessReport, dict(slopes=(HALF_LOG_2, LogLin.zero()), h=HALF_LOG_2,
                          mu_min=LogLin.zero(), l=0.0),
     "FreenessReport(slopes=(LogLin(1/2*log(2)), LogLin(0)), "
     "h=LogLin(1/2*log(2)), mu_min=LogLin(0), l=0.0)", False),
    (PnFreeness, dict(point=PrimPoint((1, 0, 1)), n=2, m=2, lam2=1,
                      lam2_adj=None, h=HALF_LOG_2, mu_closed=HALF_LOG_2,
                      mu_generic=HALF_LOG_2, l=1.0),
     "PnFreeness(point=[1:0:1], n=2, m=2, lam2=1, lam2_adj=None, "
     "h=LogLin(1/2*log(2)), mu_closed=LogLin(1/2*log(2)), "
     "mu_generic=LogLin(1/2*log(2)), l=1.0)", False),
    (FreenessStats, dict(total=5, threshold_counts={Fraction(1, 2): 3},
                         histogram=(1, 4), bins=2),
     "FreenessStats(total=5, threshold_counts={Fraction(1, 2): 3}, "
     "histogram=(1, 4), bins=2)", False),
    (CurveMap, dict(n=2, d=2, forms=((1, 0, 0), (0, 1, 0), (0, 0, 1))),
     "CurveMap(n=2, d=2, forms=((1, 0, 0), (0, 1, 0), (0, 0, 1)))", True),
    (SplittingType, dict(a=(3, 3)), "SplittingType(a=(3, 3))", True),
    (BranchData, dict(branches=((1, 1), (0, 2)), d=3),
     "BranchData(branches=((1, 1), (0, 2)), d=3)", True),
    (LimitRow, dict(param=(1, 2), h_param=0.5, h_image=1.5, l=0.25,
                    gap=0.125),
     "LimitRow(param=(1, 2), h_param=0.5, h_image=1.5, l=0.25, gap=0.125)",
     True),
    (LimitExperiment, dict(rows=(), geometric_freeness=Fraction(1, 2)),
     "LimitExperiment(rows=(), geometric_freeness=Fraction(1, 2))", True),
    (EucLattice, dict(gram=((2, 1), (1, 3))),
     "EucLattice(gram=((Fraction(2, 1), Fraction(1, 1)), (Fraction(1, 1), "
     "Fraction(3, 1))))", True),
    (_Reduction, dict(g=[[2]], u=[[1]], gg=[[2]], d=[1, 2], lam=[[0]]),
     "_Reduction(g=[[2]], u=[[1]], gg=[[2]], d=[1, 2], lam=[[0]])", False),
    (NewtonPolygon, dict(d=(HALF_LOG_2,), slopes=(HALF_LOG_2,),
                         vertices=(0, 1)),
     "NewtonPolygon(d=(LogLin(1/2*log(2)),), slopes=(LogLin(1/2*log(2)),), "
     "vertices=(0, 1))", False),
    (TauInvariant, dict(x=Fraction(1, 2), y2=Fraction(3, 4)),
     "TauInvariant(x=Fraction(1, 2), y2=Fraction(3, 4))", True),
    (LPoly, dict(terms=((0, 1), (2, 3))), "LPoly(3*L^2 + 1*L^0)", True),
    (LSeries, dict(cutoff=2, terms=((-3, 1), (0, 2))),
     "LSeries(2*L^0; cutoff=2)", True),
    (PrimPoint, dict(coords=(1, -2, 3)), "[1:-2:3]", True),
    (VarietyId, dict(kind="p1n", n=2), "VarietyId(kind='p1n', n=2)", True),
    (ModPoint, dict(modulus=5, coords=(1, 4)), "[1:4 mod 5]", True),
    (CountConstant, dict(alpha=Fraction(1, 3), beta=Fraction(1), tau_inf=4.0,
                         tau_finite=0.75, tail_rel_bound=1e-6, prime_limit=100,
                         log_power=0),
     "CountConstant(alpha=Fraction(1, 3), beta=Fraction(1, 1), tau_inf=4.0, "
     "tau_finite=0.75, tail_rel_bound=1e-06, prime_limit=100, log_power=0)",
     True),
    (ZoomConfig, dict(variety=P2, center=(1, 2, 3), alpha=Fraction(1, 2), R=1,
                      B=10, metric=Metric.SUP),
     "ZoomConfig(variety=VarietyId(kind='pn', n=2), center=(1, 2, 3), "
     "alpha=Fraction(1, 2), R=Fraction(1, 1), B=Fraction(10, 1), "
     "metric=<Metric.SUP: 'sup'>)", True),
    (ZoomCloud, dict(config=ZOOM,
                     factors=(((1, 2, 3), (Fraction(1, 3), Fraction(2, 3))),),
                     index=((0,),), heights=(3.0,)),
     "ZoomCloud(config=ZoomConfig(variety=VarietyId(kind='pn', n=2), "
     "center=(1, 2, 3), alpha=Fraction(1, 2), R=Fraction(1, 1), "
     "B=Fraction(10, 1), metric=<Metric.SUP: 'sup'>), factors=(((1, 2, 3), "
     "(Fraction(1, 3), Fraction(2, 3))),), index=((0,),), heights=(3.0,))",
     True),
    (ScanResult, dict(rows=((Fraction(1, 2), 10, 1),),
                      critical_alpha=Fraction(1, 2)),
     "ScanResult(rows=((Fraction(1, 2), 10, 1),), "
     "critical_alpha=Fraction(1, 2))", True),
]
IDS = [case[0].__name__ for case in CASES]


def build(cls, fields):
    return cls(*fields.values())


@pytest.mark.parametrize("cls, fields, text, hashable", CASES, ids=IDS)
class TestValueClass:
    def test_repr(self, cls, fields, text, hashable):
        assert repr(build(cls, fields)) == text

    def test_equal_twin(self, cls, fields, text, hashable):
        a, b = build(cls, fields), build(cls, fields)
        assert a is not b
        assert a == b and not a != b
        if hashable:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)

    def test_never_equal_to_another_class(self, cls, fields, text, hashable):
        other_cls, other_fields = next((c, f) for c, f, *_ in CASES
                                       if c is not cls)
        a, other = build(cls, fields), build(other_cls, other_fields)
        assert a != other and other != a
        assert not a == other
        assert a != tuple(fields.values())

    def test_fields_cannot_be_set_or_deleted(self, cls, fields, text,
                                             hashable):
        a = build(cls, fields)
        name, value = next(iter(fields.items()))
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            setattr(a, "not_a_field", 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert repr(a) == text

    def test_positional_equals_keyword(self, cls, fields, text, hashable):
        assert cls(**fields) == build(cls, fields)
        first, *rest = fields
        assert cls(fields[first], **{k: fields[k] for k in rest}) == \
            build(cls, fields)

    def test_pickle_round_trip(self, cls, fields, text, hashable):
        a = build(cls, fields)
        b = pickle.loads(pickle.dumps(a))
        assert type(b) is cls and b == a and repr(b) == text

    def test_instance_dict_holds_the_fields(self, cls, fields, text,
                                            hashable):
        a = build(cls, fields)
        assert set(fields) <= set(vars(a))


@pytest.mark.parametrize("cls, given, full", [
    (LPoly, {}, dict(terms=())),
    (LSeries, dict(cutoff=1), dict(cutoff=1, terms=())),
    (HeightWindow, dict(variety=P2, bound=10),
     dict(variety=P2, metric=Metric.SUP, bound=10, box=None, direction=None,
          scale=None)),
    (ZoomConfig, dict(variety=P2, center=(1, 2, 3), alpha=0, R=1, B=2),
     dict(variety=P2, center=(1, 2, 3), alpha=0, R=1, B=2,
          metric=Metric.SUP)),
], ids=["LPoly", "LSeries", "HeightWindow", "ZoomConfig"])
def test_defaults_fill_omitted_fields(cls, given, full):
    assert cls(**given) == cls(**full) == cls(*full.values())
    if len(given) == 1:
        assert cls(*given.values()) == cls(**full)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),                                   # a field without default
    ((2, ()), {"cutoff": 2}),                   # one field given twice
    ((2,), {"level": 1}),                       # no such field
    ((2, (), 1), {}),                           # too many positional
])
def test_bad_calls_are_type_errors(args, kwargs):
    with pytest.raises(TypeError):
        LSeries(*args, **kwargs)


def test_equal_fields_of_two_classes_are_unequal():
    assert SplittingType((2, 1)) != PrimPoint((2, 1))
    assert VarietyId("pn", 1) != ModPoint("pn", 1)


def test_post_init_coerces_fields():
    cfg = ZoomConfig(P2, (2, 4, 6), 1, 2, 10)
    for name, value in [("alpha", 1), ("R", 2), ("B", 10)]:
        assert type(getattr(cfg, name)) is Fraction
        assert getattr(cfg, name) == value
    assert cfg.center == (1, 2, 3)
    st = SplittingType([3.0, Fraction(2), 1])
    assert st.a == (3, 2, 1) and all(type(x) is int for x in st.a)
    with pytest.raises(ValueError):
        SplittingType((1, 2))
    assert HeightWindow(P2, bound=7).bound == Fraction(7)


def test_splitting_is_no_field_and_survives_pickle():
    c = CurveMap(2, 2, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert splitting_type(c) == SplittingType((3, 3))
    copy = pickle.loads(pickle.dumps(c))
    assert splitting_type(copy) == splitting_type(c)
    assert "_splitting" not in repr(c)


def test_cached_properties_write_the_instance_dict():
    poly = NewtonPolygon((HALF_LOG_2,), (HALF_LOG_2,), (0, 1))
    assert poly.m == (LogLin.zero(), HALF_LOG_2)
    assert vars(poly)["m"] is poly.m
    assert poly == NewtonPolygon((HALF_LOG_2,), (HALF_LOG_2,), (0, 1))
