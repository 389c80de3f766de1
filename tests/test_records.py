"""The contract every record of the package keeps: equality and hashing by
fields within one class, the ``Name(field=value, ...)`` repr, immutability,
pickling and copying, and construction by keyword."""

import copy
import pickle
from fractions import Fraction

import pytest

from gjmsdet import (
    ClosedForm,
    FactorIndex,
    IntegralResult,
    LogDetResult,
    OddChebyshev,
    ProductRule,
    QuadratureSpec,
    ScanRow,
    SpherePoint,
    Tolerance,
)

# each record's class, fields by keyword and repr; the reprs are those the
# package printed when its records were frozen standard-library records
RECORDS = [
    (SpherePoint, dict(d=5, k=2), "SpherePoint(d=5, k=2)"),
    (
        LogDetResult,
        dict(value=0.5, err_estimate=1e-12, method="direct", point=SpherePoint(5, 2)),
        "LogDetResult(value=0.5, err_estimate=1e-12, method='direct', "
        "point=SpherePoint(d=5, k=2))",
    ),
    (
        ClosedForm,
        dict(d=5, overall=Fraction(1, 32), log2_coeff=Fraction(7),
             zeta_terms=((3, Fraction(-13)), (5, Fraction(15, 2))), reference=0.104642),
        "ClosedForm(d=5, overall=Fraction(1, 32), log2_coeff=Fraction(7, 1), "
        "zeta_terms=((3, Fraction(-13, 1)), (5, Fraction(15, 2))), reference=0.104642)",
    ),
    (OddChebyshev, dict(k=3, u=(6, -32, 32)), "OddChebyshev(k=3, u=(6, -32, 32))"),
    (ProductRule, dict(k=3, v=(3, 4, 1)), "ProductRule(k=3, v=(3, 4, 1))"),
    (
        Tolerance,
        dict(rel_tol=1e-11, abs_tol=1e-15, max_panels=4096),
        "Tolerance(rel_tol=1e-11, abs_tol=1e-15, max_panels=4096)",
    ),
    (
        QuadratureSpec,
        dict(decay_rate=2.0, rel_tol=1e-11, abs_tol=1e-15, max_panels=4096,
             env_const=1.0, env_start=0.0),
        "QuadratureSpec(decay_rate=2.0, rel_tol=1e-11, abs_tol=1e-15, max_panels=4096, "
        "env_const=1.0, env_start=0.0)",
    ),
    (
        IntegralResult,
        dict(value=1.5, err_estimate=1e-13, panels_used=7, truncation_point=30.0),
        "IntegralResult(value=1.5, err_estimate=1e-13, panels_used=7, truncation_point=30.0)",
    ),
    (FactorIndex, dict(j=3), "FactorIndex(j=3)"),
    (
        ScanRow,
        dict(d=5, k=2, method="sum", value=0.25, err_estimate=1e-12),
        "ScanRow(d=5, k=2, method='sum', value=0.25, err_estimate=1e-12)",
    ),
]


@pytest.mark.parametrize("index", range(len(RECORDS)), ids=[c.__name__ for c, _, _ in RECORDS])
def test_record_contract(index):
    cls, fields, expected_repr = RECORDS[index]
    record = cls(**fields)
    assert tuple(getattr(record, name) for name in fields) == tuple(fields.values())
    assert repr(record) == expected_repr

    twin = cls(*fields.values())
    assert record == twin and not record != twin and hash(record) == hash(twin)
    other_cls, other_fields, _ = RECORDS[index - 1]
    assert record != other_cls(**other_fields)
    assert record != tuple(fields.values())
    subclass = type(f"Sub{cls.__name__}", (cls,), {"__slots__": ()})
    assert record != subclass(**fields)  # equal fields, another class

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1

    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls and clone == record and repr(clone) == expected_repr

