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

# each record's class, fields by keyword, repr, and one field changed to
# another valid value; the reprs are those the package printed when its
# records were frozen standard-library records
RECORDS = [
    (SpherePoint, dict(d=5, k=2), "SpherePoint(d=5, k=2)", dict(k=1)),
    (
        LogDetResult,
        dict(value=0.5, err_estimate=1e-12, method="direct", point=SpherePoint(5, 2)),
        "LogDetResult(value=0.5, err_estimate=1e-12, method='direct', "
        "point=SpherePoint(d=5, k=2))",
        dict(value=0.25),
    ),
    (
        ClosedForm,
        dict(d=5, overall=Fraction(1, 32), log2_coeff=Fraction(7),
             zeta_terms=((3, Fraction(-13)), (5, Fraction(15, 2))), reference=0.104642),
        "ClosedForm(d=5, overall=Fraction(1, 32), log2_coeff=Fraction(7, 1), "
        "zeta_terms=((3, Fraction(-13, 1)), (5, Fraction(15, 2))), reference=0.104642)",
        dict(reference=1.0),
    ),
    (OddChebyshev, dict(k=3, u=(6, -32, 32)), "OddChebyshev(k=3, u=(6, -32, 32))",
     dict(u=(7, -32, 32))),
    (ProductRule, dict(k=3, v=(3, 4, 1)), "ProductRule(k=3, v=(3, 4, 1))", dict(v=(3, 5, 1))),
    (
        Tolerance,
        dict(rel_tol=1e-11, abs_tol=1e-15, max_panels=4096),
        "Tolerance(rel_tol=1e-11, abs_tol=1e-15, max_panels=4096)",
        dict(max_panels=16),
    ),
    (
        QuadratureSpec,
        dict(decay_rate=2.0, rel_tol=1e-11, abs_tol=1e-15, max_panels=4096,
             env_const=1.0, env_start=0.0),
        "QuadratureSpec(decay_rate=2.0, rel_tol=1e-11, abs_tol=1e-15, max_panels=4096, "
        "env_const=1.0, env_start=0.0)",
        dict(decay_rate=3.0),
    ),
    (
        IntegralResult,
        dict(value=1.5, err_estimate=1e-13, panels_used=7, truncation_point=30.0),
        "IntegralResult(value=1.5, err_estimate=1e-13, panels_used=7, truncation_point=30.0)",
        dict(panels_used=8),
    ),
    (FactorIndex, dict(j=3), "FactorIndex(j=3)", dict(j=4)),
    (
        ScanRow,
        dict(d=5, k=2, method="sum", value=0.25, err_estimate=1e-12),
        "ScanRow(d=5, k=2, method='sum', value=0.25, err_estimate=1e-12)",
        dict(value=0.5),
    ),
]

# a subclass of each record that adds no field, bound to a module name so
# that pickle finds it
for _cls, *_ in RECORDS:
    globals()[f"Sub{_cls.__name__}"] = type(f"Sub{_cls.__name__}", (_cls,), {"__slots__": ()})


@pytest.mark.parametrize("index", range(len(RECORDS)), ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(index):
    cls, fields, expected_repr, changed = RECORDS[index]
    record = cls(**fields)
    assert tuple(getattr(record, name) for name in fields) == tuple(fields.values())
    assert repr(record) == expected_repr

    twin = cls(*fields.values())
    assert record == twin and not record != twin and hash(record) == hash(twin)
    assert record != cls(**{**fields, **changed})
    other_cls, other_fields, _, _ = RECORDS[index - 1]
    assert record != other_cls(**other_fields)
    assert record != tuple(fields.values())
    subclass = globals()[f"Sub{cls.__name__}"]
    sub_record = subclass(**fields)
    assert record != sub_record  # equal fields, another class
    # the subclass keeps the record's fields
    assert repr(sub_record) == "Sub" + expected_repr
    sub_twin = subclass(*fields.values())
    assert sub_record == sub_twin and hash(sub_record) == hash(sub_twin)
    assert sub_record != subclass(**{**fields, **changed})

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1

    for original, kind in ((record, cls), (sub_record, subclass)):
        for clone in (pickle.loads(pickle.dumps(original)), copy.copy(original),
                      copy.deepcopy(original)):
            assert type(clone) is kind and clone == original and repr(clone) == repr(original)

    first, *rest = fields
    values = tuple(fields.values())
    bad_calls = [
        ((*values, values[0]), {}),  # an extra positional
        (values, {"extra": 1}),  # an unknown keyword
        (values, {first: values[0]}),  # a field given twice
    ]
    if cls is not Tolerance:  # whose every field has a default
        bad_calls.append(((), {name: fields[name] for name in rest}))  # a missing field
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError) as info:
            cls(*args, **kwargs)
        if "__init__" not in cls.__dict__:  # Record's own message names the fields
            assert ", ".join(fields) in str(info.value)


@pytest.mark.parametrize("d, shown", [
    (2**2000 - 1, f"d={2**2000 - 1}"),  # 2000 bits: printed in digits
    (2**2000 + 1, "d of 2001 bits"),
    (10**5000 + 1, "d of 16610 bits"),  # once a ValueError from repr() of the int
], ids=["2^2000-1", "2^2000+1", "10^5000+1"])
def test_huge_int_field_prints_by_its_size(d, shown):
    assert repr(SpherePoint(d, 1)) == f"SpherePoint({shown}, k=1)"
    row = ScanRow(d, 1, "direct", 0.5, 1e-12)
    assert repr(row) == f"ScanRow({shown}, k=1, method='direct', value=0.5, err_estimate=1e-12)"
