"""The package's exception types."""

import pickle

from gjmsdet import AccuracyError, EvaluationError, MethodDisagreementError


def test_data_carrying_errors_survive_pickling():
    cases = [
        (AccuracyError("budget gone", 0.25, 1.5e-9, 4096),
         ("value", "err_estimate", "panels_used")),
        (EvaluationError("integrand value overflowed", 37.5), ("abscissa",)),
        (MethodDisagreementError(
            131, 65, 1.1e-9, 1e-9, [("direct", 0.0099), ("sum", 0.0099 + 1.1e-9)]),
         ("d", "k", "spread", "allowed", "values", "value", "err_estimate",
          "panels_used", "by_estimates")),
        (MethodDisagreementError(
            21, 10, 5e-10, 2e-16, [("direct", 1.0), ("sum", 1.0 + 5e-10)], True),
         ("d", "k", "spread", "allowed", "values", "value", "err_estimate",
          "panels_used", "by_estimates")),
    ]
    for exc, fields in cases:
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is type(exc)
        assert str(copy) == str(exc)
        for name in fields:
            assert getattr(copy, name) == getattr(exc, name), name
