"""gjmsdet: log-determinants of scalar GJMS operators on odd spheres.

The order-2k GJMS operator on the round unit d-sphere (d odd, integer
1 <= k <= (d-1)/2) has a zeta-regularized determinant that this package
evaluates by four mutually checking routes: a single semi-infinite
integral, a sum of per-factor integrals, a Chebyshev regrouping of the
same integrand, and an integer-power product rule over conformal-Laplacian
determinants at descending dimensions.  Closed forms for the fourth-order
operator on the 5- and 7-spheres provide quadrature-independent anchors.

Only the exact layer (``errors``, ``chebyshev`` and ``exact``) is imported
with the package.  The names of ``quadrature``, ``spectral`` and ``scans``,
which need numpy, are imported on first access.
"""

import importlib

from .chebyshev import OddChebyshev, ProductRule, eval_u, u_coefficients, v_coefficients
from .errors import (
    AccuracyError,
    DivergentIntegralError,
    EvaluationError,
    InternalConsistencyError,
    MethodDisagreementError,
    ParameterError,
    UnsupportedArgumentError,
)
from .exact import ClosedForm, LogDetResult, SpherePoint, closed_form_p4, zeta_odd

# The names from the modules that import numpy, each mapped to its module.  The
# module __getattr__ below (PEP 562) imports it on first access and caches it.
_LAZY = {
    **dict.fromkeys(
        ("Envelopes", "IntegralResult", "QuadratureSpec", "Tolerance",
         "integrate_rows", "integrate_semi_infinite", "truncation_point"),
        "quadrature",
    ),
    **dict.fromkeys(
        ("ScanRow", "read_csv", "scan_k", "scan_limiting", "scan_paneitz",
         "write_csv", "write_svg"),
        "scans",
    ),
    **dict.fromkeys(
        ("METHODS", "FactorIndex", "integrand_direct", "logdet", "logdet_chebyshev",
         "logdet_direct", "logdet_factor", "logdet_product_rule", "logdet_sum"),
        "spectral",
    ),
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "ClosedForm",
    "DivergentIntegralError",
    "Envelopes",
    "EvaluationError",
    "FactorIndex",
    "IntegralResult",
    "InternalConsistencyError",
    "LogDetResult",
    "METHODS",
    "MethodDisagreementError",
    "OddChebyshev",
    "ParameterError",
    "ProductRule",
    "QuadratureSpec",
    "ScanRow",
    "SpherePoint",
    "Tolerance",
    "UnsupportedArgumentError",
    "closed_form_p4",
    "eval_u",
    "integrand_direct",
    "integrate_rows",
    "integrate_semi_infinite",
    "logdet",
    "logdet_chebyshev",
    "logdet_direct",
    "logdet_factor",
    "logdet_product_rule",
    "logdet_sum",
    "read_csv",
    "scan_k",
    "scan_limiting",
    "scan_paneitz",
    "truncation_point",
    "u_coefficients",
    "v_coefficients",
    "write_csv",
    "write_svg",
    "zeta_odd",
]
