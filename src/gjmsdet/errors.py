"""Exception types shared across the package.  Those that carry data pickle
by calling their constructor again (``__reduce__``), as the default would
pass it the formatted message alone."""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class UnsupportedArgumentError(ValueError):
    """The requested case is outside what the library computes."""


class DivergentIntegralError(ValueError):
    """The requested integral does not converge (non-positive decay rate,
    or a spectral factor with 2*alpha >= d)."""


class InternalConsistencyError(RuntimeError):
    """An exact identity that must hold by construction failed; indicates a
    broken coefficient table or a bug, never bad user input."""


class EvaluationError(RuntimeError):
    """An integrand sample came back non-finite."""

    def __init__(self, message: str, abscissa: float):
        super().__init__(f"{message} (at x = {abscissa!r})")
        self._message = message
        self.abscissa = abscissa

    def __reduce__(self):
        return type(self), (self._message, self.abscissa)


class AccuracyError(RuntimeError):
    """The panel budget ran out before the tolerance was met.  Carries the
    best available value, its error estimate and the panels sampled for it,
    counted as in ``IntegralResult``."""

    def __init__(self, message: str, value: float, err_estimate: float, panels_used: int):
        super().__init__(
            f"{message}: best value {value!r} with error estimate {err_estimate:.3e} "
            f"after {panels_used} panels"
        )
        self._message = message
        self.value = value
        self.err_estimate = err_estimate
        self.panels_used = panels_used

    def __reduce__(self):
        return type(self), (
            self._message, self.value, self.err_estimate, self.panels_used
        )


class MethodDisagreementError(AccuracyError):
    """Routes evaluated at one point disagree by more than the agreement
    tolerance, or, with ``by_estimates``, two routes by more than the sum
    of their estimates, which is then ``allowed``.  Carries the point
    (``d``, ``k``), the ``spread`` between the routes, the ``allowed``
    spread, ``by_estimates`` and each route's value as ``(method, value)``
    pairs in ``values``.  As an AccuracyError its ``value`` is the midpoint
    of the routes' range and its ``err_estimate`` half that range, so the
    pair brackets every route; ``panels_used`` is 0, as no quadrature
    budget ran out."""

    def __init__(self, d: int, k: int, spread: float, allowed: float, values,
                 by_estimates: bool = False):
        self.values = tuple(values)
        excess = f"exceeds the allowed {allowed:.3e}"
        if by_estimates:
            ratio = spread / allowed if allowed else float("inf")
            excess = f"is {ratio:.3g} times the routes' summed estimates {allowed:.3e}"
        RuntimeError.__init__(
            self,
            f"method disagreement at d={d}, k={k}: spread {spread:.3e} {excess}; "
            + ", ".join(f"{method} {value!r}" for method, value in self.values),
        )
        self.d = d
        self.k = k
        self.spread = spread
        self.allowed = allowed
        self.by_estimates = by_estimates
        route_values = [value for _, value in self.values]
        self.value = 0.5 * min(route_values) + 0.5 * max(route_values)
        self.err_estimate = 0.5 * spread
        self.panels_used = 0

    def __reduce__(self):
        return type(self), (self.d, self.k, self.spread, self.allowed, self.values,
                            self.by_estimates)
