"""Test hooks on the package's internals: the one test module that names the
route plumbing, the private functions a route's rows pass through between
its plan and its value.

Every route is a plan of rows (a_r, p_r) and weights w_r, integrated in one
batch and reduced to one weighted sum.  A test that counts the work a call
does takes the ``work`` fixture; one that reads a route's rows, kept rows,
row integrals or reduced sum takes ``route_rows``; one that integrates rows
that are no route's plan takes ``row_batch``.  So when the plumbing is
renamed or rewritten only this module changes.  A test of a formula (a
bound, an envelope, the weights) still names the private function it tests.
"""

from functools import cached_property

import pytest

from gjmsdet import Tolerance, quadrature, spectral


class Work:
    """Counts of the work the package does from the moment the fixture is
    requested, or from the last ``reset``:

    - ``sweeps``: calls of ``quadrature._eval_panels``, one a sweep;
    - ``calls`` and ``abscissas``: calls of the route integrand
      (``spectral._LogIntegrand``) and the abscissas they were given;
    - ``panels_used``: the panels the route quadrature reports as used,
      summed over its rows (``spectral.integrate_staged``);
    - ``rows``: the (a, p) rows ``spectral._integrals`` integrates, in order.
    """

    def __init__(self, monkeypatch) -> None:
        self._monkeypatch = monkeypatch
        self.reset()
        for owner, name, count in (
            (quadrature, "_eval_panels", self._sweep),
            (spectral._LogIntegrand, "__call__", self._call),
            (spectral, "integrate_staged", self._staged),
            (spectral, "_integrals", self._integrals),
        ):
            monkeypatch.setattr(owner, name, count(getattr(owner, name)))

    def reset(self) -> None:
        self.sweeps = self.calls = self.abscissas = self.panels_used = 0
        self.rows = []

    def forbid(self, module, name: str) -> None:
        """Make ``module.name`` raise AssertionError when called."""
        def forbidden(*args, **kwargs):
            raise AssertionError(f"{module.__name__}.{name} was called")

        self._monkeypatch.setattr(module, name, forbidden)

    def _sweep(self, sweep):
        def counted(*args):
            self.sweeps += 1
            return sweep(*args)
        return counted

    def _call(self, call):
        def counted(integrand, x, row):
            self.calls += 1
            self.abscissas += x.size
            return call(integrand, x, row)
        return counted

    def _staged(self, integrate):
        def counted(*args):
            rows = integrate(*args)
            self.panels_used += int(rows.panels_used.sum())
            return rows
        return counted

    def _integrals(self, integrals):
        def counted(a, p, *args):
            self.rows.extend(zip(a.tolist(), p.tolist()))
            return integrals(a, p, *args)
        return counted


@pytest.fixture
def work(monkeypatch) -> Work:
    return Work(monkeypatch)


class RouteRows:
    """The rows of the route ``method`` at ``point`` on their way to its
    value, taken as ``logdet`` takes them but without its round-off refusal:

    - ``a``, ``p``, ``weights`` and ``regrouped``: the route's plan;
    - ``kept``: the plan's (a, p, weights) left by the skipping of
      negligible rows, and ``skipped``, the bound mass charged for the rest;
      with ``skip=False``, or in a plan of one row, every row and 0.0;
    - ``integrated``: the kept rows' (values, estimates, failed flags,
      panels), from one batched quadrature call, made when first read;
    - ``reduced``: the (value, estimate) of ``logdet``, s(d, k) times their
      weighted sum with the charge added to the estimate; where a row
      failed, reading it raises the AccuracyError of ``logdet``.
    """

    def __init__(self, point, method: str, tolerance=None, skip: bool = True) -> None:
        self.point, self.method = point, method
        self.tolerance = Tolerance() if tolerance is None else tolerance
        self.a, self.p, self.weights, self.regrouped = spectral._plan(point, method)
        plan = self.a, self.p, self.weights
        skipping = skip and self.weights.size > 1
        *self.kept, self.skipped = spectral._drop_negligible(*plan) if skipping else (*plan, 0.0)

    @cached_property
    def integrated(self) -> tuple:
        return spectral._integrals(*self.kept[:2], self.tolerance, self.regrouped)

    @cached_property
    def reduced(self) -> tuple:
        return spectral._reduce(self.method, self.point.sign, self.kept[2], self.integrated,
                                self.skipped)


@pytest.fixture
def route_rows():
    """``RouteRows(point, method, tolerance=None, skip=True)``."""
    return RouteRows


def _row_batch(a, p, regrouped: bool, tolerance) -> list:
    """For each row of the equal-length float arrays ``a`` and ``p`` of the
    route integrand, integrated in one batch: every field the quadrature
    returns for it (value, estimate, panels, truncation point, failed flag),
    then its scaled row integral's value, estimate, failed flag and panels."""
    integrand = spectral._LogIntegrand(a, p, regrouped)
    staged = quadrature.integrate_staged(integrand, *spectral._envelope(a, p), 0.0, tolerance)
    scaled = spectral._integrals(a, p, tolerance, regrouped)
    fields = [field.tolist() for field in (*staged, *scaled)]
    return list(zip(*fields))


@pytest.fixture
def row_batch():
    """``_row_batch(a, p, regrouped, tolerance)``."""
    return _row_batch
