"""Spans at the package's layer boundaries, recorded from outside it.

The traced run rebinds a handful of module attributes of the package to
wrappers defined here, runs its passes, and puts the originals back.  Nothing
under ``src/`` changes.  Each wrapper records one span: its boundary name,
start, end, the enclosing span, the call it belongs to, its self time (its
duration minus the part its child spans cover) and one small piece of
information: the abscissa count of an integrand evaluation, the panels an
integral used, or the exception a boundary raised.  The route of a
``logdet`` and the command of ``cli.main`` are part of the span's name.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from array import array
from collections import Counter, defaultdict

from gjmsdet import cli, scans, spectral
from gjmsdet.spectral import METHODS

_GAUSS_ORDER = 32
_ROUTE = "spectral.route."


FIELDS = ("sid", "parent", "call", "name", "start", "end", "self_s", "info")


class Tracer:
    """Spans kept in memory, one typed array per field, and written out once,
    when the run ends.  ``parent`` is -1 at the top of a call.  ``name`` is an
    index into ``names``; so is ``-1 - info`` when ``info`` is negative, which
    names the exception the boundary raised."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {f: array("d" if f in ("start", "end", "self_s") else "q") for f in FIELDS}
        self.call = 0
        self._stack: list[list] = []  # [sid, start, time covered by children]
        self._next = 0

    def __len__(self) -> int:
        return len(self.cols["sid"])

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def new_call(self) -> None:
        self.call += 1

    def wrap(self, name: str, fn, info_of=None):
        """``fn`` recording a span per call; ``info_of(args, result)`` gives
        the span's count on success."""
        name = self.name_id(name)
        cols = self.cols

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            frame = [sid, 0.0, 0.0]
            self._stack.append(frame)
            info = 0
            frame[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if info_of is not None:
                    info = info_of(args, result)
                return result
            except BaseException as exc:
                info = -1 - self.name_id(type(exc).__name__)
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - frame[1]
                parent = -1
                if self._stack:
                    self._stack[-1][2] += dur
                    parent = self._stack[-1][0]
                for field, value in zip(
                    FIELDS, (sid, parent, self.call, name, frame[1], end, dur - frame[2], info)
                ):
                    cols[field].append(value)

        return wrapper

    def write(self, path: str) -> None:
        """Gzipped text: a JSON header with the fields and the names, then one
        line of space-separated fields per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": FIELDS, "names": self.names}) + "\n")
            for row in zip(*(self.cols[f] for f in FIELDS)):
                fh.write(" ".join(map(repr, row)) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind the package's layer boundaries to traced wrappers."""
    integrate = spectral.integrate_semi_infinite
    logdet = spectral.logdet
    main = cli.main

    def traced_integrate(f, spec):
        g = tracer.wrap("spectral.integrand", f, lambda args, _: args[0].size)
        return integrate(g, spec)

    routes, commands = {}, {}

    def traced_logdet(point, method="direct", spec=None):
        if method not in routes:
            routes[method] = tracer.wrap(_ROUTE + str(method), logdet)
        return routes[method](point, method, spec)

    def traced_main(argv):
        if argv[0] not in commands:
            commands[argv[0]] = tracer.wrap("cli.main." + argv[0], main)
        return commands[argv[0]](argv)

    def panels(args, result):
        return result.panels_used

    wrap = tracer.wrap
    bindings = [
        (spectral, "integrate_semi_infinite",
         wrap("quadrature.integrate_semi_infinite", traced_integrate, panels)),
        (spectral, "logdet", traced_logdet),
        (scans, "logdet", traced_logdet),
        (cli, "logdet", traced_logdet),
        (spectral, "zeta_odd", wrap("spectral.zeta_odd", spectral.zeta_odd)),
        (spectral, "v_coefficients",
         wrap("chebyshev.v_coefficients", spectral.v_coefficients)),
        (cli, "v_coefficients", wrap("chebyshev.v_coefficients", cli.v_coefficients)),
        (scans, "compute_rows", wrap("scans.compute_rows", scans.compute_rows)),
        (scans, "check_method_agreement",
         wrap("scans.check_method_agreement", scans.check_method_agreement)),
        (cli, "write_csv", wrap("scans.write_csv", cli.write_csv)),
        (cli, "write_svg", wrap("scans.write_svg", cli.write_svg)),
        (cli, "main", traced_main),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in bindings]
    try:
        for mod, attr, fn in bindings:
            setattr(mod, attr, fn)
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def summarize(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-layer numbers of one pass, from the spans recorded in [lo, hi)."""
    c = {f: tracer.cols[f][lo:hi] for f in FIELDS}
    names = tracer.names
    layer_self: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    count: Counter = Counter()
    up = {}
    for sid, parent, name, start, end, self_s in zip(
        c["sid"], c["parent"], c["name"], c["start"], c["end"], c["self_s"]
    ):
        name = names[name]
        layer_self[name.split(".", 1)[0]] += self_s
        total[name] += end - start
        count[name] += 1
        up[sid] = (name, parent)

    def route_of(sid: int) -> str:
        while sid != -1:
            name, sid = up.get(sid, ("", -1))
            if name.startswith(_ROUTE):
                return name[len(_ROUTE):]
        return ""

    quad_id = tracer.name_id("quadrature.integrate_semi_infinite")
    integrand_id = tracer.name_id("spectral.integrand")
    integrals: Counter = Counter()
    calls = panels = abscissas = accuracy_errors = 0
    accuracy = -1 - tracer.name_id("AccuracyError")
    for parent, name, info in zip(c["parent"], c["name"], c["info"]):
        if name == integrand_id:
            abscissas += info
        elif name == quad_id:
            calls += 1
            integrals[route_of(parent)] += 1
            panels += max(info, 0)
            accuracy_errors += info == accuracy
    quad_self = layer_self["quadrature"]
    out = {
        "quadrature.calls": calls,
        "quadrature.abscissas": abscissas,
        "quadrature.useful_ratio": panels / (abscissas / _GAUSS_ORDER) if abscissas else 0.0,
        "quadrature.accuracy_errors": accuracy_errors,
        "quadrature.self_us_per_call": 1e6 * quad_self / calls if calls else 0.0,
        "spectral.integrand_s": total["spectral.integrand"],
        "spectral.integrand_ns_per_abscissa":
            1e9 * total["spectral.integrand"] / abscissas if abscissas else 0.0,
        "spectral.zeta_odd_in_pass_s": total["spectral.zeta_odd"],
        "chebyshev.v_coefficients_in_pass_s": total["chebyshev.v_coefficients"],
        "scans.agreement_s": total["scans.check_method_agreement"],
        "scans.io_s": total["scans.write_csv"] + total["scans.write_svg"],
    }
    for method in METHODS:
        routes = count[_ROUTE + method]
        out[f"spectral.route_s.{method}"] = total[_ROUTE + method]
        out[f"spectral.integrals_per_call.{method}"] = (
            integrals[method] / routes if routes else 0.0
        )
    for layer in ("cli", "scans", "spectral", "chebyshev", "quadrature"):
        out[f"{layer}.self_s"] = layer_self[layer]
    for name, seconds in total.items():
        if name.startswith("cli.main."):
            out["cli.main_s." + name[len("cli.main."):]] = seconds
    return out
