"""The exact layer loads without numpy, and every package name resolves to
the object of its home module, whether it is imported eagerly or on first
access."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gjmsdet
from gjmsdet import chebyshev, cli, errors, exact, quadrature, scans, spectral

SRC = str(Path(__file__).resolve().parents[1] / "src")
HOMES = (errors, chebyshev, exact, quadrature, spectral, scans)


def _python(*args):
    """A fresh interpreter that imports the package from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _loaded(code: str, modules) -> list:
    """Those of ``modules`` that a fresh interpreter has loaded after ``code``."""
    proc = _python("-c", f"{code}\nimport sys\nprint(*(m for m in {modules!r} if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def _loads_numpy(code: str) -> bool:
    return _loaded(code, ("numpy",)) == ["numpy"]


@pytest.mark.parametrize(
    "code",
    [
        "import gjmsdet",
        "from gjmsdet import SpherePoint, zeta_odd, closed_form_p4, v_coefficients",
        "from gjmsdet import cli\nassert cli.main(['rules', '--k', '511']) == 0",
        "from gjmsdet import cli\nassert cli.main(['closed-form']) == 0",
    ],
)
def test_exact_paths_do_not_load_numpy(code):
    assert not _loads_numpy(code)


@pytest.mark.parametrize("code, modules", [
    ("import gjmsdet", ("dataclasses", "inspect")),
    ("import gjmsdet.cli", ("dataclasses", "inspect")),
    # numpy loads inspect itself
    ("import gjmsdet.scans", ("dataclasses",)),
])
def test_package_records_load_no_record_machinery(code, modules):
    assert _loaded(code, modules) == []


def test_integrating_command_loads_numpy():
    assert _loads_numpy("from gjmsdet import cli\nassert cli.main(['eval', '--d', '5', '--k', '2']) == 0")


def test_quadrature_rules_do_not_load_numpy_polynomial():
    # the Gauss-Kronrod rule is built from its Jacobi matrix, not leggauss
    code = "import sys, gjmsdet.quadrature\nprint('numpy.polynomial' in sys.modules)"
    proc = _python("-c", code)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_module_entry_point():
    proc = _python("-m", "gjmsdet.cli", "rules", "--k", "3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "P_6(d) ~ P_2^3(d) P_2^4(d-2) P_2^1(d-4)\n", ""
    )


def _homes_of(name):
    """The modules that export ``name``: listed in their ``__all__``, or, in
    ``errors``, which has none, defined there."""
    return [
        m for m in HOMES
        if name in getattr(m, "__all__", [n for n in vars(m) if not n.startswith("_")])
    ]


@pytest.fixture
def unresolved(monkeypatch):
    """The package with none of its lazy names resolved yet."""
    for name in gjmsdet._LAZY:
        monkeypatch.delitem(vars(gjmsdet), name, raising=False)
    return gjmsdet


@pytest.mark.parametrize("name", gjmsdet.__all__)
def test_getattr_gives_the_home_object(name, unresolved):
    value = getattr(unresolved, name)
    homes = _homes_of(name)
    assert homes
    assert all(getattr(m, name) is value for m in homes)
    assert vars(unresolved)[name] is value  # cached after the first access


def test_star_import_gives_the_home_objects(unresolved):
    namespace = {}
    exec("from gjmsdet import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(gjmsdet.__all__)
    for name, value in namespace.items():
        assert all(getattr(m, name) is value for m in _homes_of(name))


def test_lazy_table_names_only_exported_names():
    assert set(gjmsdet._LAZY) <= set(gjmsdet.__all__)
    for name, module in gjmsdet._LAZY.items():
        assert name in getattr(gjmsdet, module).__all__


def test_spectral_zeta_odd_is_the_cache_the_cli_fills(capsys):
    assert spectral.zeta_odd is exact.zeta_odd
    spectral.zeta_odd.cache_clear()
    assert exact.zeta_odd.cache_info().currsize == 0
    assert cli.main(["closed-form"]) == 0
    capsys.readouterr()
    assert spectral.zeta_odd.cache_info().currsize == 3  # zeta(3), zeta(5), zeta(7)


def test_unknown_attributes_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        gjmsdet.no_such_name
    assert not hasattr(gjmsdet, "_LAZY_missing")
    # the CLI resolves only the names the benchmark's tracer rebinds
    assert cli.logdet is spectral.logdet
    assert (cli.write_csv, cli.write_svg) == (scans.write_csv, scans.write_svg)
    with pytest.raises(AttributeError, match="compute_rows"):
        cli.compute_rows
