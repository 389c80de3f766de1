"""CLI behaviour: output formats, exit codes, CSV round trips, SVG validity."""

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gjmsdet import ParameterError, ScanRow, exact, read_csv, scans
from gjmsdet.cli import main
from gjmsdet.scans import (
    check_method_agreement,
    format_csv,
    parse_csv,
    scan_k,
    scan_limiting,
    scan_paneitz,
    write_svg,
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run(["eval", "--d", "5", "--k", "2", "--method", "all"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "d=5 k=2"
        values = []
        for line in lines[1:5]:
            method, value = line.split()[:2]
            assert method in ("direct", "sum", "chebyshev", "product_rule")
            values.append(float(value))
        assert all(abs(v - 0.104642) < 5e-6 for v in values)
        assert lines[5].startswith("max pairwise discrepancy:")
        assert max(values) - min(values) < 1e-9

    def test_single_method(self, capsys):
        code, out, _ = run(["eval", "--d", "7", "--k", "2", "--method", "direct"], capsys)
        assert code == 0
        assert "direct" in out
        assert "max pairwise" not in out

    def test_even_dimension_rejected(self, capsys):
        code, _, err = run(["eval", "--d", "4", "--k", "1"], capsys)
        assert code == 2
        assert "d must be odd" in err

    def test_excessive_order_rejected(self, capsys):
        code, _, err = run(["eval", "--d", "7", "--k", "4"], capsys)
        assert code == 2
        assert "k must satisfy" in err

    def test_tol_flag(self, capsys):
        code, out, _ = run(
            ["eval", "--d", "5", "--k", "2", "--method", "direct", "--tol", "1e-8"],
            capsys,
        )
        assert code == 0
        assert abs(float(out.strip().split("\n")[1].split()[1]) - 0.104642) < 5e-6

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_unusable_tol_is_usage_error(self, tol, capsys):
        code, out, err = run(["eval", "--d", "5", "--k", "2", "--tol", tol], capsys)
        assert code == 2
        assert out == ""
        assert "rel_tol must be positive and finite" in err

    def test_past_binary64_envelope_d1025(self, capsys):
        # the envelope constant 2^1024 pi overflows binary64; frozen
        # reference from tests/_oracles.py
        code, out, _ = run(
            ["eval", "--d", "1025", "--k", "512", "--method", "direct"], capsys
        )
        assert code == 0
        value = float(out.strip().split("\n")[1].split()[1])
        assert abs(value - 0.002184270753602174) < 1e-9

    def test_overflowing_integral_is_numerical_failure(self, capsys):
        # at d = 1035 the integral itself, about 2^1034 log det, overflows
        code, _, err = run(
            ["eval", "--d", "1035", "--k", "517", "--method", "direct"], capsys
        )
        assert code == 3
        assert "overflowed" in err

    def test_method_disagreement_is_numerical_failure(self, capsys, monkeypatch):
        import gjmsdet.scans as scans

        real = scans.logdet

        def skewed(point, method, tolerance=None):
            res = real(point, method, tolerance)
            if method != "sum":
                return res
            return type(res)(res.value + 1e-6, res.err_estimate, res.method, res.point)

        monkeypatch.setattr(scans, "logdet", skewed)
        code, out, err = run(["eval", "--d", "5", "--k", "2"], capsys)
        assert code == 3
        assert out == ""
        assert "method disagreement at d=5, k=2" in err

    def test_product_rule_powers_past_binary64_are_usage_error(self, capsys):
        # v_j(742) reaches 2^1024, which no binary64 number holds
        code, out, err = run(
            ["eval", "--d", "1485", "--k", "742", "--method", "product"], capsys
        )
        assert code == 2
        assert out == ""
        assert "k = 742" in err

    def test_underflowed_zero_carries_the_sign_on_every_route(self, capsys):
        # s(1101, 1) = -1, and every route's value underflows to zero
        code, out, _ = run(["eval", "--d", "1101", "--k", "1"], capsys)
        assert code == 0
        rows = [line.split()[:2] for line in out.split("\n")[1:5]]
        assert rows == [
            ["direct", "-0"], ["sum", "-0"], ["chebyshev", "-0"], ["product_rule", "-0"]
        ]


class TestScanK:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(["scan-k", "--d", "7"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "d,k,method,value,err_estimate"
        assert len(lines) == 4  # header + k = 1, 2, 3
        ks = [int(ln.split(",")[1]) for ln in lines[1:]]
        assert ks == [1, 2, 3]

    def test_csv_file_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "scan.csv"
        code, _, _ = run(["scan-k", "--d", "9", "--out", str(out_path)], capsys)
        assert code == 0
        rows = read_csv(str(out_path))
        direct = scan_k(9)
        assert rows == direct  # 17-significant-digit text is lossless

    def test_method_all_rows(self, tmp_path, capsys):
        out_path = tmp_path / "all.csv"
        code, _, _ = run(
            ["scan-k", "--d", "5", "--method", "all", "--out", str(out_path)], capsys
        )
        assert code == 0
        rows = read_csv(str(out_path))
        assert len(rows) == 8  # 2 orders x 4 methods
        assert {r.method for r in rows} == {"direct", "sum", "chebyshev", "product_rule"}

    def test_single_row_d3(self, capsys):
        code, out, _ = run(["scan-k", "--d", "3"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0].k == 1
        assert rows[0].value > 0  # sign (-1)^(1+1)

    def test_sign_alternation_d35(self, tmp_path, capsys):
        out_path = tmp_path / "d35.csv"
        code, _, _ = run(["scan-k", "--d", "35", "--out", str(out_path)], capsys)
        assert code == 0
        rows = read_csv(str(out_path))
        assert len(rows) == 17
        for r in rows:
            expected = -1.0 if (17 + r.k) % 2 else 1.0
            assert math.copysign(1.0, r.value) == expected

    def test_unwritable_path(self, capsys):
        code, _, err = run(
            ["scan-k", "--d", "5", "--out", "/nonexistent-dir/file.csv"], capsys
        )
        assert code == 4
        assert "i/o failure" in err

    def test_invalid_dimension_writes_nothing(self, tmp_path, capsys):
        out_path = tmp_path / "never.csv"
        code, _, err = run(["scan-k", "--d", "4", "--out", str(out_path)], capsys)
        assert code == 2
        assert "d must be odd" in err
        assert not out_path.exists()

    def test_product_method_alias(self, capsys):
        code, out, _ = run(["scan-k", "--d", "5", "--method", "product"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert all(r.method == "product_rule" for r in rows)


    def test_method_disagreement_is_numerical_failure(self, capsys, monkeypatch):
        import gjmsdet.scans as scans

        real = scans.logdet

        def skewed(point, method, spec=None):
            res = real(point, method, spec)
            if method != "sum":
                return res
            return type(res)(res.value + 1e-6, res.err_estimate, res.method, res.point)

        monkeypatch.setattr(scans, "logdet", skewed)
        code, out, err = run(["scan-k", "--d", "5", "--method", "all"], capsys)
        assert code == 3
        assert out == ""
        assert "method disagreement at d=5, k=1" in err
        assert "direct" in err and "sum" in err and "after 0 panels" not in err


class TestLimiting:
    def test_default_range(self, capsys):
        code, out, _ = run(["limiting"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 10
        assert [r.d for r in rows] == list(range(3, 22, 2))
        assert all(r.k == (r.d - 1) // 2 for r in rows)
        assert all(r.value > 0 for r in rows)

    def test_d5_row_matches_reference(self, capsys):
        code, out, _ = run(["limiting", "--d-min", "5", "--d-max", "5"], capsys)
        assert code == 0
        (row,) = parse_csv(out)
        assert abs(row.value - 0.104642) < 5e-6

    def test_even_bound_rejected(self, capsys):
        code, _, err = run(["limiting", "--d-min", "4"], capsys)
        assert code == 2
        assert "odd" in err


class TestPaneitz:
    def test_default_range(self, capsys):
        code, out, _ = run(["paneitz"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert [r.d for r in rows] == list(range(5, 22, 2))
        assert all(r.k == 2 for r in rows)
        # signs alternate with dimension and magnitudes shrink
        for prev, cur in zip(rows, rows[1:]):
            assert math.copysign(1.0, prev.value) == -math.copysign(1.0, cur.value)
            assert abs(cur.value) < abs(prev.value)

    def test_too_small_dimension(self, capsys):
        code, _, err = run(["paneitz", "--d-min", "3"], capsys)
        assert code == 2
        assert "d >= 5" in err


class TestRules:
    def test_k3(self, capsys):
        code, out, _ = run(["rules", "--k", "3"], capsys)
        assert code == 0
        assert out.strip() == "P_6(d) ~ P_2^3(d) P_2^4(d-2) P_2^1(d-4)"

    def test_k1(self, capsys):
        code, out, _ = run(["rules", "--k", "1"], capsys)
        assert code == 0
        assert out.strip() == "P_2(d) ~ P_2^1(d)"

    def test_k5(self, capsys):
        code, out, _ = run(["rules", "--k", "5"], capsys)
        assert code == 0
        assert "P_2^5(d) P_2^20(d-2) P_2^21(d-4) P_2^8(d-6) P_2^1(d-8)" in out

    def test_k511_prints_binomial_powers(self, capsys):
        code, out, _ = run(["rules", "--k", "511"], capsys)
        assert code == 0
        head, factors = out.strip().split(" ~ ")
        assert head == "P_1022(d)"
        factors = factors.split(" ")
        assert len(factors) == 511
        for j, factor in enumerate(factors):
            dim = "d" if j == 0 else f"d-{2 * j}"
            assert factor == f"P_2^{math.comb(511 + j, 510 - j)}({dim})"

    def test_invalid_order(self, capsys):
        code, _, err = run(["rules", "--k", "0"], capsys)
        assert code == 2


class TestClosedFormCommand:
    def test_both_dimensions(self, capsys):
        code, out, _ = run(["closed-form"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert abs(float(lines[0].split()[3]) - 0.104642) < 1e-6
        assert abs(float(lines[1].split()[3]) - -0.008297) < 1e-6

    def test_single_dimension(self, capsys):
        code, out, _ = run(["closed-form", "--d", "7"], capsys)
        assert code == 0
        assert out.count("closed_form") == 1


class TestSvg:
    def test_valid_svg_polyline(self, tmp_path, capsys):
        svg_path = tmp_path / "chart.svg"
        code, _, _ = run(
            ["scan-k", "--d", "11", "--out", str(tmp_path / "x.csv"),
             "--svg", str(svg_path)],
            capsys,
        )
        assert code == 0
        root = ET.parse(svg_path).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert root.get("version") == "1.1"
        ns = {"svg": "http://www.w3.org/2000/svg"}
        polylines = root.findall(".//svg:polyline", ns)
        assert len(polylines) == 1
        assert len(polylines[0].get("points").split()) == 5  # k = 1..5
        assert len(root.findall(".//svg:circle", ns)) == 5

    def test_direct_writer(self, tmp_path):
        path = tmp_path / "direct.svg"
        write_svg(str(path), [1, 2, 3], [0.5, -0.25, 0.125], "k", "log det")
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_finite_input_is_a_parameter_error(self, tmp_path, bad, axis):
        path = tmp_path / "bad.svg"
        xs, ys = [1.0, 2.0], [0.5, 1.0]
        (xs if axis == "x" else ys)[0] = bad
        with pytest.raises(ParameterError, match="finite"):
            write_svg(str(path), xs, ys)
        assert not path.exists()

    @pytest.mark.parametrize("xs,ys", [([1.0, 2.0], [0.5]), ([], [])])
    def test_unequal_or_empty_input_is_a_parameter_error(self, tmp_path, xs, ys):
        path = tmp_path / "bad.svg"
        with pytest.raises(ParameterError, match="equal-length and non-empty"):
            write_svg(str(path), xs, ys)
        assert not path.exists()

    # the range itself, or a single value plus its 10 % pad, passes 1.8e308
    @pytest.mark.parametrize("ys", [[-1e308, 1e308], [1.7e308, 1.7e308]])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_range_past_binary64_is_a_parameter_error(self, tmp_path, ys, axis):
        path = tmp_path / "bad.svg"
        xs = [1.0, 2.0]
        if axis == "x":
            xs, ys = ys, xs
        with pytest.raises(ParameterError, match="binary64"):
            write_svg(str(path), xs, ys)
        assert not path.exists()

    @staticmethod
    def _y_ticks(path):
        ns = {"svg": "http://www.w3.org/2000/svg"}
        texts = ET.parse(path).getroot().findall(".//svg:text", ns)
        return [float(t.text) for t in texts if t.get("text-anchor") == "end"]

    def test_constant_series_is_padded_by_a_tenth(self, tmp_path):
        path = tmp_path / "flat.svg"
        write_svg(str(path), [1, 2, 3], [0.5, 0.5, 0.5])
        ticks = self._y_ticks(path)
        assert ticks and min(ticks) >= 0.45 and max(ticks) <= 0.55

    # a pad that rounds to 0 or below one ulp would leave the axis no width
    # (a ZeroDivisionError), or a tick step that never advances (a hang)
    @pytest.mark.parametrize("ys", [
        [1e-323], [0.0], [0.0, 5e-324], [0.1, math.nextafter(0.1, 1.0)],
        [1e20, math.nextafter(1e20, 2e20)],
    ], ids=["subnormal", "zero", "subnormal-span", "one-ulp", "one-ulp-past-2^53"])
    def test_pad_lost_to_rounding_falls_back(self, tmp_path, ys):
        path = tmp_path / "tiny.svg"
        write_svg(str(path), list(range(len(ys))), ys)
        ticks = self._y_ticks(path)
        pad = max(abs(ys[0]) * 0.1, 1.0)
        assert ticks and min(ticks) >= ys[0] - pad and max(ticks) <= ys[-1] + pad
        assert max(ticks) - min(ticks) >= pad

    def test_paneitz_subnormal_value_draws_one_point(self, tmp_path, capsys):
        svg_path = tmp_path / "p.svg"
        code, out, err = run(
            ["paneitz", "--d-min", "1061", "--d-max", "1061", "--svg", str(svg_path)],
            capsys,
        )
        assert code == 0 and err == ""
        assert out.splitlines()[1].startswith("1061,2,direct,")
        ns = {"svg": "http://www.w3.org/2000/svg"}
        assert len(ET.parse(svg_path).getroot().findall(".//svg:circle", ns)) == 1


class TestCsvFormat:
    def test_format_is_lossless_for_random_floats(self):
        import random

        rng = random.Random(99)
        rows = [
            ScanRow(3, 1, "direct", rng.uniform(-1, 1) * 10 ** rng.randint(-12, 3),
                    abs(rng.gauss(0, 1e-12)))
            for _ in range(50)
        ]
        assert parse_csv(format_csv(rows)) == rows

    def test_agreement_guard_trips_on_divergent_rows(self):
        from gjmsdet import AccuracyError

        rows = [
            ScanRow(5, 2, "direct", 0.1, 0.0),
            ScanRow(5, 2, "sum", 0.1 + 1e-6, 0.0),
        ]
        with pytest.raises(AccuracyError):
            check_method_agreement(rows)

    def test_agreement_guard_names_point_spread_and_routes(self):
        from gjmsdet import AccuracyError, MethodDisagreementError

        rows = [
            ScanRow(5, 2, "direct", 0.1, 0.0),
            ScanRow(5, 2, "sum", 0.1 + 1e-6, 0.0),
            ScanRow(7, 2, "direct", -0.008, 0.0),
        ]
        with pytest.raises(MethodDisagreementError) as info:
            check_method_agreement(rows)
        exc = info.value
        assert isinstance(exc, AccuracyError)
        assert (exc.d, exc.k) == (5, 2)
        assert exc.spread == (0.1 + 1e-6) - 0.1
        assert exc.allowed == max(1e-9, 1e-8 * (0.1 + 1e-6))
        assert exc.values == (("direct", 0.1), ("sum", 0.1 + 1e-6))
        # the AccuracyError fields bracket every route
        assert exc.panels_used == 0
        for _, v in exc.values:
            assert abs(v - exc.value) <= exc.err_estimate * (1 + 1e-12)
        text = str(exc)
        assert "d=5, k=2" in text
        assert "direct 0.1" in text and f"sum {0.1 + 1e-6!r}" in text
        assert "panels" not in text and "best value" not in text

    def test_agreement_guard_passes_close_rows(self):
        rows = [
            ScanRow(5, 2, "direct", 0.1, 0.0),
            ScanRow(5, 2, "sum", 0.1 + 1e-10, 0.0),
        ]
        check_method_agreement(rows)

    def test_parse_rejects_bad_header(self):
        from gjmsdet import ParameterError

        with pytest.raises(ParameterError):
            parse_csv("wrong,header\n1,2\n")

    @pytest.mark.parametrize(
        "row",
        ["5,2", "5,2,direct,0.1", "5,2,direct,0.1,0.0,extra", "5,two,direct,0.1,0.0",
         "5.0,2,direct,0.1,0.0", "5,2,direct,x,0.0"],
    )
    def test_parse_names_malformed_line(self, row, tmp_path):
        from gjmsdet import ParameterError

        # line 1 the header, 2 a good row, 3 blank (skipped but counted)
        text = "d,k,method,value,err_estimate\n5,2,direct,0.1,0.0\n\n" + row + "\n"
        with pytest.raises(ParameterError, match=f"^line 4: malformed row '{row}'$"):
            parse_csv(text)
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParameterError, match="^line 4: "):
            read_csv(str(path))


_METHOD_USAGE = "--method {direct,sum,chebyshev,product,all}"
_SCAN_OPTIONS = f"""
options:
  -h, --help            show this help message and exit
  --d-min D_MIN
  --d-max D_MAX
  {_METHOD_USAGE}
                        evaluation route (default direct)
  --tol TOL             relative quadrature tolerance
  --out OUT             CSV output path (default stdout)
  --svg SVG             also write an SVG chart here
"""


class TestMethodSelectors:
    """One selector table serves the scans and the CLI's --method."""

    GOLDEN_HELP = {
        "eval": f"""\
usage: gjmsdet eval [-h] --d D --k K
                    [{_METHOD_USAGE}] [--tol TOL]

options:
  -h, --help            show this help message and exit
  --d D                 odd sphere dimension >= 3
  --k K                 order, 1 <= k <= (d-1)/2
  {_METHOD_USAGE}
                        evaluation route (default all)
  --tol TOL             relative quadrature tolerance
""",
        "scan-k": f"""\
usage: gjmsdet scan-k [-h] --d D [{_METHOD_USAGE}]
                      [--tol TOL] [--out OUT] [--svg SVG]

options:
  -h, --help            show this help message and exit
  --d D
  {_METHOD_USAGE}
                        evaluation route (default direct)
  --tol TOL             relative quadrature tolerance
  --out OUT             CSV output path (default stdout)
  --svg SVG             also write an SVG chart here
""",
        "limiting": f"""\
usage: gjmsdet limiting [-h] [--d-min D_MIN] [--d-max D_MAX]
                        [{_METHOD_USAGE}]
                        [--tol TOL] [--out OUT] [--svg SVG]
{_SCAN_OPTIONS}""",
        "paneitz": f"""\
usage: gjmsdet paneitz [-h] [--d-min D_MIN] [--d-max D_MAX]
                       [{_METHOD_USAGE}]
                       [--tol TOL] [--out OUT] [--svg SVG]
{_SCAN_OPTIONS}""",
    }

    @pytest.mark.parametrize("command", GOLDEN_HELP)
    def test_help_is_golden(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (self.GOLDEN_HELP[command], "")

    def test_scans_reexport_the_exact_table(self):
        assert scans.select_methods is exact.select_methods
        assert exact.select_methods("all") is exact.METHODS
        assert exact.select_methods("product") == ("product_rule",)
        assert exact.select_methods("product_rule") == ("product_rule",)

    @pytest.mark.parametrize("selector", ["bogus", "Product", ["all"]])
    def test_unknown_selector_lists_every_spelling(self, selector):
        with pytest.raises(ParameterError) as exc_info:
            exact.select_methods(selector)
        assert str(exc_info.value) == (
            f"unknown method {selector!r}; expected one of "
            "direct, sum, chebyshev, product_rule, product, all"
        )


class TestNonIntegerDimension:
    """A scan refuses a dimension that is not an int with the ParameterError
    SpherePoint raises, and keeps its own messages for the rejections it
    made before checking the type."""

    @pytest.mark.parametrize(
        "scan, args",
        [(scan_k, (35.0,)), (scan_limiting, (3.0, 9)), (scan_paneitz, (5, 9.0)),
         (scan_limiting, (3, float("nan")))],
    )
    def test_rejected_as_parameter_error(self, scan, args):
        with pytest.raises(ParameterError, match="^d must be an integer$"):
            scan(*args)

    @pytest.mark.parametrize(
        "scan, args, message",
        [(scan_limiting, (4.0, 9), "d must be odd and >= 3"),
         (scan_limiting, (3, 2.5), "need 3 <= d_min <= d_max"),
         (scan_paneitz, (3.0, 9), "k = 2 needs d >= 5"),
         (scan_k, (2,), "d must be odd and >= 3")],
    )
    def test_earlier_rejections_keep_their_message(self, scan, args, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            scan(*args)


class TestNumpyIntegerDimension:
    """A scan takes numpy integers, such as the items of np.arange, and
    gives the rows it gives for the equal ints."""

    @pytest.mark.parametrize(
        "scan, args",
        [(scan_k, (35,)), (scan_limiting, (3, 9)), (scan_paneitz, (5, 9))],
    )
    def test_same_rows_as_plain_ints(self, scan, args):
        rows = scan(*(np.int64(v) for v in args), "all")
        assert rows == scan(*args, "all")
        assert all(type(r.d) is int and type(r.k) is int for r in rows)

    def test_dimensions_from_arange(self):
        for d in np.arange(3, 12, 2):
            assert format_csv(scan_k(d)) == format_csv(scan_k(int(d)))
