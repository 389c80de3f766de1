"""CLI behaviour: output formats, exit codes, CSV round trips, SVG validity."""

import math
import sys
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gjmsdet import (
    MethodDisagreementError,
    ParameterError,
    ScanRow,
    SpherePoint,
    UnsupportedArgumentError,
    cli,
    exact,
    read_csv,
    scans,
    v_coefficients,
)
from gjmsdet.cli import main
from gjmsdet.scans import (
    check_method_agreement,
    format_csv,
    parse_csv,
    scan_k,
    scan_limiting,
    scan_paneitz,
    write_csv,
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

    @pytest.mark.parametrize(
        "d", [2**53 + 1, 2**63 + 1, 10**20 + 1, 10**400 + 1],
        ids=["2^53+1", "2^63+1", "10^20+1", "10^400+1"],
    )
    def test_dimension_past_exact_rows_is_usage_error(self, d, capsys):
        # the rows p = d + 1 would round in binary64
        code, out, err = run(["eval", "--d", str(d), "--k", "1"], capsys)
        assert code == 2
        assert out == ""
        assert f"d = {d} is past 2^53 - 1" in err

    def test_last_exact_dimension_evaluates(self, capsys):
        code, out, _ = run(["eval", "--d", str(2**53 - 1), "--k", "1"], capsys)
        assert code == 0
        assert out.split("\n")[0] == f"d={2**53 - 1} k=1"

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

    def test_budget_failure_names_route_and_point(self, capsys):
        # the best value is log det P_20(21), not the row integral, 2^20 times it
        code, out, err = run(["eval", "--d", "21", "--k", "10", "--tol", "1e-15"], capsys)
        assert code == 3
        assert out == ""
        assert "direct at d=21, k=10: panel budget exhausted" in err
        assert abs(float(err.split("best value ")[1].split()[0]) - 0.0401571) <= 1e-6

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

    def test_product_rule_round_off_floor_is_usage_error(self, capsys):
        # its weights cancel past what binary64 resolves: refused before integrating
        code, out, err = run(
            ["eval", "--d", "301", "--k", "150", "--method", "product"], capsys
        )
        assert code == 2
        assert out == ""
        assert "product_rule at d=301, k=150" in err and "floor" in err

    def test_method_all_stops_on_the_product_rule_refusal(self, capsys):
        # at the default --tol from d = 91 on the diagonal, and not at d = 89
        assert run(["eval", "--d", "89", "--k", "44"], capsys)[0] == 0
        code, out, err = run(["eval", "--d", "91", "--k", "45"], capsys)
        assert (code, out) == (2, "")
        assert "product_rule at d=91, k=45" in err

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

    def test_power_past_the_digit_limit_is_a_usage_error(self, capsys):
        # at the default limit of 4300 digits the first such k is 10294 (a
        # 32 MB line); the lowest limit, 640 digits, is passed from k ~ 1540
        k = 2000
        first = next(j for j, v in enumerate(v_coefficients(k).v) if v >= 10**640)
        expected = run(["rules", "--k", "511"], capsys)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert run(["rules", "--k", "511"], capsys) == expected
            code, out, err = run(["rules", "--k", str(k)], capsys)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: power v_{first}(k) at k = {k} has more than ")
        assert "limit of 640 digits" in err
        assert "PYTHONINTMAXSTRDIGITS or sys.set_int_max_str_digits" in err

    @pytest.fixture
    def digit_limit(self):
        """``sys.set_int_max_str_digits``, undone after the test."""
        limit = sys.get_int_max_str_digits()
        yield sys.set_int_max_str_digits
        sys.set_int_max_str_digits(limit)

    @pytest.fixture
    def no_powers_kept(self, work):
        """Fail if ``rules`` builds its table of powers, which at k = 10**6
        would hold about 130 GB."""
        work.forbid(cli, "v_coefficients")

    def test_refusal_comes_before_any_power_is_kept(self, capsys, digit_limit, no_powers_kept):
        k = 2000
        first = next(j for j in range(k) if math.comb(k + j, 2 * j + 1) >= 10**640)
        digit_limit(640)
        code, out, err = run(["rules", "--k", str(k)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: power v_{first}(k) at k = {k} has more than ")

    def test_huge_order_is_refused_at_once(self, capsys, digit_limit, no_powers_kept):
        digit_limit(4300)
        start = time.perf_counter()
        code, out, err = run(["rules", "--k", "1000000"], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "limit of 4300 digits" in err

    def test_largest_order_under_the_limit_prints(self, capsys, digit_limit):
        # the largest power of k = 1535 has 640 digits, one of k = 1536 has 641
        assert [len(str(max(v_coefficients(k).v))) for k in (1535, 1536)] == [640, 641]
        digit_limit(640)
        code, out, _ = run(["rules", "--k", "1535"], capsys)
        assert code == 0 and out.count("P_2^") == 1535
        assert run(["rules", "--k", "1536"], capsys)[0] == 2

    def test_no_digit_limit_refuses_nothing(self, capsys, digit_limit):
        digit_limit(0)
        code, out, _ = run(["rules", "--k", "2000"], capsys)
        assert code == 0
        assert out.split()[-1] == "P_2^1(d-3998)" and out.count("P_2^") == 2000


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

    def test_labels_are_escaped(self, tmp_path):
        path = tmp_path / "labels.svg"
        write_svg(str(path), [1, 2], [3, 4], x_label="a<b & c", y_label="x > y & z")
        texts = ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")
        assert [t.text for t in texts][-2:] == ["a<b & c", "x > y & z"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_finite_input_is_a_parameter_error(self, tmp_path, bad, axis):
        path = tmp_path / "bad.svg"
        xs, ys = [1.0, 2.0], [0.5, 1.0]
        (xs if axis == "x" else ys)[0] = bad
        with pytest.raises(ParameterError, match="finite"):
            write_svg(str(path), xs, ys)
        assert not path.exists()

    @pytest.mark.parametrize("xs,ys", [([1.0, 2.0], [0.5]), ([], []), (np.array([]), np.array([]))])
    def test_unequal_or_empty_input_is_a_parameter_error(self, tmp_path, xs, ys):
        path = tmp_path / "bad.svg"
        with pytest.raises(ParameterError, match="equal-length and non-empty"):
            write_svg(str(path), xs, ys)
        assert not path.exists()

    # ["a", "b"] once raised a raw TypeError, None and a generator a TypeError from len()
    @pytest.mark.parametrize("xs,ys", [(["a", "b"], [1.0, 2.0]), (None, [1.0]), ([1.0], None),
                                       ((x for x in [1.0, 2.0]), [1.0, 2.0])])
    def test_what_is_not_real_numbers_is_a_parameter_error(self, tmp_path, xs, ys):
        path = tmp_path / "kept.svg"
        path.write_bytes(b"12345678")
        with pytest.raises(ParameterError, match="^xs and ys must be sequences of real numbers$"):
            write_svg(str(path), xs, ys)
        assert path.read_bytes() == b"12345678"

    def test_arrays_write_what_lists_write(self, tmp_path):
        # an array once failed the emptiness test with a raw ValueError
        xs, ys = [1, 2, 3], [0.5, -0.25, 0.125]
        write_svg(str(tmp_path / "list.svg"), xs, ys)
        write_svg(str(tmp_path / "array.svg"), np.array(xs), np.array(ys))
        assert (tmp_path / "array.svg").read_bytes() == (tmp_path / "list.svg").read_bytes()

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

    # [1] once raised a raw AttributeError after emptying the file, None a TypeError
    @pytest.mark.parametrize("rows", [[1], None, [ScanRow(5, 2, "direct", 0.1, 0.0), "x"]],
                             ids=["int-row", "None", "str-row"])
    def test_write_refuses_what_is_not_rows_and_keeps_the_file(self, rows, tmp_path):
        path = tmp_path / "kept.csv"
        path.write_bytes(b"12345678")
        with pytest.raises(ParameterError, match="^rows? must be an? (ScanRow|Iterable), not "):
            write_csv(str(path), rows)
        assert path.read_bytes() == b"12345678"

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
        # within the fixed spread, and each route within the other's estimate
        rows = [
            ScanRow(5, 2, "direct", 0.1, 1e-10),
            ScanRow(5, 2, "sum", 0.1 + 1e-10, 1e-10),
        ]
        check_method_agreement(rows)

    def test_agreement_guard_trips_beyond_the_summed_estimates(self):
        # within the fixed spread, yet 2.5e6 times the routes' summed estimates
        rows = [ScanRow(5, 2, "direct", 1.0, 1e-16), ScanRow(5, 2, "sum", 1.0 + 5e-10, 1e-16),
                ScanRow(5, 2, "chebyshev", 1.0, 1e-16)]
        with pytest.raises(MethodDisagreementError) as info:
            check_method_agreement(rows)
        exc = info.value
        assert (exc.d, exc.k, exc.by_estimates) == (5, 2, True)
        assert exc.values == (("direct", 1.0), ("sum", 1.0 + 5e-10))
        assert exc.allowed == 2e-16 and exc.spread == (1.0 + 5e-10) - 1.0
        assert f"is {exc.spread / 2e-16:.3g} times the routes' summed estimates" in str(exc)
        assert "direct 1.0, sum 1.0000000005" in str(exc)

    @pytest.mark.parametrize("gap, estimates, trips", [
        (2.0, (0.5, 0.5), True),  # twice the summed estimates
        (1.0, (0.5, 0.5), False),  # exactly the summed estimates
        # 2^-34 + (2^-34 - 2^-87) rounds up to the gap 2^-33, which the
        # exact sum stays below
        (1.0, (0.5, 0.5 - 2.0**-54), True),
    ])
    def test_agreement_guard_sums_estimates_exactly(self, gap, estimates, trips):
        scale = 2.0**-33
        rows = [ScanRow(5, 2, "direct", 1.0, estimates[0] * scale),
                ScanRow(5, 2, "sum", 1.0 + gap * scale, estimates[1] * scale)]
        if trips:
            with pytest.raises(MethodDisagreementError):
                check_method_agreement(rows)
        else:
            check_method_agreement(rows)

    # ScanRows whose fields format_csv cannot write, or parse_csv read back:
    # "x" once raised a raw ValueError, None a TypeError, and d = 5.5 wrote
    # "5.5,2,..."; [1] raised a raw AttributeError in check_method_agreement
    @pytest.mark.parametrize("row", [
        ScanRow(5, 2, "direct", "x", 0.0),
        ScanRow(5, 2, "direct", None, 0.0),
        ScanRow(5, 2, "direct", 0.1, "0"),
        ScanRow(5, 2, "direct", 0.1, True),
        ScanRow(5, 2, "direct", math.nan, 0.0),
        ScanRow(5, 2, "direct", 0.1, math.inf),
        ScanRow(5, 2, "direct", 10**400, 0.0),
        ScanRow(5.5, 2, "direct", 0.1, 0.0),
        ScanRow(True, 2, "direct", 0.1, 0.0),
        ScanRow(5, "2", "direct", 0.1, 0.0),
        ScanRow(5, 2, None, 0.1, 0.0),
        1,
    ], ids=["value-str", "value-None", "estimate-str", "estimate-bool", "value-nan",
            "estimate-inf", "value-10^400", "d-float", "d-bool", "k-str", "method-None",
            "int"])
    def test_malformed_rows_are_refused_and_keep_the_file(self, row, tmp_path):
        path = tmp_path / "kept.csv"
        path.write_bytes(b"12345678")
        with pytest.raises(ParameterError):
            write_csv(str(path), [ScanRow(5, 2, "direct", 0.1, 0.0), row])
        assert path.read_bytes() == b"12345678"
        with pytest.raises(ParameterError):
            format_csv([row])
        with pytest.raises(ParameterError):
            check_method_agreement([ScanRow(5, 2, "sum", 0.1, 0.0), row])

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


class TestBoundedScans:
    """A scan counts its points before it builds any, and refuses more than
    MAX_SCAN_POINTS with UnsupportedArgumentError, which the CLI maps to
    exit 2."""

    LIMIT = scans.MAX_SCAN_POINTS

    @pytest.mark.parametrize("scan, args", [
        (scan_k, (2 * LIMIT + 1,)),
        (scan_limiting, (3, 2 * LIMIT + 1)),
        (scan_paneitz, (5, 2 * LIMIT + 3)),
    ])
    def test_the_limit_itself_is_scanned(self, scan, args, monkeypatch):
        monkeypatch.setattr(scans, "compute_rows", lambda points, *rest: len(points))
        assert scan(*args) == self.LIMIT

    @pytest.mark.parametrize("scan, args, count", [
        (scan_k, (2 * LIMIT + 3,), LIMIT + 1),
        (scan_limiting, (3, 2 * LIMIT + 3), LIMIT + 1),
        (scan_paneitz, (5, 2 * LIMIT + 5), LIMIT + 1),
        (scan_k, (100000000001,), 50000000000),
        (scan_limiting, (3, 100000000001), 50000000000),
    ])
    def test_past_the_limit_is_refused_before_any_point(self, scan, args, count, monkeypatch):
        built, point = [], scans.SpherePoint
        monkeypatch.setattr(scans, "SpherePoint", lambda d, k: built.append(k) or point(d, k))
        with pytest.raises(UnsupportedArgumentError) as info:
            scan(*args)
        assert str(info.value) == f"scan point count = {count} is past the limit of {self.LIMIT}"
        assert built == ([1] if scan is scan_k else [])  # scan_k checks d with k = 1 first

    def test_a_huge_count_is_named_by_its_size(self):
        with pytest.raises(UnsupportedArgumentError, match="^scan point count of 16609 bits is"):
            scan_k(10**5000 + 1)

    @pytest.mark.parametrize("argv", [
        ["limiting", "--d-min", "3", "--d-max", "100000000001"],  # once a raw MemoryError
        ["scan-k", "--d", "100000000001"],  # once ran until killed
    ])
    def test_cli_exits_2(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == "error: scan point count = 50000000000 is past the limit of 100000\n"

    @pytest.mark.parametrize("points", [[(5, 2)], [SpherePoint(5, 2), None]])
    def test_compute_rows_refuses_what_is_not_a_point(self, points):
        # [(5, 2)] once raised AttributeError from the sort key
        with pytest.raises(ParameterError, match="^point must be a SpherePoint, not "):
            scans.compute_rows(points)
