import json

import pytest

from juliareal.cli import main
from juliareal.cubic_region import region_scan


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestClassify:
    def test_chebyshev_cubic(self, capsys):
        code, out = run(capsys, "classify", "--poly", "[0,3,0,-1]")
        assert code == 0
        payload = json.loads(out)
        assert payload["julia_real"] is True
        assert abs(payload["interval"]["hi"] - 2) < 1e-9

    def test_odd_map_fixing_zero(self, capsys):
        # f(0) = 0: the fixed point 0 of f o f comes back as 4.4e-106, which
        # the residual bound of the f o f solve must accept
        code, out = run(capsys, "classify", "--poly",
                        "[0, 2.9935159109902654, 0, -0.9978386369967551]")
        assert code == 0
        assert json.loads(out)["branch"] == "odd-negative"

    def test_bad_poly_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--poly", "not json"])
        assert exc.value.code == 2

    def test_rational_string_coefficients(self, capsys):
        code, out = run(capsys, "classify", "--poly", '["-5/2",0,1.0]')
        assert code == 0
        assert json.loads(out)["julia_real"] is True

    def test_degree_failure_exit_1(self, capsys):
        code, _ = run(capsys, "classify", "--poly", "[1,2]")
        assert code == 1

    def test_out_file_has_header(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _ = run(capsys, "classify", "--poly", "[-2,0,1]", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.startswith("// juliareal")
        assert json.loads("\n".join(text.splitlines()[1:]))["julia_real"]


class TestRegion:
    def test_small_scan(self, tmp_path, capsys):
        out = tmp_path / "region.csv"
        code, printed = run(capsys, "region", "--a-range=-4:-3",
                            "--b-range=-0.5:0.5", "--step", "0.25",
                            "--out", str(out))
        assert code == 0
        summary = json.loads(printed)
        assert summary["cells"] == 5 * 5
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "A,B,analytic,classifier,agree,boundary_distance"
        assert len(lines) == 2 + 25

    def test_pgm_output(self, tmp_path, capsys):
        csvp = tmp_path / "r.csv"
        pgmp = tmp_path / "r.pgm"
        code, _ = run(capsys, "region", "--a-range=-4:-3",
                      "--b-range=0:0.5", "--step", "0.5",
                      "--out", str(csvp), "--pgm", str(pgmp))
        assert code == 0
        data = pgmp.read_bytes()
        assert data.startswith(b"P5\n")

    def test_determinism(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["region", "--a-range=-4:-3.5", "--b-range=0:0.5",
                "--step", "0.25"]
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        strip = lambda p: "\n".join(p.read_text().splitlines()[1:])
        assert strip(a) == strip(b)

    @pytest.mark.parametrize("a_range, b_range", [((1.0, -1.0), (0.0, 1.0)),
                                                  ((-1.0, 1.0), (1.0, 0.0))])
    def test_reversed_range_rejected(self, a_range, b_range):
        with pytest.raises(ValueError):
            region_scan(a_range, b_range, 0.5)


class TestJulia:
    def test_render(self, tmp_path, capsys):
        out = tmp_path / "j.pgm"
        code, printed = run(capsys, "julia", "--poly", "[-2,0,1]",
                            "--resolution", "64x33", "--out", str(out))
        assert code == 0
        info = json.loads(printed)
        assert info["width"] == 64 and info["not_escaped"] > 0
        data = out.read_bytes()
        assert data.startswith(b"P5\n")
        assert data.endswith(bytes(64 * 33)[:0] + data[-64 * 33:])
        assert len(data.split(b"\n255\n", 1)[1]) == 64 * 33


class TestEquidist:
    def test_report_and_csv(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code, printed = run(capsys, "equidist", "--poly", "[-2,0,1]",
                            "--alpha", "1/3", "--depth", "5",
                            "--compare-depth", "7", "--out", str(out))
        assert code == 0
        payload = json.loads(printed)
        assert payload["points"] == 32
        assert payload["max_imag"] <= 1e-9
        assert 0 <= payload["ks_distance"] <= 1
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "re,im,weight"
        assert len(lines) == 2 + 32

    def test_exceptional_alpha_refused(self, capsys):
        # X^2 has the single preimage 0 over 0; certify refuses it alike
        argv = ["--poly", "[0,0,1]", "--alpha", "0"]
        assert main(["equidist", *argv, "--depth", "4"]) == 1
        err = capsys.readouterr().err
        assert "is the single point 0/1" in err
        assert main(["certify", *argv]) == 1
        assert capsys.readouterr().err == err

    def test_compare_depth_zero(self, capsys):
        # level 0 is the single point alpha
        code, printed = run(capsys, "equidist", "--poly", "[-2,0,1]",
                            "--alpha", "1/3", "--depth", "3", "--compare-depth", "0")
        assert code == 0
        assert 0 < json.loads(printed)["ks_distance"] <= 1


class TestHeights:
    def test_report(self, capsys):
        code, printed = run(capsys, "heights", "--poly", "[-2,0,1]",
                            "--x", "1/3", "--depth", "8")
        assert code == 0
        payload = json.loads(printed)
        assert payload["residual"] <= 1e-12
        assert payload["estimate"] > 0


class TestLattes:
    def test_analysis(self, capsys):
        code, printed = run(capsys, "lattes", "--curve", "0,0,-2")
        assert code == 0
        payload = json.loads(printed)
        assert payload["disc"] == "-108"
        assert payload["surjectivity"]["surjective"] is True

    def test_singular_curve_fails(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lattes", "--curve", "0,0,0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "singular curve: disc(F) = 0" in err
        assert "invalid" not in err
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--curve", "0,-3,2", "--alpha", "1/2"])
        assert exc.value.code == 2
        assert "disc(F) = 0" in capsys.readouterr().err


class TestCertify:
    def test_poly_route(self, capsys):
        code, printed = run(capsys, "certify", "--poly", "[0,-1,0,1]",
                            "--alpha", "1/2")
        assert code == 0
        assert json.loads(printed)["verdict"] == "certified"

    def test_cubic_at_the_region_corner(self, capsys):
        # x^3 - 3x + 10^-9: A = -3 and B^2 = 10^-18, just outside the region
        code, printed = run(capsys, "certify", "--poly", '["1/1000000000",-3,0,1]',
                            "--alpha", "1/2")
        assert code == 0
        check = json.loads(printed)["checks"]["julia_nonreal"]
        assert check["pass"] and "A = -3 <= -3 and B^2 > -4A(A+3)^2/27" in check["reason"]

    def test_curve_route(self, capsys):
        code, printed = run(capsys, "certify", "--curve", "0,0,-2",
                            "--alpha", "1/3")
        assert code == 0
        assert json.loads(printed)["verdict"] == "certified"

    def test_exceptional_alpha_refused(self, capsys):
        # f + 4 = (X + 1)^3 / 3 has the single preimage -1
        code = main(["certify", "--poly", '["-11/3",1,1,"1/3"]', "--alpha", "-4"])
        assert code == 1
        assert "is the single point -1/1" in capsys.readouterr().err

    def test_alpha_past_the_float_range(self, capsys):
        code, printed = run(capsys, "certify", "--poly", '[0,"-1/2",0,1]',
                            "--alpha", str(10**400))
        assert code == 0
        reason = json.loads(printed)["checks"]["nonperiodic"]["reason"]
        assert reason == "escape: |f^1(alpha)| = 1e+1200 exceeds escape radius 2.5"

    def test_height_past_the_str_limit(self, capsys):
        code, printed = run(capsys, "certify", "--curve", "0,0,-2",
                            "--alpha", f"1/{10**1100}")
        assert code == 0
        assert json.loads(printed)["verdict"] == "certified"

    def test_missing_target(self, capsys):
        code, _ = run(capsys, "certify", "--alpha", "1/2")
        assert code == 2


class TestMalformedNumbers:
    @pytest.mark.parametrize("argv", [
        ["julia", "--poly", "[-2,0,1]", "--resolution", "abc"],
        ["julia", "--poly", "[-2,0,1]", "--resolution", "0x5"],
        ["julia", "--poly", "[-2,0,1]", "--max-iter", "0"],
        ["region", "--step", "0"],
        ["equidist", "--poly", "[-2,0,1]", "--alpha", "1/3", "--depth", "-1"],
        ["equidist", "--poly", "[-2,0,1]", "--alpha", "1/3", "--compare-depth", "-2"],
        ["heights", "--poly", "[-2,0,1]", "--x", "1/3", "--depth", "0"],
        ["classify", "--poly", "[NaN,0,1]"],
        ["classify", "--poly", "[1,0,Infinity]"],
        ["classify", "--poly", "[-Infinity,0,1]"],
        ["classify", "--poly", "[1,0,1e400]"],
        ["region", "--a-range=1:-1", "--b-range=0:1"],
        ["region", "--a-range=-1:1", "--b-range=1:0"],
        ["region", "--a-range=-inf:1"],
        ["classify", "--poly", "[null,0,1]"],
        ["classify", "--poly", "[[1],0,1]"],
        ["classify", "--poly", "[{},0,1]"],
        ["classify", "--poly", '["1/0",0,1]'],
        ["classify", "--poly", '["one",0,1]'],
        ["classify", "--poly", "[true,0,1]"],
        ["classify", "--poly", "[1,0,1" + "0" * 400 + "]"],
        ["classify", "--poly", '["1e400",0,1]'],
        ["classify", "--poly", '["' + "1" * 400 + '/3",0,1]'],
        ["equidist", "--poly", "[-2,0,1]", "--alpha", "1e400"],
    ])
    def test_usage_error_exit_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "expected" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_no_command_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
