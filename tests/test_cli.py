"""Command-line driver: exit codes, report shape, determinism."""

import json
import subprocess
import sys

import pytest

from formring.cli import main


FAMILY = ("char 32003; vars x,y,z;"
          " ideal I = x^2, x*y, x*z - y^3, y^4, x*z^2;"
          " tangent_cone I;")


def run_cli(capsys, args, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        import io

        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_session(tmp_path, text):
    path = tmp_path / "session.fr"
    path.write_text(text)
    return str(path)


class TestBasics:
    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, ["--version"])
        assert code == 0
        assert out.startswith("formring ")

    def test_tangent_cone_json(self, tmp_path, capsys):
        path = write_session(tmp_path, FAMILY)
        code, out, err = run_cli(capsys, [path])
        assert code == 0, err
        report = json.loads(out)
        assert report["config"]["char"] == 32003
        (entry,) = report["results"]
        assert entry["command"] == "tangent_cone I"
        assert entry["status"] == "ok"
        assert sorted(entry["data"]["cone_generators"]) == \
            sorted(["x^2", "x*y", "x*z", "y^4", "y^3*z"])
        assert entry["timing_ms"] == 0

    def test_stdin_input(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["-"], stdin_text=FAMILY,
                               monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["results"][0]["status"] == "ok"

    def test_empty_session_ok(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["-"], stdin_text="char 7; vars x;",
                               monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["results"] == []

    def test_text_format(self, tmp_path, capsys):
        path = write_session(tmp_path, FAMILY)
        code, out, _ = run_cli(capsys, [path, "--format", "text"])
        assert code == 0
        assert out.startswith("formring ")
        assert "== tangent_cone I ==" in out
        assert "status: ok" in out


class TestExitCodes:
    def test_parse_error_is_one_with_position(self, tmp_path, capsys):
        path = write_session(tmp_path, "vars x; ideal I = x^2; table I;")
        code, out, err = run_cli(capsys, [path])
        assert code == 1
        assert out == ""
        assert err.startswith(f"{path}:1:")
        assert "characteristic not declared" in err

    def test_command_error_is_one_but_run_continues(self, capsys,
                                                    monkeypatch):
        text = ("char 7; vars x,y; ideal I = x^2, x*y;"
                " koszul I i=5 n=0;"
                " tangent_cone I;")
        code, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 1
        results = json.loads(out)["results"]
        assert [r["status"] for r in results] == ["error", "ok"]
        assert "message" in results[0]["data"]

    def test_inconclusive_is_two(self, capsys, monkeypatch):
        # over-tight stabilization: entry appears on the last transition
        text = ("char 32003; vars x,y; ideal I = ;"
                " table I window=-8..-8 tmax=4;")
        # empty generator list is invalid; declare a zero generator instead
        text = ("char 32003; vars x,y; ideal I = 0;"
                " table I window=-8..-8 tmax=4;")
        code, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 2
        (entry,) = json.loads(out)["results"]
        assert entry["status"] == "inconclusive"
        assert entry["data"]["unstable"] == [[2, -8]]

    def test_saturation_cap_is_guard_two(self, capsys, monkeypatch):
        # saturating (x^51) by (x) takes 51 quotient steps, one past the cap
        text = "char 7; vars x; ideal I = x^51; localh0 I;"
        code, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 2
        (entry,) = json.loads(out)["results"]
        assert entry["status"] == "guard"
        assert entry["data"]["kind"] == "SaturationLimitError"
        assert entry["window"] is None

    def test_usage_error_bad_window(self, capsys):
        code, _, err = run_cli(capsys, ["--window", "apples", "-"])
        assert code == 1
        assert "error" in err

    def test_usage_error_composite_char(self, capsys):
        code, _, err = run_cli(capsys, ["--char", "6", "-"])
        assert code == 1
        assert "not prime" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["/nonexistent/path.fr"])
        assert code == 1
        assert "cannot read" in err


class TestFlagsAsDefaults:
    def test_char_flag_fills_missing_declaration(self, capsys, monkeypatch):
        text = "vars x; ideal I = x^2; localh0 I;"
        code, out, _ = run_cli(capsys, ["-", "--char", "13"],
                               stdin_text=text, monkeypatch=monkeypatch)
        assert code == 0
        report = json.loads(out)
        assert report["config"]["char"] == 13

    def test_file_char_wins_over_flag(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["-", "--char", "13"],
                               stdin_text=FAMILY, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["config"]["char"] == 32003

    def test_window_flag_applies_to_table(self, capsys, monkeypatch):
        text = "char 32003; vars x; ideal I = x^3; table I;"
        code, out, _ = run_cli(capsys, ["-", "--window=-2..4"],
                               stdin_text=text, monkeypatch=monkeypatch)
        assert code == 0
        (entry,) = json.loads(out)["results"]
        assert entry["window"] == [-2, 4]

    def test_command_option_wins_over_flag(self, capsys, monkeypatch):
        text = ("char 32003; vars x; ideal I = x^3;"
                " table I window=-1..3;")
        code, out, _ = run_cli(capsys, ["-", "--window=-5..5"],
                               stdin_text=text, monkeypatch=monkeypatch)
        assert code == 0
        (entry,) = json.loads(out)["results"]
        assert entry["window"] == [-1, 3]


class TestParameterExpansion:
    def test_r_range_materializes_instances(self, capsys, monkeypatch):
        text = ("char 32003; vars x,y,z;"
                " ideal F = x^2, x*y, x*z - y^r, y^(r+1), x*z^2;"
                " tangent_cone F r=3..4;")
        code, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 0
        results = json.loads(out)["results"]
        assert [r["command"] for r in results] == \
            ["tangent_cone F r=3", "tangent_cone F r=4"]
        assert "y^4" in results[0]["data"]["cone_generators"]
        assert "y^5" in results[1]["data"]["cone_generators"]

    def test_check_prefix_echoed_not_semantic(self, capsys, monkeypatch):
        text = ("char 32003; vars x,y;"
                " ideal I = x^2, x*y;"
                " check stuckrad I;")
        code, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 0
        (entry,) = json.loads(out)["results"]
        assert entry["command"].startswith("check stuckrad")
        assert entry["status"] == "satisfied"


class TestReportShapes:
    def test_localh0_report(self, capsys, monkeypatch):
        text = ("char 32003; vars x,y,z;"
                " ideal I = x^2, x*y, x*z - y^3, y^4, x*z^2;"
                " localh0 I;")
        code, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 0
        (entry,) = json.loads(out)["results"]
        data = entry["data"]
        assert data["socle_dim"] == 1
        assert data["torsion_dim"] == 2
        assert data["torsion_dims_by_order"] == {"1": 1, "3": 1}
        assert data["f0_surjective"] is False
        certs = {c["generator"]: c["exponent"] for c in data["certificates"]}
        assert certs == {"x": 2, "y^3": 1}

    def test_synthetic_gap_run(self, capsys, monkeypatch):
        text = ("char 7; vars x;"
                " synthetic_table T = {(1,2): 10, (2,0): 1};"
                " gap T t=5;")
        code, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 0
        (entry,) = json.loads(out)["results"]
        assert entry["status"] == "violated"
        assert entry["data"]["violations"] == [
            {"i": 1, "j": 2, "p": 3, "q": 2, "dim_i": 10, "dim_j": 1}]

    def test_koszul_piece(self, capsys, monkeypatch):
        text = ("char 32003; vars x,y; ideal I = x^2, x*y;"
                " koszul I i=0 n=1;")
        code, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 0
        (entry,) = json.loads(out)["results"]
        assert entry["data"]["dim"] == 1
        assert entry["data"]["cochain_dim"] == 2

    def test_cor41_full_pipeline(self, capsys, monkeypatch):
        text = ("char 32003; vars x,y; ideal I = x^2, x*y; cor41 I;")
        code, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 0
        (entry,) = json.loads(out)["results"]
        data = entry["data"]
        assert data["a_buchsbaum"] == "yes"
        assert data["higher_length_equalities"] == "not checked"
        assert data["dimension"] == 1


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        text = ("char 32003; vars x,y,z;"
                " ideal F = x^2, x*y, x*z - y^r, y^(r+1), x*z^2;"
                " tangent_cone F r=3..4; localh0 F r=3;"
                " synthetic_table T = {(1,2): 10, (2,0): 1}; gap T t=5;")
        path = write_session(tmp_path, text)
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, [path])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_subprocess_entry_point(self, tmp_path):
        path = write_session(tmp_path, FAMILY)
        proc = subprocess.run(
            [sys.executable, "-m", "formring.cli", path],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"][0]["status"] == "ok"
