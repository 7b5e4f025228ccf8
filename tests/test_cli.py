"""Command-line driver: exit codes, report shape, determinism."""

import json
import resource
import subprocess
import sys

import pytest

from formring import (GradedQuotientRing, Ideal, KoszulComplexSpec, PolyRing,
                      SizeLimitError, koszul)
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

    def test_tight_options_and_h0_past_the_window_exit_zero(self, capsys,
                                                            monkeypatch):
        # a tight tmax and margin on a cone that is not monomial change no
        # entry: every entry is read at T(n), so the table is the default
        # configuration's, H^1_{-3} = 1 included
        cone = ("char 32003; vars x, y, z;"
                " ideal I = x^2 + 2*x*y + y^2, x*y + y^2;")
        dims = []
        for options in (" tmax=3 margin=2", ""):
            code, out, _ = run_cli(
                capsys, ["-"], stdin_text=cone + f" table I window=-3..1"
                                                 f"{options};",
                monkeypatch=monkeypatch)
            assert code == 0
            (entry,) = json.loads(out)["results"]
            assert (entry["status"], entry["data"]["unstable"]) == ("ok", [])
            dims.append(entry["data"]["dims"])
        assert dims[0] == dims[1]
        assert [1, -3, 1] in dims[0]
        # the thick line's H^0 lives in degrees 2 and 3, past this window's
        # right edge: row 0 is read over its caps' degrees, not the window
        text = ("char 32003; vars x, y; ideal T = x^3, x^2*y^2;"
                " cor41 T window=-1..2;")
        code, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 0
        (entry,) = json.loads(out)["results"]
        assert entry["status"] == "ok"
        length_0 = entry["data"]["length_0"]
        assert length_0["status"] == "satisfied"
        assert (length_0["data"]["length_graded"],
                length_0["data"]["length_filtered"]) == (2, 2)

    def test_default_config_settles_the_same_cone(self, capsys, monkeypatch):
        text = ("char 32003; vars x, y, z;"
                " ideal I = x^2 + 2*x*y + y^2, x*y + y^2; table I;")
        code, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 0
        (entry,) = json.loads(out)["results"]
        assert entry["status"] == "ok"
        assert entry["data"]["unstable"] == []

    def test_monomial_cone_is_exact_under_a_tight_tmax(self, capsys,
                                                       monkeypatch):
        # T(-6) = 6 > t_max 3 on (x*y), yet every entry is read at T(n):
        # these are the default configuration's values
        text = ("char 32003; vars x, y, z; ideal S = x*y;"
                " table S window=-6..-4 tmax=3 margin=1;")
        code, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 0
        (entry,) = json.loads(out)["results"]
        assert entry["status"] == "ok"
        assert entry["data"]["nonzero"] == [[2, -6, 11], [2, -5, 9],
                                            [2, -4, 7]]
        assert entry["data"]["unstable"] == []

    def test_saturation_cap_is_guard_two(self, capsys, monkeypatch):
        # M^51 is the least power of M that kills the torsion of (x^51): an
        # annihilating exponent one past the cap
        text = "char 7; vars x; ideal I = x^51; localh0 I;"
        code, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 2
        (entry,) = json.loads(out)["results"]
        assert entry["status"] == "guard"
        assert entry["data"]["kind"] == "SaturationLimitError"
        assert entry["window"] is None

    def test_negative_row_bound_rejected_before_cone(self, capsys,
                                                     monkeypatch):
        def no_cone(ideal):
            raise AssertionError("cone built for a negative row bound")

        monkeypatch.setattr("formring.cli.initial_forms_ideal", no_cone)
        text = ("char 7; vars x,y; ideal I = x^2, x*y;"
                " synthetic_table T = {(1,2): 10};"
                " gap I t=-1; diag I t=-1; gap T t=-1; diag T t=-1;")
        code, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 1
        results = json.loads(out)["results"]
        assert [r["status"] for r in results] == ["error"] * 4
        assert {r["data"]["message"] for r in results} == {
            "row bound t=-1 is negative"}
        assert all(r["window"] is None for r in results)

    def test_negative_imax_is_error(self, capsys, monkeypatch):
        text = "char 7; vars x, y; ideal I = x*y; table I imax=-1;"
        code, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 1
        (entry,) = json.loads(out)["results"]
        assert entry["status"] == "error"
        assert entry["data"] == {"kind": "ValueError",
                                 "message": "i_max must be >= 0"}

    def test_char_after_vars_is_parse_error(self, capsys, monkeypatch):
        text = "vars x, y; char 7; ideal I = x^2, y; table I;"
        code, out, err = run_cli(capsys, ["-"], text, monkeypatch)
        assert (code, out) == (1, "")
        assert err == ("<stdin>:1:12: error: characteristic must be "
                       "declared before vars\n")

    def test_usage_error_bad_window(self, capsys):
        code, _, err = run_cli(capsys, ["--window", "apples", "-"])
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("flag", [["--tmax", "5"], ["--margin", "1"]])
    def test_removed_power_flags_are_usage_errors(self, capsys, flag):
        code, out, err = run_cli(capsys, [*flag, "-"])
        assert (code, out) == (1, "")
        assert err.startswith("error: unrecognized arguments")

    def test_config_echoes_the_flags_there_are(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["-"], stdin_text=FAMILY,
                               monkeypatch=monkeypatch)
        assert code == 0
        assert sorted(json.loads(out)["config"]) == [
            "char", "format", "timing", "window"]

    def test_usage_error_composite_char(self, capsys):
        code, _, err = run_cli(capsys, ["--char", "6", "-"])
        assert code == 1
        assert "not prime" in err

    def test_non_ascii_input_is_parse_error(self, capsys, monkeypatch):
        for text in ("char \u00b2;", "char 7; vars x; ideal I = x^\u00b9;",
                     "char 7; vars x\u2081;"):
            code, out, err = run_cli(capsys, ["-"], text, monkeypatch)
            assert (code, out) == (1, "")
            assert "unexpected character" in err

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


    def test_default_t_max_settles_the_command_window(self, capsys,
                                                       monkeypatch):
        # a window below the default one: T(-8) = 17 on the r = 7 cone is
        # above the default t_max 12, but each entry is read at its T(n)
        text = ("char 32003; vars x, y, z;"
                " ideal F = x^2, x*y, x*z - y^r, y^(r+1), x*z^2;"
                " table F r=7 imax=1 window=-8..-5;")
        code, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 0
        (entry,) = json.loads(out)["results"]
        assert entry["status"] == "ok"
        assert entry["data"]["unstable"] == []
        assert entry["data"]["nonzero"] == [[1, n, 7] for n in range(-8, -4)]

    def test_explicit_tmax_is_not_raised(self, capsys, monkeypatch):
        text = ("char 32003; vars x, y, z;"
                " ideal F = x^2, x*y, x*z - y^r, y^(r+1), x*z^2;"
                " stuckrad F r=7 window=-8..-5 tmax=15;")
        _, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        (entry,) = json.loads(out)["results"]
        assert entry["data"]["scope"]["t_max"] == 15


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

    def test_range_at_cap_runs_every_value(self, capsys, monkeypatch):
        monkeypatch.setattr("formring.cli.MAX_R_VALUES", 3)
        text = "char 7; vars x,y; ideal F = x^r, y; tangent_cone F r=2..4;"
        code, out, _ = run_cli(capsys, ["-"], text, monkeypatch)
        assert code == 0
        assert [r["command"] for r in json.loads(out)["results"]] == [
            "tangent_cone F r=2", "tangent_cone F r=3", "tangent_cone F r=4"]

    def test_range_over_cap_is_one_guard(self, capsys, monkeypatch):
        def no_cone(ideal):
            raise AssertionError("an instance ran for a range over the cap")

        monkeypatch.setattr("formring.cli.initial_forms_ideal", no_cone)
        monkeypatch.setattr("formring.cli.MAX_R_VALUES", 3)
        text = "char 7; vars x,y; ideal F = x^r, y; tangent_cone F r=2..5;"
        code, out, _ = run_cli(capsys, ["-"], text, monkeypatch)
        assert code == 2
        (guard,) = json.loads(out)["results"]
        assert guard == {
            "command": "tangent_cone F r=2..5", "status": "guard",
            "data": {"kind": "RangeLimitError",
                     "message": "r=2..5 has 4 values, more than the cap "
                                "of 3"},
            "witnesses": [], "window": None, "timing_ms": 0}

    def test_dense_matrix_over_size_cap_is_guard(self):
        # a non-monomial cone in five variables: read at T(n), one of its
        # open entries would eliminate a 4300 x 710 differential
        proc = subprocess.run(
            [sys.executable, "-m", "formring.cli", "-"],
            input="char 32003; vars x, y, z, w, v;"
                  " ideal Q = x*y + y^2, x^2 - y^2; table Q;",
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2
        (entry,) = json.loads(proc.stdout)["results"]
        assert entry["status"] == "guard"
        assert entry["data"]["kind"] == "SizeLimitError"
        assert entry["data"]["message"].startswith(
            "a 4300 x 710 Koszul differential")

    def test_degree_over_monomial_cap_is_guard(self):
        # t=400 puts the cochains of degree 2 in ring degree 800, with
        # C(803, 3) monomials; the child's address space is capped (it loads
        # no numpy), so an unguarded listing ends in MemoryError, not in the
        # machine's memory
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "formring.cli", "-"],
            input="char 32003; vars x, y, z, w; ideal S = x*y;"
                  " koszul S i=2 n=0 t=400;",
            capture_output=True, text=True, timeout=30,
            preexec_fn=cap_memory)
        assert proc.returncode == 2
        (entry,) = json.loads(proc.stdout)["results"]
        assert entry["status"] == "guard"
        assert entry["data"] == {
            "kind": "SizeLimitError",
            "message": "degree 800 in 4 variables has more than 1000000 "
                       "monomials"}

    def test_huge_range_ends_in_guard(self):
        # a subprocess with a timeout: a range that runs every instance
        # (3,000 of them here) fails instead of hanging the suite
        proc = subprocess.run(
            [sys.executable, "-m", "formring.cli", "-"],
            input="char 7; vars x,y; ideal F = x^r, y;"
                  " tangent_cone F r=1..3000;",
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2
        (entry,) = json.loads(proc.stdout)["results"]
        assert entry["status"] == "guard"
        assert entry["data"]["message"] == (
            "r=1..3000 has 3000 values, more than the cap of 64")

    def test_check_prefix_echoed_not_semantic(self, capsys, monkeypatch):
        # the command is echoed as written, and `check` is not a statement
        text = ("char 32003; vars x,y;"
                " ideal I = x^2, x*y;"
                " stuckrad I;")
        code, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 0
        (entry,) = json.loads(out)["results"]
        assert entry["command"] == "stuckrad I"
        assert entry["status"] == "satisfied"
        code, out, err = run_cli(capsys, ["-"], monkeypatch=monkeypatch,
                                 stdin_text=text.replace("stuckrad",
                                                         "check stuckrad"))
        assert (code, out) == (1, "")
        assert err == ("<stdin>:1:43: error: unknown statement or command "
                       "'check'\n")


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

    def test_koszul_piece_of_a_monomial_cone_reads_its_blocks(
            self, capsys, monkeypatch):
        # d: [K^3]_-14 -> [K^4]_-14 is 680 x 480, over MAX_DENSE_CELLS, so a
        # dense read of the dimension would end in guard; an index outside
        # [0, 4] stays an error
        text = ("char 32003; vars x, y, z, w; ideal F = x^20;"
                " koszul F i=4 n=-14 t=7; koszul F i=5 n=0;")
        code, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 1
        piece, bad = json.loads(out)["results"]
        assert piece["status"] == "ok"
        assert (piece["data"]["dim"], piece["data"]["cochain_dim"]) == (
            206, 680)
        assert bad["status"] == "error"
        assert bad["data"] == {"kind": "FormringError",
                               "message": "cohomology index 5 outside [0, 4]"}
        R = PolyRing(tuple("xyzw"), 32003)
        G = GradedQuotientRing(Ideal(R, [R.gens()[0] ** 20]))
        with pytest.raises(SizeLimitError, match="680 x 480"):
            koszul._dense_representatives(KoszulComplexSpec(G, 7), 4, -14)

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


WIDE_DECLARATIONS = [
    "char 32003;",
    "vars x, y, z;",
    "ideal F = x^2, x*y, x*z - 3*y^r, y^(r+1), x*z^2;",
    "ideal L = x^2, x*y, z;",
    "ideal S = x*y;",
    "ideal Q = x*y - z^2;",
    "ideal U = x - 1, y;",
    "synthetic_table T = {(0, 1): 1, (0, 3): 1, (1, -2): 3, (1, 0): 2};",
]

# every verb; F r=3 at several windows and powers, before and after its
# cone and ring exist; an `r` range; an ideal outside m; a negative `t`
WIDE_COMMANDS = [
    "localh0 F r=3;",
    "tangent_cone F r=3..4;",
    "koszul F r=3 i=1 n=0;",
    "table F r=3 imax=1 window=0..3 tmax=6;",
    "stuckrad F r=3 window=-2..3 tmax=6;",
    "quasibuchsbaum F r=3 window=-2..3 tmax=6;",
    "table F r=3 imax=1 window=-3..1 tmax=8;",
    "gap F r=3 t=2 window=-1..2;",
    "diag F r=3 t=-1;",
    "cor41 F r=3..4;",
    "localh0 F r=4;",
    "gap T t=2;",
    "diag T t=2;",
    "cor41 L window=-2..2 tmax=6;",
    "localh0 U;",
    "table U;",
    "table S window=-6..-4;",
    "stuckrad S;",
    "diag S t=2;",
    "cor41 S;",
    "koszul Q i=1 n=1 t=2;",
    "cor41 Q window=-2..2;",
    "table Q;",
]


def session_results(capsys, monkeypatch, flags, commands):
    text = "\n".join(WIDE_DECLARATIONS + commands) + "\n"
    _, out, _ = run_cli(capsys, ["-", *flags], stdin_text=text,
                        monkeypatch=monkeypatch)
    return json.loads(out)["results"]


class TestSessionReuse:
    """Each (ideal, r) is built once per session and shared by its commands;
    a command's result must not depend on what ran before it."""

    @pytest.mark.parametrize("flags", [[], ["--window=0..1"],
                                       ["--window=-3..2"]])
    def test_each_command_as_in_a_fresh_session(self, capsys, monkeypatch,
                                                flags):
        wide = session_results(capsys, monkeypatch, flags, WIDE_COMMANDS)
        statuses = {entry["status"] for entry in wide}
        assert {"ok", "error"} <= statuses
        rest = wide
        for command in WIDE_COMMANDS:
            alone = session_results(capsys, monkeypatch, flags, [command])
            assert rest[:len(alone)] == alone, command
            rest = rest[len(alone):]
        assert rest == []

    def test_rings_and_cones_built_once(self, capsys, monkeypatch):
        from formring import PolyRing, groebner
        from formring.graded import GradedQuotientRing

        # the session of the benchmark's `session` workload, at p = 32003
        text = "\n".join([
            "char 32003;",
            "vars x, y, z;",
            "ideal F = x^2, x*y, x*z - 3*y^r, y^(r+1), x*z^2;",
            "ideal L = x^2, x*y, z;",
            "ideal N = x^2 - 5*y^3, z;",
            "synthetic_table T = {(0, 1): 1, (0, 3): 1, (1, -2): 3, "
            "(1, 0): 2};",
            "tangent_cone F r=3..5;",
            "localh0 F r=3;",
            "koszul F r=3 i=1 n=0;",
            "table F r=3 imax=1 window=0..3 tmax=6;",
            "stuckrad F r=3 window=-2..3 tmax=6;",
            "quasibuchsbaum F r=3 window=-2..3 tmax=6;",
            "gap T t=2;",
            "diag T t=2;",
            "cor41 L window=-2..2 tmax=6;",
            "cor41 N window=-2..2 tmax=6;",
        ])
        R = PolyRing(("x", "y", "z"), 32003)
        x, y, z = R.gens()
        ext = R.extended()
        homogenized_f3 = [groebner._homogenize(g, ext) for g in
                          (x**2, x * y, x * z - 3 * y**3, y**4, x * z**2)]
        counts = {"rings": 0, "f3_cone": 0}
        init, buchberger = GradedQuotientRing.__init__, groebner.buchberger

        def counting_init(self, ideal):
            counts["rings"] += 1
            init(self, ideal)

        def counting_buchberger(generators, order=None):
            if order == groebner.ELIM_LAST and \
                    list(generators) == homogenized_f3:
                counts["f3_cone"] += 1
            return buchberger(generators, order)

        monkeypatch.setattr(GradedQuotientRing, "__init__", counting_init)
        monkeypatch.setattr(groebner, "buchberger", counting_buchberger)
        code, out, _ = run_cli(capsys, ["-"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 0, out
        # one ring each for F r=3, L and N; one cone computation for F r=3
        assert counts == {"rings": 3, "f3_cone": 1}

    def test_h0_report_computed_once(self, capsys, monkeypatch):
        from formring import descent

        commands = ["localh0 F r=3;", "cor41 F r=3;",
                    "cor41 F r=3 window=-2..2;"]
        alone = [entry for command in commands
                 for entry in session_results(capsys, monkeypatch, [],
                                              [command])]
        calls = []
        torsion_ideal = descent._torsion_ideal

        def counting_torsion_ideal(ideal):
            calls.append(ideal)
            return torsion_ideal(ideal)

        monkeypatch.setattr(descent, "_torsion_ideal", counting_torsion_ideal)
        shared = session_results(capsys, monkeypatch, [], commands)
        assert len(calls) == 1
        assert shared == alone


class TestCharacteristicBound:
    """A characteristic at or above 2**30 is refused before any primality
    test; the subprocess timeout turns a trial division that runs for
    minutes into a failure."""

    def run(self, args, stdin_text):
        return subprocess.run(
            [sys.executable, "-m", "formring.cli", *args, "-"],
            input=stdin_text, capture_output=True, text=True, timeout=10)

    def test_huge_char_statement(self):
        proc = self.run([], "char 2305843009213693951; vars x;")
        assert proc.returncode == 1
        assert proc.stderr == ("<stdin>:1:1: error: 2305843009213693951 is "
                               "not below 2**30, the bound for exact int64 "
                               "arithmetic\n")

    def test_huge_char_flag(self):
        proc = self.run(["--char", "2305843009213693951"], "vars x;")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: --char 2305843009213693951 is "
                                      "not below 2**30")

    def test_prime_char_above_bound_is_parse_error(self):
        proc = self.run([], "char 1073741827; vars x; ideal I = x^2; table I;")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("<stdin>:1:1: error: 1073741827 is not "
                                      "below 2**30")


class TestStartup:
    # a fresh process: numpy loads with the first matrix, not at import, so
    # a verdict that builds no matrix never loads it
    PROBE = """
import sys
import formring, formring.cli
from formring import Ideal, PolyRing, StabilizationConfig, descent_verdict
seen = ["numpy" in sys.modules]
R = PolyRing(("x", "y", "z"), 32003)
x, y, z = R.gens()
cfg = StabilizationConfig(n_lo=-3, n_hi=1, t_max=5)
l1, l2 = 3 * x + 5 * y + 7 * z, 2 * x + 11 * y + 13 * z
for gens in ([x * y], [l1 * l2], [x**2, x * y, x * z - y**3, y**4, x * z**2]):
    descent_verdict(Ideal(R, gens), cfg=cfg)
    seen.append("numpy" in sys.modules)
print(seen)
"""

    def test_numpy_loads_at_the_first_matrix(self):
        proc = subprocess.run([sys.executable, "-c", self.PROBE],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        # import, x*y, generic l1*l2, then A_3, whose blocks are ranked
        assert proc.stdout == "[False, False, False, True]\n"
