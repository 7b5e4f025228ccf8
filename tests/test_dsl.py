"""Input-language parser: grammar, diagnostics, templates, round-trips."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from formring import ParseError, PolyRing, parse_session, pretty_print
from formring.dsl import Command, ExponentTemplate, Session, Token, tokenize


FAMILY = ("char 32003; vars x,y,z;"
          " ideal I = x^2, x*y, x*z - y^3, y^4, x*z^2;"
          " cor41 I;")


class TestValidSessions:
    def test_family_session(self):
        s = parse_session(FAMILY)
        assert s.characteristic == 32003
        assert s.variables == ("x", "y", "z")
        assert list(s.ideals) == ["I"]
        cmd = s.commands[0]
        assert (cmd.name, cmd.target) == ("cor41", "I")

    def test_comments_and_whitespace(self):
        s = parse_session("""
            # a synthetic run
            char 5;            # small field
            vars x , y;
            ideal J = x^2 , x*y;   # two generators
            table J imax=1 window=-3..4;
        """)
        assert s.characteristic == 5
        cmd = s.commands[0]
        assert cmd.option("imax") == 1
        assert cmd.option("window") == (-3, 4)

    def test_synthetic_table_declaration(self):
        s = parse_session(
            "char 7; vars x; synthetic_table T = {(1,2): 10, (2,0): 1};"
            " gap T t=5;")
        assert s.tables["T"].entries == {(1, 2): 10, (2, 0): 1}
        assert s.commands[0].option("t") == 5

    def test_parameterized_ideal_with_ranges(self):
        s = parse_session(
            "char 32003; vars x,y,z;"
            " ideal F = x^2, x*y, x*z - y^r, y^(r+1), x*z^2;"
            " cor41 F r=3..5;")
        assert s.ideals["F"].parameterized
        assert s.commands[0].option("r") == (3, 5)

    def test_all_commands_parse(self):
        text = ("char 11; vars x,y;"
                " ideal I = x^2, x*y;"
                " synthetic_table T = {(1,1): 2};"
                " tangent_cone I; table I; koszul I i=0 n=1;"
                " stuckrad I; quasibuchsbaum I; gap T; diag T t=1;"
                " localh0 I; cor41 I;")
        s = parse_session(text)
        names = [c.name for c in s.commands]
        assert names == ["tangent_cone", "table", "koszul", "stuckrad",
                         "quasibuchsbaum", "gap", "diag", "localh0", "cor41"]

    def test_default_characteristic_fills_gap(self):
        s = parse_session("vars x; ideal I = x^2; table I;",
                          default_characteristic=13)
        assert s.characteristic == 13

    def test_explicit_char_overrides_default(self):
        s = parse_session("char 7; vars x; ideal I = x^2; table I;",
                          default_characteristic=13)
        assert s.characteristic == 7

    def test_negative_window_bounds(self):
        s = parse_session("char 7; vars x; ideal I = x^2;"
                          " table I window=-5..-2;")
        assert s.commands[0].option("window") == (-5, -2)


class TestDiagnostics:
    def check_error(self, text, fragment, **kwargs):
        with pytest.raises(ParseError) as err:
            parse_session(text, **kwargs)
        assert fragment in err.value.message
        assert err.value.line >= 1
        assert err.value.col >= 1
        return err.value

    def test_missing_characteristic(self):
        self.check_error("vars x; ideal I = x^2; table I imax=0;",
                         "characteristic not declared")

    def test_characteristic_must_precede_ideals(self):
        self.check_error("vars x; ideal I = x^2; char 7; table I;",
                         "characteristic")

    def test_characteristic_must_precede_vars(self):
        err = self.check_error("vars x, y; char 7; ideal I = x^2, y;"
                               " table I;",
                               "characteristic must be declared before vars")
        assert (err.line, err.col) == (1, 12)
        with pytest.raises(ParseError):
            parse_session("vars x; char 7;", default_characteristic=7)

    def test_vars_before_ideal(self):
        self.check_error("char 7; ideal I = x^2;", "variables")

    def test_composite_characteristic(self):
        self.check_error("char 6; vars x; ideal I = x^2; table I;",
                         "prime")

    def test_duplicate_characteristic(self):
        self.check_error("char 7; char 11; vars x;", "characteristic")

    def test_duplicate_variable(self):
        self.check_error("char 7; vars x, x;", "duplicate")

    def test_unknown_variable_in_polynomial(self):
        self.check_error("char 7; vars x; ideal I = x*w;", "w")

    def test_undeclared_target(self):
        self.check_error("char 7; vars x; table J;", "J")

    def test_duplicate_ideal_name(self):
        self.check_error("char 7; vars x; ideal I = x; ideal I = x^2;",
                         "I")

    def test_table_target_only_for_table_checks(self):
        self.check_error(
            "char 7; vars x; synthetic_table T = {(1,1): 1}; stuckrad T;",
            "T")

    def test_gap_needs_table_or_ideal(self):
        # gap on an ideal is allowed; gap on nothing is not
        self.check_error("char 7; vars x; gap;", "expected")

    def test_r_on_plain_ideal_rejected(self):
        self.check_error("char 7; vars x; ideal I = x^2; table I r=3;",
                         "r")

    def test_parameterized_command_requires_r(self):
        self.check_error("char 7; vars x,y; ideal F = x^r; table F;", "r")

    def test_range_only_for_window_and_r(self):
        self.check_error("char 7; vars x; ideal I = x^2; table I imax=1..2;",
                         "imax")

    def test_duplicate_option(self):
        self.check_error("char 7; vars x; ideal I = x^2; table I tmax=5 tmax=6;",
                         "tmax")

    def test_missing_required_option(self):
        self.check_error("char 7; vars x; ideal I = x^2; koszul I i=0;",
                         "n")

    def test_unknown_option(self):
        self.check_error("char 7; vars x; ideal I = x^2; table I bogus=1;",
                         "bogus")

    def test_negative_table_dim(self):
        self.check_error("char 7; vars x; synthetic_table T = {(1,1): -2};",
                         "dim")

    def test_negative_table_row(self):
        self.check_error("char 7; vars x; synthetic_table T = {(-1,1): 2};",
                         "non-negative")

    def test_missing_semicolon(self):
        self.check_error("char 7; vars x", ";")

    def test_unknown_command(self):
        self.check_error("char 7; vars x; ideal I = x; frobnicate I;",
                         "frobnicate")

    def test_check_prefix_is_unknown(self):
        err = self.check_error("char 7; vars x; ideal I = x^2; check cor41 I;",
                               "unknown statement or command 'check'")
        assert (err.line, err.col) == (1, 32)

    def test_line_and_column_reported(self):
        err = self.check_error("char 7;\n  vars x, x;", "duplicate")
        assert err.line == 2

    def test_exponent_zero_allowed_negative_literal_not(self):
        self.check_error("char 7; vars x; ideal I = x^-2;", "exponent")

    @pytest.mark.parametrize("text, col", [
        ("char \u00b2;", 6),                            # superscript two
        ("char 7; vars x; ideal I = x^\u00b9;", 29),     # superscript one
        ("char 7; vars x\u2081;", 15),                  # subscript one
        ("char 7; vars \u00e9;", 14),                   # e acute
        ("char \u0663;", 6),                            # Arabic-Indic three
    ])
    def test_non_ascii_is_parse_error(self, text, col):
        err = self.check_error(text, "unexpected character")
        assert (err.line, err.col) == (1, col)

    def test_prime_characteristic_above_bound(self):
        err = self.check_error("char 1073741827; vars x;", "2**30")
        assert (err.line, err.col) == (1, 1)

    def test_eof_column_after_trailing_comment(self):
        # one past the comment's end; the character loop reported col 16
        err = self.check_error("char 7; vars x # tail", "end of input")
        assert (err.line, err.col) == (1, 22)
        assert tokenize("x # c")[-1] == Token("eof", "", 1, 6)


class TestTemplates:
    def test_exponent_value(self):
        t = ExponentTemplate(offset=1, parameterized=True)
        assert t.value(3) == 4
        fixed = ExponentTemplate(offset=5, parameterized=False)
        assert fixed.value(None) == 5

    def test_materialize_family(self):
        s = parse_session(
            "char 32003; vars x,y,z;"
            " ideal F = x^2, x*y, x*z - y^r, y^(r+1), x*z^2; cor41 F r=3;")
        ring = PolyRing(("x", "y", "z"), 32003)
        decl = s.ideals["F"]
        polys = [t.materialize(ring, 3) for t in decl.polynomials]
        assert [str(p) for p in polys] == \
            ["x^2", "x*y", "-y^3 + x*z", "y^4", "x*z^2"]

    def test_materialize_negative_exponent_rejected(self):
        s = parse_session("char 7; vars x; ideal F = x^(r-4); table F r=5;")
        ring = PolyRing(("x",), 7)
        tmpl = s.ideals["F"].polynomials[0]
        assert str(tmpl.materialize(ring, 5)) == "x"
        with pytest.raises(ValueError):
            tmpl.materialize(ring, 3)


class TestRoundTrip:
    CASES = [
        FAMILY,
        "char 7; vars x , y; ideal J = x^2, x*y; table J imax=1 window=-3..4;",
        "char 7; vars x; synthetic_table T = {(1,2): 10, (2,0): 1}; gap T t=5;",
        "char 32003; vars x,y,z; ideal F = x^2, x*z - y^r; cor41 F r=3..4;",
        "char 11; vars x,y; ideal I = 3*x^2 - 2*y^2 + x*y; koszul I i=1 n=0;",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_pretty_parse_fixed_point(self, text):
        first = parse_session(text)
        printed = pretty_print(first)
        again = parse_session(printed)
        assert again == first
        # pretty-printing is idempotent on its own output
        assert pretty_print(again) == printed

    def test_table_entry_order_insensitive_equality(self):
        a = parse_session("char 7; vars x;"
                          " synthetic_table T = {(1,2): 10, (2,0): 1};")
        b = parse_session("char 7; vars x;"
                          " synthetic_table T = {(2,0): 1, (1,2): 10};")
        c = parse_session("char 7; vars x;"
                          " synthetic_table T = {(2,0): 1, (1,2): 11};")
        assert a == b
        assert a != c

    def test_command_position_not_compared(self):
        a = parse_session("char 7; vars x; ideal I = x^2; table I;")
        b = parse_session("char 7;\nvars x;\n\nideal I = x^2;\n   table I;")
        assert (a.commands[0].line, a.commands[0].col) != \
            (b.commands[0].line, b.commands[0].col)
        assert a == b

    @pytest.mark.parametrize("body, printed", [
        ("0*x", "0*x"), ("x - 0*x", "x + 0*x"), ("-3", "-3"),
        ("-x^(r-1) + 2", "-x^(r-1) + 2"), ("1*x*x^0 - 1", "x*x^0 - 1"),
    ])
    def test_template_printing(self, body, printed):
        text = pretty_print(
            parse_session(f"char 7; vars x; ideal I = {body};"))
        assert f"ideal I = {printed};" in text

    def test_option_order_insensitive_equality(self):
        a = parse_session("char 7; vars x; ideal I = x^2;"
                          " table I imax=1 tmax=5;")
        b = parse_session("char 7; vars x; ideal I = x^2;"
                          " table I tmax=5 imax=1;")
        assert a == b


ASCII_FUZZ = "chavrsidelogjktbqfxyz0123456789 ;,=^*+-(){}:.\n#"
# statement heads put stray characters where an integer, a variable or an
# exponent is expected
FUZZ_HEADS = ["", "char ", "char 7; vars x", "char 7; vars x; ideal I = x^"]
# superscript two and one, subscript one, e acute, Arabic-Indic three
NON_ASCII = "\u00b2\u00b9\u2081\u00e9\u0663"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FUZZ_HEADS), st.text(
    alphabet=st.sampled_from(list(ASCII_FUZZ + NON_ASCII)), max_size=80))
def test_fuzz_only_parse_errors(head, tail):
    try:
        parse_session(head + tail)
    except ParseError:
        pass


def _lex(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as exc:
        return exc.message, exc.line, exc.col


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(list(ASCII_FUZZ + "\t\r_AZ!")),
               max_size=80))
def test_regex_lexer_matches_char_loop(text):
    new, old = _lex(tokenize, text), _lex(oracles.char_loop_tokenize, text)
    last_line = text.rsplit("\n", 1)[-1]
    if isinstance(old, list) and "#" in last_line:
        # a trailing comment without a final newline: the character loop
        # left the end-of-input column at the comment's first column
        assert new[-1] == replace(old[-1], col=len(last_line) + 1)
        new, old = new[:-1], old[:-1]
    assert new == old
