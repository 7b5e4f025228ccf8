"""Input language: declarations plus commands, parsed with line/column
diagnostics.

Input is ASCII: integers are `[0-9]+`, identifiers `[A-Za-z_][A-Za-z0-9_]*`.
Statements end with ';' and '#' starts a line comment.  Declarations:

    char 32003;
    vars x, y, z;
    ideal I = x^2, x*y, x*z - y^r, y^(r+1), x*z^2;
    synthetic_table T = {(1, 2): 10, (2, 0): 1};

Commands name a declared object and may carry key=value options:

    tangent_cone I r=3;
    table I imax=1 window=-4..8;
    cor41 I r=3..5;

Exponents in ideal declarations are integers, the parameter `r`, or
`(r+INT)` / `(r-INT)`; a command touching a parameterized ideal must supply
`r=` with a value or range, and each value yields one materialized run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError
from .poly import PolyRing, Polynomial, check_characteristic, render_terms

# per command: (required option keys, allowed option keys)
COMMAND_OPTIONS: dict[str, tuple[frozenset, frozenset]] = {
    "tangent_cone": (frozenset(), frozenset({"r"})),
    "table": (frozenset(), frozenset({"window", "tmax", "margin", "imax", "r"})),
    "koszul": (frozenset({"i", "n"}), frozenset({"i", "n", "t", "r"})),
    "stuckrad": (frozenset(), frozenset({"window", "tmax", "margin", "r"})),
    "quasibuchsbaum": (frozenset(), frozenset({"window", "tmax", "margin", "r"})),
    "gap": (frozenset(), frozenset({"t", "window", "tmax", "margin", "r"})),
    "diag": (frozenset(), frozenset({"t", "window", "tmax", "margin", "r"})),
    "localh0": (frozenset(), frozenset({"r"})),
    "cor41": (frozenset(), frozenset({"window", "tmax", "margin", "r"})),
}
COMMANDS = tuple(COMMAND_OPTIONS)

RANGE_KEYS = frozenset({"window", "r"})
PARAMETER = "r"


# -- Tokens -----------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str      # "ident" | "int" | "punct" | "eof"
    text: str
    line: int
    col: int


# ASCII only: a character outside these classes is an "unexpected character"
_TOKEN = re.compile(r"(?P<newline>\n)|(?P<skip>[ \t\r]+|#[^\n]*)"
                    r"|(?P<punct>\.\.|[;,=^*+\-(){}:])|(?P<int>[0-9]+)"
                    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<bad>.)")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}",
                             line, col)
        elif kind != "skip":
            tokens.append(Token(kind, m.group(), line, col))
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# -- Session model ----------------------------------------------------------

@dataclass(frozen=True)
class ExponentTemplate:
    """Exponent is `offset` or, when parameterized, the parameter plus it."""

    offset: int
    parameterized: bool = False

    def value(self, r: int | None) -> int:
        if not self.parameterized:
            return self.offset
        if r is None:
            raise ValueError("parameterized exponent needs a parameter value")
        return r + self.offset

    def render(self) -> str:
        if not self.parameterized:
            return str(self.offset)
        if self.offset == 0:
            return PARAMETER
        sign = "+" if self.offset > 0 else "-"
        return f"({PARAMETER}{sign}{abs(self.offset)})"


@dataclass(frozen=True)
class TermTemplate:
    coefficient: int
    factors: tuple[tuple[int, ExponentTemplate], ...]  # (variable index, exp)


@dataclass(frozen=True)
class PolyTemplate:
    terms: tuple[TermTemplate, ...]

    @property
    def parameterized(self) -> bool:
        return any(e.parameterized for t in self.terms for _, e in t.factors)

    def materialize(self, ring: PolyRing, r: int | None = None) -> Polynomial:
        result = ring.zero()
        for term in self.terms:
            exps = [0] * ring.nvars
            for var_index, tmpl in term.factors:
                v = tmpl.value(r)
                if v < 0:
                    raise ValueError(
                        f"exponent {tmpl.render()} is negative at "
                        f"{PARAMETER}={r}")
                exps[var_index] += v
            mono = ring.from_terms({tuple(exps): term.coefficient})
            result = result + mono
        return result

    def render(self, variables: tuple[str, ...]) -> str:
        return render_terms(
            (term.coefficient,
             [variables[v] if e == ExponentTemplate(1)
              else f"{variables[v]}^{e.render()}" for v, e in term.factors])
            for term in self.terms)


@dataclass(frozen=True)
class IdealDecl:
    name: str
    polynomials: tuple[PolyTemplate, ...]

    @property
    def parameterized(self) -> bool:
        return any(p.parameterized for p in self.polynomials)


@dataclass(frozen=True)
class TableDecl:
    name: str
    entries: dict[tuple[int, int], int]  # (i, n) -> dim, declaration order


@dataclass(frozen=True)
class Command:
    name: str
    target: str
    options: tuple[tuple[str, object], ...]  # by key; int or (lo, hi)
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    def option(self, key: str, default=None):
        return dict(self.options).get(key, default)

    def render(self) -> str:
        return " ".join([self.name, self.target] + [
            f"{k}={v[0]}..{v[1]}" if isinstance(v, tuple) else f"{k}={v}"
            for k, v in self.options])


@dataclass
class Session:
    characteristic: int | None = None
    variables: tuple[str, ...] = ()
    ideals: dict[str, IdealDecl] = field(default_factory=dict)
    tables: dict[str, TableDecl] = field(default_factory=dict)
    commands: tuple[Command, ...] = ()


# -- Parser -----------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, default_characteristic: int | None = None):
        self.tokens = tokenize(text)
        self.pos = 0
        self.session = Session(characteristic=default_characteristic)
        self.explicit_char = False

    # token helpers
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def at(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text in texts

    def expect(self, kind: str, what: str, text: str | None = None
               ) -> Token:
        """Consume a token of `kind` (and `text`, if given), else fail with
        "expected <what>"."""
        tok = self.peek()
        if tok.kind != kind or text not in (None, tok.text):
            shown = tok.text if tok.kind != "eof" else "end of input"
            self.fail(f"expected {what}, found {shown!r}", tok)
        return self.advance()

    def punct(self, text: str) -> Token:
        return self.expect("punct", repr(text), text)

    def integer(self) -> int:
        return int(self.expect("int", "integer").text)

    def sign(self) -> int:
        """Consume an optional '+' or '-'; -1 after '-', else 1."""
        if self.at("+", "-"):
            return -1 if self.advance().text == "-" else 1
        return 1

    def signed_int(self) -> int:
        return self.sign() * self.integer()

    def separated(self, item, sep: str) -> list:
        """One or more `item()` results separated by the punctuation
        `sep`."""
        out = [item()]
        while self.at(sep):
            self.advance()
            out.append(item())
        return out

    # statement dispatch
    def parse(self) -> Session:
        while self.peek().kind != "eof":
            self.statement()
        return self.session

    def statement(self):
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected a statement, found {tok.text!r}")
        word = tok.text
        if word == "char":
            self.char_statement()
        elif word == "vars":
            self.vars_statement()
        elif word == "ideal":
            self.ideal_statement()
        elif word == "synthetic_table":
            self.table_statement()
        elif word in COMMANDS:
            self.command_statement()
        else:
            self.fail(f"unknown statement or command {word!r}", tok)

    def char_statement(self):
        tok = self.advance()
        if self.explicit_char:
            self.fail("characteristic already declared", tok)
        if self.session.variables:
            self.fail("characteristic must be declared before vars", tok)
        value = self.integer()
        try:
            self.session.characteristic = check_characteristic(value)
        except ValueError as exc:
            self.fail(str(exc), tok)
        self.explicit_char = True
        self.punct(";")

    def vars_statement(self):
        tok = self.advance()
        if self.session.variables:
            self.fail("variables already declared", tok)
        names = [t.text for t in self.separated(
            lambda: self.expect("ident", "variable name"), ",")]
        if len(set(names)) != len(names):
            self.fail("duplicate variable name", tok)
        self.session.variables = tuple(names)
        self.punct(";")

    def ideal_statement(self):
        tok = self.advance()
        if self.session.characteristic is None:
            self.fail("characteristic not declared", tok)
        if not self.session.variables:
            self.fail("variables not declared", tok)
        name_tok = self.expect("ident", "ideal name")
        self.check_fresh_name(name_tok)
        self.punct("=")
        polys = self.separated(self.polynomial, ",")
        self.punct(";")
        self.session.ideals[name_tok.text] = IdealDecl(
            name_tok.text, tuple(polys))

    def table_statement(self):
        self.advance()
        name_tok = self.expect("ident", "table name")
        self.check_fresh_name(name_tok)
        self.punct("=")
        self.punct("{")
        entries: dict[tuple[int, int], int] = {}
        if not self.at("}"):
            self.separated(lambda: self.table_entry(entries), ",")
        self.punct("}")
        self.punct(";")
        self.session.tables[name_tok.text] = TableDecl(
            name_tok.text, entries)

    def table_entry(self, entries: dict[tuple[int, int], int]):
        entry_tok = self.punct("(")
        i = self.signed_int()
        self.punct(",")
        n = self.signed_int()
        self.punct(")")
        self.punct(":")
        dim = self.signed_int()
        if i < 0:
            self.fail("cohomology index must be non-negative", entry_tok)
        if dim < 0:
            self.fail("dimension must be non-negative", entry_tok)
        if (i, n) in entries:
            self.fail(f"duplicate table entry ({i}, {n})", entry_tok)
        entries[(i, n)] = dim

    def check_fresh_name(self, tok: Token):
        name = tok.text
        if name in self.session.ideals or name in self.session.tables:
            self.fail(f"name {name!r} already declared", tok)
        if name in self.session.variables:
            self.fail(f"name {name!r} is a variable", tok)

    def command_statement(self):
        tok = self.advance()
        name = tok.text
        target_tok = self.expect("ident", "target name")
        target = target_tok.text
        is_ideal = target in self.session.ideals
        is_table = target in self.session.tables
        if not (is_ideal or is_table):
            self.fail(f"undeclared name {target!r}", target_tok)
        if is_table and name not in ("gap", "diag"):
            self.fail(f"command {name!r} needs an ideal, "
                      f"but {target!r} is a synthetic table", target_tok)
        required, allowed = COMMAND_OPTIONS[name]
        options: dict[str, object] = {}
        while self.peek().kind == "ident":
            key_tok = self.advance()
            key = key_tok.text
            if key not in allowed:
                self.fail(f"option {key!r} not accepted by {name!r}", key_tok)
            if key in options:
                self.fail(f"duplicate option {key!r}", key_tok)
            self.punct("=")
            lo = self.signed_int()
            value: object = lo
            if self.at(".."):
                if key not in RANGE_KEYS:
                    self.fail(f"option {key!r} does not take a range", key_tok)
                self.advance()
                hi = self.signed_int()
                if hi < lo:
                    self.fail(f"empty range {lo}..{hi}", key_tok)
                value = (lo, hi)
            options[key] = value
        missing = required - options.keys()
        if missing:
            self.fail(f"command {name!r} is missing option(s) "
                      + ", ".join(sorted(missing)), tok)
        if is_table and "r" in options:
            self.fail("option 'r' does not apply to a synthetic table", tok)
        if is_ideal and self.session.ideals[target].parameterized \
                and "r" not in options:
            self.fail(f"ideal {target!r} is parameterized; "
                      f"supply {PARAMETER}=VALUE or {PARAMETER}=LO..HI", tok)
        if is_ideal and not self.session.ideals[target].parameterized \
                and "r" in options:
            self.fail(f"ideal {target!r} has no parameter", tok)
        self.punct(";")
        self.session.commands = self.session.commands + (
            Command(name, target, tuple(sorted(options.items())),
                    tok.line, tok.col),)

    # polynomial templates
    def polynomial(self) -> PolyTemplate:
        terms = [self.term(self.sign())]
        while self.at("+", "-"):
            terms.append(self.term(self.sign()))
        return PolyTemplate(tuple(terms))

    def term(self, sign: int) -> TermTemplate:
        tok = self.peek()
        coeff = 1
        factors: list[tuple[int, ExponentTemplate]] = []
        if tok.kind == "int":
            coeff = self.integer()
            if self.at("*"):
                self.advance()
                factors = self.separated(self.factor, "*")
            elif self.peek().kind == "ident" \
                    and self.peek().text in self.session.variables:
                factors = self.separated(self.factor, "*")
        elif tok.kind == "ident":
            factors = self.separated(self.factor, "*")
        else:
            self.fail(f"expected a term, found {tok.text!r}", tok)
        return TermTemplate(sign * coeff, tuple(factors))

    def factor(self) -> tuple[int, ExponentTemplate]:
        tok = self.expect("ident", "variable")
        if tok.text not in self.session.variables:
            self.fail(f"undeclared variable {tok.text!r}", tok)
        var_index = self.session.variables.index(tok.text)
        exp = ExponentTemplate(1)
        if self.at("^"):
            self.advance()
            exp = self.exponent()
        return var_index, exp

    def exponent(self) -> ExponentTemplate:
        tok = self.peek()
        if tok.kind == "int":
            return ExponentTemplate(self.integer())
        if tok.kind == "ident" and tok.text == PARAMETER \
                and PARAMETER not in self.session.variables:
            self.advance()
            return ExponentTemplate(0, parameterized=True)
        if self.at("("):
            self.advance()
            head = self.expect("ident", "parameter")
            if head.text != PARAMETER or PARAMETER in self.session.variables:
                self.fail(f"unknown parameter {head.text!r}", head)
            if not self.at("+", "-"):
                self.fail("expected '+' or '-' in parameterized exponent")
            offset = self.sign() * self.integer()
            self.punct(")")
            return ExponentTemplate(offset, parameterized=True)
        self.fail("expected an exponent: integer, "
                  f"{PARAMETER!r}, or ({PARAMETER}+INT)", tok)


def parse_session(text: str,
                  default_characteristic: int | None = None) -> Session:
    """Parse input text into a Session; raises ParseError with line/column.

    A default characteristic (for instance from a command-line flag) fills
    in when the text declares none; an explicit `char` statement wins.
    """
    return _Parser(text, default_characteristic).parse()


# -- Pretty printer ---------------------------------------------------------

def pretty_print(session: Session) -> str:
    """Canonical text whose parse equals the given session."""
    lines: list[str] = []
    if session.characteristic is not None:
        lines.append(f"char {session.characteristic};")
    if session.variables:
        lines.append("vars " + ", ".join(session.variables) + ";")
    for decl in session.ideals.values():
        body = ", ".join(p.render(session.variables)
                         for p in decl.polynomials)
        lines.append(f"ideal {decl.name} = {body};")
    for table in session.tables.values():
        body = ", ".join(f"({i}, {n}): {d}"
                         for (i, n), d in table.entries.items())
        lines.append(f"synthetic_table {table.name} = {{{body}}};")
    for cmd in session.commands:
        lines.append(cmd.render() + ";")
    return "\n".join(lines) + ("\n" if lines else "")
