"""Sparse multivariate polynomials over a prime field, with term orders.

Coefficients are ints reduced into [0, p).  Monomials are plain exponent
tuples, one entry per ring variable; declaration order is part of the ring
identity and is the tie-breaker in every term order.  Polynomial values are
immutable once built and all operations are pure.
"""

from __future__ import annotations

from operator import add, neg
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import AmbientMismatchError, NotHomogeneousError

Monomial = tuple[int, ...]

# int64 kernels in linalg stay exact below this characteristic
MAX_CHARACTERISTIC = 2**30


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_characteristic(p: int) -> int:
    """`p` itself when it is a prime below 2**30, else ValueError.

    The bound is tested first, so a huge `p` never reaches trial division.
    """
    if p >= MAX_CHARACTERISTIC:
        raise ValueError(
            f"{p} is not below 2**30, the bound for exact int64 arithmetic")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def render_terms(terms: Iterable[tuple[int, Sequence[str]]]) -> str:
    """`c*f*g - d*h + ...` from (signed coefficient, factor strings) pairs.

    A coefficient of magnitude 1 is left out unless the term has no factors.
    """
    text = ""
    for coeff, factors in terms:
        body = "*".join(([] if factors and abs(coeff) == 1
                         else [str(abs(coeff))]) + list(factors))
        if text:
            text += f" {'-' if coeff < 0 else '+'} {body}"
        else:
            text = "-" + body if coeff < 0 else body
    return text or "0"


class TermOrder:
    """A global monomial order given by a sort key on exponent tuples.

    Kinds:
      degrevlex  graded, ties broken reverse-lexicographically from the last
                 declared variable (the usual default)
      lex        pure lexicographic, first declared variable dominant
      elim_last  the last variable is dominant (compared first), remaining
                 variables by degrevlex; eliminates the last variable, used for
                 homogenizer and auxiliary-variable computations
    """

    KINDS = ("degrevlex", "lex", "elim_last")

    def __init__(self, kind: str = "degrevlex"):
        if kind not in self.KINDS:
            raise ValueError(f"unknown term order kind {kind!r}")
        self.kind = kind

    def key(self, exps: Monomial):
        """Sort key; greater key means greater monomial."""
        if self.kind == "degrevlex":
            return (sum(exps), tuple(-e for e in reversed(exps)))
        if self.kind == "lex":
            return exps
        rest = exps[:-1]
        return (exps[-1], sum(rest), tuple(-e for e in reversed(rest)))

    def heap_key(self, exps: Monomial):
        """`key` with every entry negated: smallest heap key, greatest monomial."""
        if self.kind == "degrevlex":
            return (-sum(exps), exps[::-1])
        if self.kind == "lex":
            return tuple(map(neg, exps))
        rest = exps[:-1]
        return (-exps[-1], -sum(rest), rest[::-1])

    def greater(self, a: Monomial, b: Monomial) -> bool:
        return self.key(a) > self.key(b)

    def __eq__(self, other) -> bool:
        return isinstance(other, TermOrder) and self.kind == other.kind

    def __hash__(self) -> int:
        return hash(("TermOrder", self.kind))

    def __repr__(self) -> str:
        return f"TermOrder({self.kind!r})"


DEGREVLEX = TermOrder("degrevlex")
LEX = TermOrder("lex")
ELIM_LAST = TermOrder("elim_last")


class PolyRing:
    """k[x_1..x_n] with k = GF(p); identified by variables and characteristic."""

    def __init__(self, variables: Sequence[str], characteristic: int,
                 order: TermOrder = DEGREVLEX):
        variables = tuple(variables)
        if not variables:
            raise ValueError("a ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        for v in variables:
            if not v.isidentifier():
                raise ValueError(f"bad variable name {v!r}")
        try:
            check_characteristic(characteristic)
        except ValueError as exc:
            raise ValueError(f"characteristic {exc}") from None
        self.variables = variables
        self.characteristic = characteristic
        self.order = order

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyRing)
                and self.variables == other.variables
                and self.characteristic == other.characteristic)

    def __hash__(self) -> int:
        return hash((self.variables, self.characteristic))

    def __repr__(self) -> str:
        return f"GF({self.characteristic})[{','.join(self.variables)}]"

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, which: int | str) -> "Polynomial":
        i = which if isinstance(which, int) else self.variables.index(which)
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): 1})

    def gens(self) -> list["Polynomial"]:
        return [self.variable(i) for i in range(self.nvars)]

    def monomial(self, exps: Iterable[int], coeff: int = 1) -> "Polynomial":
        return Polynomial(self, {tuple(exps): coeff})

    def from_terms(self, terms: Mapping[Monomial, int]) -> "Polynomial":
        return Polynomial(self, dict(terms))

    def extended(self) -> "PolyRing":
        """Ring with one fresh variable appended (for homogenizer/aux tricks)."""
        k = 0
        extra = "h0"
        while extra in self.variables:
            k += 1
            extra = f"h{k}"
        return PolyRing(self.variables + (extra,), self.characteristic, self.order)


class Polynomial:
    """Immutable sparse polynomial; do not mutate the term dict.

    Invariant: every key of `terms` is a tuple of `ring.nvars` nonnegative
    exponents and every value lies in [1, p).  `__init__` enforces it on any
    input; `_trusted` takes a dict that already satisfies it, which is how
    `+`, `-`, `*`, `monic` and the Groebner kernel build their results (they
    reduce mod p and drop zeros themselves, and their exponents are sums or
    differences of valid ones).
    """

    # _lead: (order, leading monomial) of the last leading_monomial lookup;
    # valid forever because the terms never change
    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring: PolyRing, terms: Mapping[Monomial, int]):
        p = ring.characteristic
        clean: dict[Monomial, int] = {}
        for exps, c in terms.items():
            if len(exps) != ring.nvars:
                raise ValueError(f"exponent tuple {exps} has wrong length")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c %= p
            if c:
                clean[exps] = c
        self.ring = ring
        self.terms = clean
        self._lead = None

    @classmethod
    def _trusted(cls, ring: PolyRing, terms: dict[Monomial, int],
                 lead=None) -> "Polynomial":
        """A polynomial on `terms` as given; it must meet the invariant."""
        f = cls.__new__(cls)
        f.ring = ring
        f.terms = terms
        f._lead = lead
        return f

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None  # mutable-looking value type; not meant for dict keys

    def _check_ambient(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise AmbientMismatchError(
                f"operands live in {self.ring} and {other.ring}")

    # -- arithmetic --------------------------------------------------------

    def _plus(self, other, sign: int) -> "Polynomial":
        """self + sign * other, for sign = 1 or -1."""
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check_ambient(other)
        p = self.ring.characteristic
        out = dict(self.terms)
        for exps, c in other.terms.items():
            c = (out.get(exps, 0) + sign * c) % p
            if c:
                out[exps] = c
            else:
                del out[exps]  # c is nonzero unless exps was already there
        return Polynomial._trusted(self.ring, out)

    def __add__(self, other) -> "Polynomial":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        p = self.ring.characteristic
        return Polynomial._trusted(
            self.ring, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check_ambient(other)
        p = self.ring.characteristic
        out: dict[Monomial, int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(map(add, ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return Polynomial._trusted(
            self.ring, {e: r for e, c in out.items() if (r := c % p)})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- degrees and homogeneity -------------------------------------------

    def degree(self):
        """Total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def min_degree(self):
        """Smallest total degree among terms; None for zero."""
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def initial_form(self) -> "Polynomial":
        """Lowest-degree homogeneous component (zero for zero input)."""
        if not self.terms:
            return self
        d = self.min_degree()
        return Polynomial(
            self.ring, {e: c for e, c in self.terms.items() if sum(e) == d})

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.ring.nvars, 0)

    # -- leading data ------------------------------------------------------

    def leading_monomial(self, order: TermOrder | None = None) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        order = order or self.ring.order
        lead = self._lead
        if lead is None or (lead[0] is not order and lead[0] != order):
            lead = self._lead = (order, max(self.terms, key=order.key))
        return lead[1]

    def leading_coefficient(self, order: TermOrder | None = None) -> int:
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: TermOrder | None = None) -> "Polynomial":
        if not self.terms:
            return self
        p = self.ring.characteristic
        inv = pow(self.leading_coefficient(order), -1, p)
        if inv == 1:
            return self
        return Polynomial._trusted(
            self.ring, {e: c * inv % p for e, c in self.terms.items()},
            self._lead)

    def sorted_terms(self, order: TermOrder | None = None) -> list[tuple[Monomial, int]]:
        order = order or self.ring.order
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        p = self.ring.characteristic
        # balanced residue so small negatives print with a minus sign
        return render_terms(
            (c if c <= p // 2 else c - p,
             [name if e == 1 else f"{name}^{e}"
              for name, e in zip(self.ring.variables, exps) if e])
            for exps, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"<{self} over {self.ring}>"

    # -- iteration ---------------------------------------------------------

    def __iter__(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self.terms.items())


def require_homogeneous(f: Polynomial) -> int:
    """Degree of a homogeneous nonzero polynomial, or raise."""
    if f.is_zero():
        raise NotHomogeneousError("zero polynomial has no well-defined degree here")
    if not f.is_homogeneous():
        raise NotHomogeneousError(f"{f} is not homogeneous")
    return f.degree()
