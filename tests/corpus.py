"""Shared ring corpus for the test suite.

Every ring the oracle-equivalence, consistency, and soundness suites run
over is declared here once, together with a per-ring table configuration
sized so the whole suite finishes in minutes.  Expected values are frozen
in the individual test modules; this module only constructs objects.

Every corpus cone is monomial, so its full table is computed one
multidegree block at a time; the free ring in three variables, whose
quadratically growing graded pieces made dense elimination take about 20 s,
now has its full table too.  ``full_table=False`` is kept for a case that
joins only the row-0 suites.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from formring import (
    CohomologyTable,
    GradedQuotientRing,
    Ideal,
    PolyRing,
    Polynomial,
    StabilizationConfig,
    initial_forms_ideal,
    local_coh_table,
)

DEFAULT_CHARACTERISTIC = 32003


@dataclass(frozen=True)
class RingCase:
    """One corpus entry: a graded quotient plus its table configuration."""

    name: str
    variables: tuple[str, ...]
    generators: tuple[str, ...]
    window: tuple[int, int]
    t_max: int = 8
    margin: int = 2
    full_table: bool = True
    characteristic: int = DEFAULT_CHARACTERISTIC

    def config(self) -> StabilizationConfig:
        return StabilizationConfig(
            n_lo=self.window[0],
            n_hi=self.window[1],
            t_max=self.t_max,
            margin=self.margin,
        )


def _parse_generator(ring: PolyRing, text: str) -> Polynomial:
    """Build a generator from compact text like ``x^2*y - 3*z``.

    Only the tiny fragment the corpus needs: integer coefficients,
    ``*``-joined powers, ``+``/``-`` between terms.
    """

    result = ring.constant(0)
    for signed in text.replace("-", "+-").split("+"):
        chunk = signed.strip()
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        term = ring.constant(sign)
        for factor in chunk.split("*"):
            factor = factor.strip()
            if factor.isdigit():
                term = term * ring.constant(int(factor))
            else:
                if "^" in factor:
                    base, _, exp = factor.partition("^")
                    term = term * ring.variable(base.strip()) ** int(exp)
                else:
                    term = term * ring.variable(factor)
        result = result + term
    return result


def generic_forms(ring: PolyRing, seed: int) -> list[Polynomial]:
    """One linear form per variable, in order, each with one
    ``random.Random(seed).randrange(1, p)`` coefficient per variable: the
    generic change of coordinates of the named inputs."""

    rng = random.Random(seed)
    x = ring.gens()
    return [sum((rng.randrange(1, ring.characteristic) * v for v in x),
                ring.zero())
            for _ in x]


def build_ring(case: RingCase) -> PolyRing:
    return PolyRing(case.variables, case.characteristic)


def build_ideal(case: RingCase) -> Ideal:
    ring = build_ring(case)
    return Ideal(ring, [_parse_generator(ring, g) for g in case.generators])


@lru_cache(maxsize=None)
def graded(name: str) -> GradedQuotientRing:
    """The graded quotient for a named corpus case (cached per process)."""

    case = by_name(name)
    return GradedQuotientRing(initial_forms_ideal(build_ideal(case)))


@lru_cache(maxsize=None)
def full_table(name: str) -> CohomologyTable:
    """The full cohomology table (all rows) for a named case, cached.

    Only valid for cases with ``full_table=True``.
    """

    case = by_name(name)
    if not case.full_table:
        raise ValueError(f"corpus case {name!r} is excluded from full tables")
    return local_coh_table(graded(name), cfg=case.config())


def r_family_generators(r: int) -> tuple[str, ...]:
    """The nonhomogeneous one-parameter family used throughout the suite."""

    return ("x^2", "x*y", f"x*z - y^{r}", f"y^{r + 1}", "x*z^2")


def r_family_cone_generators(r: int) -> tuple[str, ...]:
    """Frozen expected generators of the family's tangent cone."""

    return ("x^2", "x*y", "x*z", f"y^{r + 1}", f"y^{r}*z")


def r_family_case(r: int) -> RingCase:
    return RingCase(
        name=f"cone-r{r}",
        variables=("x", "y", "z"),
        generators=r_family_generators(r),
        window=(-5, r + 4),
        # The leftmost window degree needs enough powers for the
        # transient Koszul dims to settle; r = 5 settles at 14.
        t_max=max(12, 3 * r),
    )


# the 7-vertex torus: facets {i, i+1, i+3} and {i, i+2, i+3} mod 7; every
# edge is a face, so its minimal nonfaces are the triangles that are not
# facets
TORUS_VARIABLES = tuple("abcdefg")
TORUS_FACETS = frozenset(
    frozenset(TORUS_VARIABLES[(i + k) % 7] for k in ks)
    for i in range(7) for ks in ((0, 1, 3), (0, 2, 3)))
TORUS_GENERATORS = tuple(
    "*".join(tri) for tri in itertools.combinations(TORUS_VARIABLES, 3)
    if frozenset(tri) not in TORUS_FACETS)

# the 6-vertex real projective plane: the ten triangles that are not facets
RP2_GENERATORS = ("a*b*c", "a*b*e", "a*c*d", "a*d*f", "a*e*f", "b*c*f",
                  "b*d*e", "b*d*f", "c*d*e", "c*e*f")


CORPUS: tuple[RingCase, ...] = (
    # Free rings: Cohen-Macaulay, cohomology only at the top index.
    RingCase("free-1", ("x",), (), window=(-4, 3)),
    RingCase("free-2", ("x", "y"), (), window=(-4, 3)),
    RingCase("free-3", ("x", "y", "z"), (), window=(-3, 3)),
    # Artinian quotients: everything in row 0.
    RingCase("chain-artinian", ("x",), ("x^3",), window=(-4, 4)),
    RingCase("plane-artinian", ("x", "y"), ("x^2", "x*y", "y^3"), window=(-4, 4)),
    RingCase("square-artinian", ("x", "y"), ("x^2", "y^2"), window=(-4, 4)),
    # One-dimensional quotients with torsion.
    RingCase("line-with-point", ("x", "y"), ("x^2", "x*y"), window=(-4, 4)),
    RingCase("thick-line", ("x", "y"), ("x^3", "x^2*y^2"), window=(-4, 5),
             t_max=10),
    # The one-parameter family (already-graded cones of the filtered input).
    r_family_case(3),
    r_family_case(4),
    r_family_case(5),
    # Two-dimensional quotients.
    RingCase("mixed-dimension", ("x", "y", "z"), ("x*z", "y*z"),
             window=(-4, 4), t_max=9),
    RingCase("surface", ("x", "y", "z"), ("x*y",), window=(-4, 4)),
    # Two skew lines in P^3: Buchsbaum but not Cohen-Macaulay, H^1 = k.
    RingCase("skew-lines", ("x", "y", "z", "w"),
             ("x*z", "x*w", "y*z", "y*w"), window=(-3, 2)),
    # Stanley-Reisner rings of surfaces.  RP^2 is Buchsbaum, with H^2_0 the
    # reduced H^1 of RP^2 over GF(p): 1 in characteristic 2, 0 in 3.  The
    # torus is Buchsbaum with H^2_0 = k^2.  The bowtie (two triangles sharing
    # a vertex) has a disconnected link and is not Buchsbaum.
    RingCase("rp2-char2", tuple("abcdef"), RP2_GENERATORS, window=(-3, 1),
             characteristic=2),
    RingCase("rp2-char3", tuple("abcdef"), RP2_GENERATORS, window=(-3, 1),
             characteristic=3),
    RingCase("torus", TORUS_VARIABLES, TORUS_GENERATORS, window=(-3, 1)),
    RingCase("bowtie", tuple("abcde"), ("b*d", "b*e", "c*d", "c*e"),
             window=(-3, 1)),
)


FULL_TABLE_CASES: tuple[RingCase, ...] = tuple(
    c for c in CORPUS if c.full_table)


def by_name(name: str) -> RingCase:
    for case in CORPUS:
        if case.name == name:
            return case
    raise KeyError(name)
