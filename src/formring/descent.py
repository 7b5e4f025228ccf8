"""Decision procedures over cohomology tables and comparison maps.

Every checker returns a Verdict: "satisfied" or "violated" (always with
concrete witnesses).  Every entry of a computed table is exact, so no
checker waits on a colimit.  Affirmative answers are scoped to the
computation window — the scope metadata travels with the verdict so reports
stay honest about what was actually examined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import linalg, multigraded
from .errors import NotInIrrelevantError, SaturationLimitError, ZeroRingError
from .graded import GradedQuotientRing
from .groebner import (SATURATION_CAP, Ideal, _reduced_ideal, buchberger,
                       initial_forms_ideal, intersect, saturate_by_variable,
                       standard_monomials)
from .koszul import comparison_rank
from .localcoh import (CohomologyTable, StabilizationConfig,
                       annihilator_is_irrelevant, local_coh_table)
from .poly import DEGREVLEX, Polynomial

if TYPE_CHECKING:
    import numpy as np


@dataclass
class Verdict:
    """Outcome of one checker: status, witnesses, and validity scope."""

    status: str  # "satisfied" | "violated"
    witnesses: list = field(default_factory=list)
    detail: str = ""
    data: dict = field(default_factory=dict)
    scope: dict = field(default_factory=dict)

    @property
    def satisfied(self) -> bool:
        return self.status == "satisfied"

    @property
    def violated(self) -> bool:
        return self.status == "violated"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "witnesses": self.witnesses,
            "detail": self.detail,
            "data": self.data,
            "scope": self.scope,
        }


def _scope(table: CohomologyTable) -> dict:
    cfg = table.cfg
    return {
        "window": [cfg.n_lo, cfg.n_hi],
        "t_max": cfg.t_max,
        "margin": cfg.margin,
        "synthetic": table.synthetic,
    }


@dataclass
class AdmissibleSet:
    """Solutions k of the two-diagonal conditions.

    kind "finite": exactly `values`; kind "all_at_least": every k >= lower;
    kind "all": unconstrained.  Finite and empty means the conditions are
    unsatisfiable no matter how the table extends beyond the window.
    """

    kind: str
    values: tuple[int, ...] = ()
    lower: int | None = None

    @property
    def empty(self) -> bool:
        return self.kind == "finite" and not self.values

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "finite":
            out["values"] = list(self.values)
        if self.kind == "all_at_least":
            out["lower"] = self.lower
        return out

    def describe(self) -> str:
        if self.kind == "all":
            return "all k"
        if self.kind == "all_at_least":
            return f"k >= {self.lower}"
        return "[" + ", ".join(str(v) for v in self.values) + "]"


def two_diagonal_check(table: CohomologyTable, t: int) -> Verdict:
    """Is the table concentrated on two adjacent diagonals below row t?

    A nonzero entry of row i < t at diagonal position p = n + i forces the
    diagonal index k into {p, p + 1}; a nonzero entry of row t at position p
    forces k >= p.  The verdict carries the set of k satisfying everything.
    An empty set is final: more table would only shrink it.
    """
    if t < 0 or (t > table.i_max and not table.complete):
        raise ValueError(f"row index t={t} outside table rows 0..{table.i_max}")
    constraints = []  # (i, n, p, dim) from rows below t
    candidate: set[int] | None = None
    for i in range(min(t, table.i_max + 1)):
        for p, d in table.positions_row(i):
            n = p - i
            constraints.append([i, n, p, d])
            allowed = {p, p + 1}
            candidate = allowed if candidate is None else candidate & allowed
    tail = table.positions_row(t) if t <= table.i_max else []
    tail_lower = max((p for p, _ in tail), default=None)
    if candidate is None:
        if tail_lower is None:
            admissible = AdmissibleSet("all")
        else:
            admissible = AdmissibleSet("all_at_least", lower=tail_lower)
    else:
        vals = candidate
        if tail_lower is not None:
            vals = {k for k in vals if k >= tail_lower}
        admissible = AdmissibleSet("finite", values=tuple(sorted(vals)))
    data = {"admissible_k": admissible.to_dict(),
            "admissible_k_text": admissible.describe(),
            "row_constraints": constraints,
            "tail_row": t,
            "tail_min_allowed": tail_lower}
    if admissible.empty:
        return Verdict("violated", witnesses=constraints,
                       detail="no diagonal index satisfies every constraint",
                       data=data, scope=_scope(table))
    return Verdict("satisfied", detail=f"admissible k: {admissible.describe()}",
                   data=data, scope=_scope(table))


def degree_gap_check(table: CohomologyTable, t: int) -> Verdict:
    """No two nonzero entries in rows i < j < t at positions p, q with p-q=1."""
    if t < 0:
        raise ValueError(f"row bound t={t} is negative")
    if t - 1 > table.i_max and not table.complete:
        raise ValueError(
            f"row bound t={t} exceeds table rows 0..{table.i_max}")
    top = min(t - 1, table.i_max)
    violations = []
    for i in range(top + 1):
        for j in range(i + 1, top + 1):
            for p, dp in table.positions_row(i):
                for q, dq in table.positions_row(j):
                    if p - q == 1:
                        violations.append(
                            {"i": i, "j": j, "p": p, "q": q,
                             "dim_i": dp, "dim_j": dq})
    data = {"violations": violations, "rows_examined": top + 1}
    if violations:
        return Verdict("violated", witnesses=violations,
                       detail=f"{len(violations)} adjacent-diagonal pair(s)",
                       data=data, scope=_scope(table))
    return Verdict("satisfied", detail="no adjacent-diagonal pairs",
                   data=data, scope=_scope(table))


def stuckrad_test(G: GradedQuotientRing, table: CohomologyTable) -> Verdict:
    """Is every comparison map into local cohomology surjective below d?

    Surjectivity of [K-cohomology at power 1] -> [H^i_M(G)]_n, read at the
    entry's power T(n), in every window degree for all i < d is the
    Buchsbaum criterion for G.
    """
    if G.is_zero_ring():
        raise ZeroRingError("the quotient ring is zero")
    d = G.krull_dimension()
    surjectivity = []  # [i, n, 0/1]
    failures = []
    for i in range(d):
        for entry in table.row(i):
            if entry.dim == 0:
                surjectivity.append([i, entry.n, 1])
                continue
            rank = comparison_rank(G, i, entry.n)
            ok = rank == entry.dim
            surjectivity.append([i, entry.n, 1 if ok else 0])
            if not ok:
                failures.append({"i": i, "n": entry.n,
                                 "rank": rank, "dim": entry.dim})
    data = {"dimension": d, "surjectivity": surjectivity}
    if failures:
        return Verdict("violated", witnesses=failures,
                       detail="comparison map not surjective",
                       data=data, scope=_scope(table))
    detail = ("no cohomology indices below dimension" if d == 0
              else "comparison maps surjective in every window degree")
    return Verdict("satisfied", detail=detail, data=data, scope=_scope(table))


def quasi_buchsbaum_test(G: GradedQuotientRing,
                         table: CohomologyTable) -> Verdict:
    """Does every variable annihilate the local cohomology below d?"""
    if G.is_zero_ring():
        raise ZeroRingError("the quotient ring is zero")
    d = G.krull_dimension()
    witnesses = []
    for i in range(d):
        witnesses.extend({"i": i, "variable": name, "n": n, "terms": terms}
                         for name, n, terms in annihilator_is_irrelevant(
                             G, i, table)[1])
    data = {"dimension": d}
    if witnesses:
        return Verdict("violated", witnesses=witnesses,
                       detail="a variable acts nontrivially on cohomology",
                       data=data, scope=_scope(table))
    detail = ("no cohomology indices below dimension" if d == 0
              else "all variables annihilate cohomology below dimension")
    return Verdict("satisfied", detail=detail, data=data, scope=_scope(table))


# -- Nonhomogeneous (filtered) side ----------------------------------------

@dataclass
class LocalH0Report:
    """Torsion of the irrelevant ideal M on R/A.

    With T = (A : M^inf): socle_dim = dim_k (A : M)/A and torsion_dim =
    dim_k T/A.  Each certificate records a generator g of T and the least e
    with g*M^e inside A, which makes the dimensions verifiable by normal
    forms alone.  Three identities give the report without a chain of ideal
    quotients:

    * T is an intersection of (A : x_j^inf), each one elimination, whose
      generators outside A are killed by M^(a0+1) (`_torsion_ideal`);
    * the saturation exponent, the least s with M^s*T inside A, is the
      largest certificate exponent;
    * the classes of order d (largest j with a representative in M^j + A)
      of T/A span HF(S/in(A), d) - HF(S/in(T), d) dimensions, since the
      Hilbert-Samuel function of R/J at M is the Hilbert function of the
      tangent cone S/in(J); the socle histogram puts (A : M) in place of T.
      A J not inside M has the unit cone.
    """

    socle_dim: int
    torsion_dim: int
    socle_generators: list[str]
    torsion_generators: list[str]
    socle_dims_by_order: dict[int, int]
    torsion_dims_by_order: dict[int, int]
    certificates: list[dict]
    saturation_exponent: int
    f0_surjective: bool

    def to_dict(self) -> dict:
        return {
            "socle_dim": self.socle_dim,
            "torsion_dim": self.torsion_dim,
            "socle_generators": self.socle_generators,
            "torsion_generators": self.torsion_generators,
            "socle_dims_by_order": {str(k): v for k, v in
                                    sorted(self.socle_dims_by_order.items())},
            "torsion_dims_by_order": {str(k): v for k, v in
                                      sorted(self.torsion_dims_by_order.items())},
            "certificates": self.certificates,
            "saturation_exponent": self.saturation_exponent,
            "f0_surjective": self.f0_surjective,
        }


def _coefficient_matrix(forms: list[Polynomial]) -> np.ndarray:
    """One column per form: its coefficients over all monomials in use."""
    monomials = sorted({m for f in forms for m in f.terms})
    index = {m: r for r, m in enumerate(monomials)}
    mat = linalg.zeros(len(monomials), len(forms))
    for c, f in enumerate(forms):
        for m, coeff in f.terms.items():
            mat[index[m], c] = coeff
    return mat


def _minimal_annihilating_exponent(ideal: Ideal, g: Polynomial,
                                   cap: int) -> int | None:
    """The least e <= cap with g*M^e inside the ideal, or None.

    Degree by degree it keeps the nonzero normal forms of g*u, one per
    monomial u of degree e; the form of g*x_j*u is that of x_j times the
    form of g*u, and a zero form has only zero multiples.
    """
    ring = ideal.ring
    layer = {(0,) * ring.nvars: ideal.normal_form(g)}
    for e in range(cap + 1):
        layer = {u: f for u, f in layer.items() if not f.is_zero()}
        if not layer:
            return e
        nxt: dict = {}
        for u, f in layer.items():
            for j, x in enumerate(ring.gens()):
                v = u[:j] + (u[j] + 1,) + u[j + 1:]
                if v not in nxt:
                    nxt[v] = ideal.normal_form(x * f)
        layer = nxt
    return None


def _torsion_ideal(A_ideal: Ideal) -> tuple[Ideal, list[int] | None]:
    """T = (A : M^inf), from as few (A : x_j^inf) as a certificate allows,
    with the certificate exponents when they were computed.

    An intersection J of them contains T, and M^(a0+1) T lies in A
    (`local_h0_report`), so J = T once each generator of J outside A has an
    annihilating exponent at most a0 + 1: the report's certificates.  The
    variables with no pure power among the cone's leads cut it down to M,
    so their factors, taken first, are T unless a component away from the
    origin meets their zero set.  The test runs before each other variable.
    """
    a0 = _cone_h0_top(A_ideal)
    if a0 is None:
        return A_ideal, None
    ring = A_ideal.ring
    leads = initial_forms_ideal(A_ideal).groebner_basis(
        DEGREVLEX).leading_monomials()
    powered = [any(m[j] == sum(m) for m in leads) for j in range(ring.nvars)]
    cap = min(a0 + 1, SATURATION_CAP)
    torsion = unit = _reduced_ideal(ring, [ring.one()])
    tested = None
    for j in sorted(range(ring.nvars), key=powered.__getitem__):
        if powered[j] and torsion is not tested:
            tested = torsion
            exponents = [_minimal_annihilating_exponent(A_ideal, g, cap)
                         for g in torsion.generators if not A_ideal.contains(g)]
            if None not in exponents:
                return torsion, exponents
        factor = saturate_by_variable(A_ideal, j)
        if all(A_ideal.contains(g) for g in factor.generators):
            return A_ideal, None
        if not factor.is_whole_ring():
            torsion = factor if torsion is unit else intersect(torsion, factor)
    return torsion, None


def _dims_by_order(A_ideal: Ideal, J: Ideal, total: int) -> dict[int, int]:
    """HF(S/in(A), d) - HF(S/in(J), d) for d = 0, 1, ... until the nonzero
    differences add up to total = dim J/A; a J not inside M has cone (1)."""
    G = GradedQuotientRing.of(initial_forms_ideal(A_ideal))
    cone = initial_forms_ideal(J) if J.in_irrelevant() else None
    hist: dict[int, int] = {}
    d = 0
    while total:
        if d > SATURATION_CAP:
            raise SaturationLimitError(SATURATION_CAP)
        diff = G.dim(d) - (0 if cone is None
                           else len(standard_monomials(cone, d)))
        if diff:
            hist[d] = diff
            total -= diff
        d += 1
    return hist


def local_h0_report(A_ideal: Ideal) -> LocalH0Report:
    """Socle and full torsion of the irrelevant ideal on R/A_ideal.

    When the cone S/in(A) has no H^0_M the report is zero, and no
    elimination runs (`_cone_h0_top`).  This is exact:

    * (A : M^inf)/A is supported at M, so it is the torsion of the local
      ring R_M/A_M, whose associated graded ring is G = S/in(A);
    * a nonzero torsion class f there has a finite order d (Krull's
      intersection theorem), and its initial form f* in G_d is nonzero; if
      M^s f lies in A, every x^u f with |u| = s is zero in R/A, so x^u f*
      is zero in G_(d+s) and f* is a nonzero element of H^0_M(G);
    * Sbarra's bound dim [H^0_M(G)]_n <= dim [H^0_M(S/in(IG))]_n, with
      in(IG) the lead ideal of the cone, leaves only the degrees in which
      H^0_M(S/in(IG)) lives, read off its multidegree blocks.

    So H^0_M(S/in(IG)) = 0 gives H^0_M(G) = 0, and that gives
    (A : M^inf) = A.  Every other ideal takes the elimination route,
    `_torsion_report`.  There the same argument gives M^(a0+1) T inside
    A, a0 the top degree of H^0_M(S/in(IG)): for f in T and |u| = a0 + 1,
    x^u f is torsion of order above a0, where H^0_M(G) is zero, so x^u f = 0.

    The report is kept on `A_ideal`, the way its cone is."""
    if not A_ideal.in_irrelevant():
        raise NotInIrrelevantError(
            "the input ideal must lie inside the irrelevant ideal")
    if A_ideal._h0 is None:
        A_ideal._h0 = (LocalH0Report(0, 0, [], [], {}, {}, [], 0, True)
                       if _cone_h0_top(A_ideal) is None
                       else _torsion_report(A_ideal))
    return A_ideal._h0


def _cone_h0_top(A_ideal: Ideal) -> int | None:
    """a0, the top degree of H^0_M(S/in(IG)); None when it is 0."""
    G = GradedQuotientRing.of(initial_forms_ideal(A_ideal))
    return max(multigraded.engine(G).row_support(0), default=None)


def _torsion_report(A_ideal: Ideal) -> LocalH0Report:
    """The report from T = (A : M^inf), computed by elimination."""
    ring = A_ideal.ring
    torsion_ideal, exponents = _torsion_ideal(A_ideal)
    gens = [g for g in torsion_ideal.generators if not A_ideal.contains(g)]
    if not gens:
        return LocalH0Report(0, 0, [], [], {}, {}, [], 0, True)
    exponents = exponents or [_minimal_annihilating_exponent(
        A_ideal, g, SATURATION_CAP) for g in gens]
    if None in exponents:
        raise SaturationLimitError(SATURATION_CAP)

    # a basis of T/A: the generators' normal forms closed under the
    # variables, each round's new directions picked by the pivots of one rref
    p = ring.characteristic
    basis: list[Polynomial] = []
    images: list[list[Polynomial]] = []  # normal forms of x_j * basis[c]
    layer = [A_ideal.normal_form(g) for g in gens]
    while layer:
        forms = basis + layer
        pivots = linalg.rref(_coefficient_matrix(forms), p)[1]
        new = [forms[c] for c in pivots[len(basis):]]
        rows = [[A_ideal.normal_form(x * b) for x in ring.gens()] for b in new]
        basis += new
        images += rows
        layer = [f for row in rows for f in row]
    # the socle is the kernel of v -> (x_j * v)_j on T/A
    kernel = linalg.kernel(linalg.stack([
        _coefficient_matrix([row[j] for row in images])
        for j in range(ring.nvars)], axis=0), p)
    f0 = kernel.shape[1] == len(basis)
    socle_ideal = torsion_ideal
    if not f0:
        socle = [sum((b * int(c) for c, b in zip(col, basis)), ring.zero())
                 for col in kernel.T]
        socle_ideal = _reduced_ideal(ring, buchberger(
            A_ideal.groebner_basis().elements + socle, DEGREVLEX))

    return LocalH0Report(
        socle_dim=kernel.shape[1],
        torsion_dim=len(basis),
        socle_generators=[str(g) for g in socle_ideal.generators
                          if not A_ideal.contains(g)],
        torsion_generators=[str(g) for g in gens],
        socle_dims_by_order=_dims_by_order(A_ideal, socle_ideal,
                                           kernel.shape[1]),
        torsion_dims_by_order=_dims_by_order(A_ideal, torsion_ideal,
                                             len(basis)),
        certificates=[{"generator": str(g), "exponent": e}
                      for g, e in zip(gens, exponents)],
        saturation_exponent=max(exponents),
        f0_surjective=f0,
    )


def length_comparison_check(table: CohomologyTable,
                            report: LocalH0Report) -> Verdict:
    """Length of table row 0, over its whole support (finite on every
    cone), against the torsion length on the A side."""
    lg = table.row_length(0)
    scope = _scope(table)
    la = report.torsion_dim
    data = {"length_graded": lg, "length_filtered": la, "equal": lg == la}
    if lg >= la:
        return Verdict("satisfied",
                       detail=f"graded length {lg} >= filtered length {la}",
                       data=data, scope=scope)
    return Verdict("violated", witnesses=[data],
                   detail=f"graded length {lg} < filtered length {la}",
                   data=data, scope=scope)


# -- Full pipeline ----------------------------------------------------------

@dataclass
class DescentReport:
    """End-to-end verdict package for one input ideal."""

    characteristic: int
    variables: list[str]
    a_generators: list[str]
    g_generators: list[str]
    dimension: int
    table: CohomologyTable
    two_diagonal: Verdict
    gap: Verdict
    g_buchsbaum: Verdict
    g_quasi_buchsbaum: Verdict
    a_h0: LocalH0Report
    length_0: Verdict
    a_buchsbaum: str          # "yes" | "no" | "undecided"
    a_buchsbaum_source: str
    finiteness_below_dim: str
    higher_length_equalities: str = "not checked"

    def to_dict(self) -> dict:
        return {
            "characteristic": self.characteristic,
            "variables": self.variables,
            "a_generators": self.a_generators,
            "g_generators": self.g_generators,
            "dimension": self.dimension,
            "table_nonzero": self.table.nonzero_rows(),
            "two_diagonal": self.two_diagonal.to_dict(),
            "gap": self.gap.to_dict(),
            "g_buchsbaum": self.g_buchsbaum.to_dict(),
            "g_quasi_buchsbaum": self.g_quasi_buchsbaum.to_dict(),
            "a_h0": self.a_h0.to_dict(),
            "length_0": self.length_0.to_dict(),
            "a_buchsbaum": self.a_buchsbaum,
            "a_buchsbaum_source": self.a_buchsbaum_source,
            "finiteness_below_dim": self.finiteness_below_dim,
            "higher_length_equalities": self.higher_length_equalities,
        }


def _window_misses(G: GradedQuotientRing, table: CohomologyTable,
                   supports: list) -> list[str]:
    """What the descent checks read and the window misses: each row i < d
    over its support and, when one is nonzero, row d's top degree: at most
    the degree bound, at least any degree where row d is nonzero."""
    lo, hi = table.cfg.n_lo, table.cfg.n_hi
    d, missing = len(supports), []
    for i, support in enumerate(supports):
        if support is None:
            missing.append(f"row {i} has no proved finite length")
        elif any(not lo <= n <= hi for n in support):
            missing.append(f"row {i} is supported outside {lo}..{hi}")
    if not missing and any(table.nonzero_row(i) for i in range(d)):
        bound = multigraded.engine(G).degree_bound()
        if bound > hi:
            missing.append(f"row {d} may be nonzero up to degree {bound}")
        if not table.nonzero_row(d):
            missing.append(f"row {d} is zero in {lo}..{hi}")
    return missing


def descent_verdict(A_ideal: Ideal,
                    cfg: StabilizationConfig | None = None) -> DescentReport:
    """Full pipeline: cone, table, checkers, and the transfer of verdicts.

    The A-side Buchsbaum answer is only asserted when it is actually decided:
    directly in dimension one (where surjectivity of the torsion comparison
    is the criterion), or through the two-diagonal hypothesis plus the graded
    verdict in higher dimension, when the window holds everything those two
    checks read (`_window_misses`).  Otherwise it is reported undecided.

    The cone is kept on `A_ideal` and its graded ring on the cone, so a
    caller that passes the same Ideal again, as the CLI does within one
    session, reuses both with all their caches.
    """
    ring = A_ideal.ring
    IG = initial_forms_ideal(A_ideal)
    G = GradedQuotientRing.of(IG)
    if G.is_zero_ring():
        raise ZeroRingError("the associated graded ring is zero")
    d = G.krull_dimension()
    cfg = cfg or StabilizationConfig.default_for(G)
    table = local_coh_table(G, i_max=min(max(d, 1), ring.nvars), cfg=cfg)
    two_diag = two_diagonal_check(table, d)
    gap = degree_gap_check(table, d)
    g_b = stuckrad_test(G, table)
    g_qb = quasi_buchsbaum_test(G, table)
    a_h0 = local_h0_report(A_ideal)
    length_0 = length_comparison_check(table, a_h0)
    supports = [table.row_support(i) for i in range(d)]

    if d == 0:
        a_status, a_source = "yes", "dimension zero: no conditions to check"
    elif d == 1:
        a_status = "yes" if a_h0.f0_surjective else "no"
        a_source = "dimension one: torsion comparison map " + (
            "surjective" if a_h0.f0_surjective else "not surjective")
    elif not two_diag.satisfied:
        a_status, a_source = "undecided", (
            "descent not applicable: two-diagonal hypothesis "
            f"{two_diag.status}; graded surjectivity {g_b.status}")
    elif missing := _window_misses(G, table, supports):
        a_status, a_source = "undecided", (
            "descent undecided: the window misses what the checks read: "
            + "; ".join(missing))
    else:
        a_status = "yes" if g_b.satisfied else "no"
        a_source = ("descent: two-diagonal hypothesis holds and the graded "
                    f"ring {'passed' if g_b.satisfied else 'failed'} the "
                    "surjectivity test")

    if d == 0:
        finiteness = "trivial: dimension zero"
    elif None not in supports:
        finiteness = ("derived: graded rows below dimension have finite "
                      "window support; filtered side not independently "
                      "computed")
    else:
        finiteness = "not verified in window"

    return DescentReport(
        characteristic=ring.characteristic,
        variables=list(ring.variables),
        a_generators=[str(g) for g in A_ideal.generators],
        g_generators=[str(g) for g in IG.generators],
        dimension=d,
        table=table,
        two_diagonal=two_diag,
        gap=gap,
        g_buchsbaum=g_b,
        g_quasi_buchsbaum=g_qb,
        a_h0=a_h0,
        length_0=length_0,
        a_buchsbaum=a_status,
        a_buchsbaum_source=a_source,
        finiteness_below_dim=finiteness,
    )
