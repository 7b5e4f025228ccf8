"""Decision procedures over cohomology tables and comparison maps.

Every checker returns a three-valued Verdict: "satisfied", "violated" (always
with concrete witnesses), or "inconclusive" when an entry it depends on did
not stabilize.  Affirmative answers are scoped to the computation window —
the scope metadata travels with the verdict so reports stay honest about
what was actually examined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import NotInIrrelevantError, SaturationLimitError, ZeroRingError
from .graded import GradedQuotientRing
from .groebner import (SATURATION_CAP, Ideal, ideal_quotient,
                       initial_forms_ideal, monomials_of_degree, saturate)
from .koszul import f_map
from .localcoh import (CohomologyTable, StabilizationConfig,
                       annihilator_is_irrelevant, local_coh_table)
from .poly import Polynomial


@dataclass
class Verdict:
    """Outcome of one checker: status, witnesses, and validity scope."""

    status: str  # "satisfied" | "violated" | "inconclusive"
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

    @property
    def inconclusive(self) -> bool:
        return self.status == "inconclusive"

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


def _unstable_rows(table: CohomologyTable, upto: int) -> list[int]:
    return [i for i in range(upto + 1)
            if i <= table.i_max and not table.row_stabilized(i)]


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
    unstable = _unstable_rows(table, t)
    if unstable:
        return Verdict("inconclusive", witnesses=[],
                       detail=f"rows {unstable} not stabilized",
                       scope=_scope(table))
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
    unstable = _unstable_rows(table, top)
    if unstable:
        return Verdict("inconclusive", witnesses=[],
                       detail=f"rows {unstable} not stabilized",
                       scope=_scope(table))
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
    """Is every comparison map into stabilized cohomology surjective below d?

    Surjectivity of [K-cohomology at power 1] -> [stabilized value] in every
    window degree for all i < d is the Buchsbaum criterion for G.
    """
    if G.is_zero_ring():
        raise ZeroRingError("the quotient ring is zero")
    d = G.krull_dimension()
    unstable = _unstable_rows(table, d - 1)
    if unstable:
        return Verdict("inconclusive", witnesses=[],
                       detail=f"rows {unstable} not stabilized",
                       scope=_scope(table))
    surjectivity = []  # [i, n, 0/1]
    failures = []
    for i in range(d):
        for entry in table.row(i):
            if entry.dim == 0:
                surjectivity.append([i, entry.n, 1])
                continue
            fmap = f_map(G, i, entry.n, entry.power)
            ok = fmap.rank() == entry.dim
            surjectivity.append([i, entry.n, 1 if ok else 0])
            if not ok:
                failures.append({"i": i, "n": entry.n,
                                 "rank": fmap.rank(), "dim": entry.dim})
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
    """Does every variable annihilate the stabilized cohomology below d?"""
    if G.is_zero_ring():
        raise ZeroRingError("the quotient ring is zero")
    d = G.krull_dimension()
    witnesses = []
    for i in range(d):
        ok, extra = annihilator_is_irrelevant(G, i, table)
        if ok is None:
            return Verdict("inconclusive", witnesses=[],
                           detail="; ".join(extra), scope=_scope(table))
        if not ok:
            witnesses.extend(
                {"i": i, "variable": name, "n": n, "representative": rep}
                for name, n, rep in extra)
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
    """Torsion of the irrelevant ideal on a polynomial quotient.

    socle_dim = dim_k (I : M)/I, torsion_dim = dim_k (I : M^inf)/I.  Each
    certificate records a generator g and the least e with g*M^e inside I,
    which makes the dimensions verifiable by normal forms alone.
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


def _span_dims(ideal: Ideal, reps: list[Polynomial], p: int):
    """Rank and by-order histogram of the normal-form classes of reps."""
    forms = [nf for nf in (ideal.normal_form(g) for g in reps) if nf]
    # the pivot columns keep the first form of each new direction
    chosen = [forms[c] for c in linalg.rref(_coefficient_matrix(forms), p)[1]]
    return len(chosen), _order_histogram(ideal, chosen, p), chosen


def _order_histogram(ideal: Ideal, basis: list[Polynomial],
                     p: int) -> dict[int, int]:
    """Dimensions of the induced order filtration on span(basis).

    The order of a class is the largest j with some representative inside
    the j-th power of the irrelevant ideal; it is a property of the coset,
    not of any chosen normal form, so it is computed as the kernel drop of
    span(basis) mapped into ring/(ideal + irrelevant^j).
    """
    k = len(basis)
    if k == 0:
        return {}
    ring = ideal.ring

    def filtration_dim(j: int) -> int:
        gens = list(ideal.generators) + [
            ring.monomial(m) for m in monomials_of_degree(ring, j)]
        layer = Ideal(ring, gens)
        forms = [layer.normal_form(g) for g in basis]
        return k - linalg.rank(_coefficient_matrix(forms), p)

    hist: dict[int, int] = {}
    prev = k  # every class lies in the 0-th filtration step
    for j in range(1, SATURATION_CAP + 2):
        cur = filtration_dim(j)
        if prev - cur:
            hist[j - 1] = prev - cur
        prev = cur
        if cur == 0:
            return hist
    raise SaturationLimitError(SATURATION_CAP)


def _minimal_annihilating_exponent(ideal: Ideal, g: Polynomial,
                                   cap: int) -> int | None:
    ring = ideal.ring
    for e in range(cap + 1):
        if all(ideal.contains(g * ring.monomial(m))
               for m in monomials_of_degree(ring, e)):
            return e
    return None


def local_h0_report(A_ideal: Ideal) -> LocalH0Report:
    """Socle and full torsion of the irrelevant ideal on R/A_ideal."""
    ring = A_ideal.ring
    if not A_ideal.in_irrelevant():
        raise NotInIrrelevantError(
            "the input ideal must lie inside the irrelevant ideal")
    irrelevant = Ideal(ring, ring.gens())
    socle_ideal = ideal_quotient(A_ideal, irrelevant)
    torsion_ideal, s = saturate(A_ideal, irrelevant)
    f0 = socle_ideal.equals(torsion_ideal)

    socle_reps = [g for g in socle_ideal.generators]
    socle_dim, socle_hist, _ = _span_dims(A_ideal, socle_reps, ring.characteristic)

    torsion_gens = list(torsion_ideal.generators)
    reps = []
    for g in torsion_gens:
        for e in range(max(s, 1)):
            for m in monomials_of_degree(ring, e):
                reps.append(g * ring.monomial(m))
    torsion_dim, torsion_hist, _ = _span_dims(A_ideal, reps, ring.characteristic)

    certificates = []
    for g in torsion_gens:
        if A_ideal.contains(g):
            continue
        e = _minimal_annihilating_exponent(A_ideal, g, max(s, 1))
        certificates.append({"generator": str(g), "exponent": e})

    def _strings(ideal: Ideal) -> list[str]:
        return [str(g) for g in ideal.generators if not A_ideal.contains(g)]

    return LocalH0Report(
        socle_dim=socle_dim,
        torsion_dim=torsion_dim,
        socle_generators=_strings(socle_ideal),
        torsion_generators=_strings(torsion_ideal),
        socle_dims_by_order=socle_hist,
        torsion_dims_by_order=torsion_hist,
        certificates=certificates,
        saturation_exponent=s,
        f0_surjective=f0,
    )


def length_comparison_check(table: CohomologyTable,
                            report: LocalH0Report) -> Verdict:
    """Window length of table row 0 against the torsion length on the A side."""
    lg = table.row_length(0)
    scope = _scope(table)
    if lg is None:
        return Verdict("inconclusive",
                       detail="row 0 support not visibly finite in the window",
                       scope=scope)
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


def descent_verdict(A_ideal: Ideal,
                    cfg: StabilizationConfig | None = None) -> DescentReport:
    """Full pipeline: cone, table, checkers, and the transfer of verdicts.

    The A-side Buchsbaum answer is only asserted when it is actually decided:
    directly in dimension one (where surjectivity of the torsion comparison
    is the criterion), or through the two-diagonal hypothesis plus the graded
    verdict in higher dimension.  Otherwise it is reported undecided.
    """
    ring = A_ideal.ring
    IG = initial_forms_ideal(A_ideal)
    G = GradedQuotientRing(IG)
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

    if d == 0:
        a_status, a_source = "yes", "dimension zero: no conditions to check"
    elif d == 1:
        if a_h0.f0_surjective:
            a_status, a_source = "yes", (
                "dimension one: torsion comparison map surjective")
        else:
            a_status, a_source = "no", (
                "dimension one: torsion comparison map not surjective")
    elif two_diag.satisfied and g_b.satisfied:
        a_status, a_source = "yes", (
            "descent: two-diagonal hypothesis holds and the graded ring "
            "passed the surjectivity test")
    elif two_diag.satisfied and g_b.violated:
        a_status, a_source = "no", (
            "descent: two-diagonal hypothesis holds and the graded ring "
            "failed the surjectivity test")
    else:
        a_status, a_source = "undecided", (
            "descent not applicable: two-diagonal hypothesis "
            f"{two_diag.status}; graded surjectivity {g_b.status}")

    if d == 0:
        finiteness = "trivial: dimension zero"
    elif all(table.row_finite_length(i) for i in range(d)):
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
