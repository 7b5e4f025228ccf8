"""Print a graded local-cohomology table for a corpus ring.

Each entry (i, n) is the Koszul cohomology [H^i(x^T(n); G)]_n at the power
T(n) from which it equals [H^i_M(G)]_n exactly.

Run:  python3 demos/cohomology_table_demo.py
"""

from formring import (
    GradedQuotientRing,
    Ideal,
    PolyRing,
    StabilizationConfig,
    local_coh_table,
)
from formring.dsl import parse_session


def parse_generators(variables, generators):
    """Parse generator strings through the input-language grammar."""

    ring = PolyRing(variables, 32003)
    if not generators:
        return ring, []
    text = (f"char 32003; vars {','.join(variables)}; "
            f"ideal I = {', '.join(generators)};")
    decl = parse_session(text).ideals["I"]
    return ring, [p.materialize(ring) for p in decl.polynomials]


def show(name, variables, generators, window, i_max):
    ring, gens = parse_generators(variables, generators)
    G = GradedQuotientRing(Ideal(ring, gens))
    cfg = StabilizationConfig(n_lo=window[0], n_hi=window[1])
    table = local_coh_table(G, i_max=i_max, cfg=cfg)

    print(f"== {name} ==")
    print(f"   quotient by ({', '.join(generators) or '0'}),"
          f" dimension {G.krull_dimension()}")
    header = "    n:" + "".join(f"{n:>4}" for n in
                                range(window[0], window[1] + 1))
    print(header)
    for i in range(i_max + 1):
        row = f"  H^{i}:"
        for n in range(window[0], window[1] + 1):
            d = table.dim(i, n)
            row += f"{d if d else '.':>4}"
        print(row)
    print()


def main() -> None:
    # An Artinian quotient: everything lives in row 0.
    show("two coordinate axes squared", ("x", "y"), ("x^2", "y^2"),
         (-3, 3), i_max=2)
    # A line with an embedded point: torsion in row 0, a tail in row 1.
    show("line with embedded point", ("x", "y"), ("x^2", "x*y"),
         (-3, 3), i_max=2)
    # Two planes meeting in a line: the middle row does not vanish,
    # and its infinite tail of 1s is the obstruction measured by the
    # two-diagonal admissibility check.
    show("two planes through a line", ("x", "y", "z"), ("x*z", "y*z"),
         (-4, 2), i_max=3)
    # A hypersurface: only the top row, pure tail.
    show("hypersurface x*y = 0", ("x", "y", "z"), ("x*y",),
         (-4, 2), i_max=3)


if __name__ == "__main__":
    main()
