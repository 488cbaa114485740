#!/usr/bin/env python3
"""Walk through the centraliser pipeline on two finite subgroups.

Shows: the minimal invariant basis, orbit types, the letter centralisers,
the structural statement, Weyl data, and a round trip through the
build/decompose pair for a few constructed centralising elements.

Usage: python scripts/centralizer_demo.py
"""

import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cantorv.algebra import parse_spec
from cantorv.centralizer import (
    KernelElement,
    build_kernel_element,
    centralizer_structure,
    decompose_fixing_element,
    normalizer_analysis,
    quotient_spec,
    splitting_lift,
    type_centralizer_L,
)
from cantorv.elements import close_subgroup, compose, equals, permutation_element, random_element
from cantorv.terms import Basis, basis_to_text, expand


def analyze(title, spec, q):
    print(f"== {title}")
    structure = centralizer_structure(q)
    report = structure.report
    print("minimal invariant basis:")
    print(basis_to_text(report.basis), end="")
    for line in structure.lines():
        print(line)
    nrep = normalizer_analysis(q)
    for line in nrep.lines():
        print(line)
    rng = random.Random(0)
    for tid, tdata in report.types.items():
        L = type_centralizer_L(report, tid)
        qs = quotient_spec(spec, tdata.r)
        roots = Basis.roots(qs)
        labels = {c: L[rng.randrange(len(L))] for c in roots.cells}
        x = build_kernel_element(report, tid, KernelElement(qs, roots, labels))
        lifted = splitting_lift(report, tid, random_element(qs, qs.roots + 2, 5))
        both = compose(x, lifted)
        assert all(equals(compose(both, g), compose(g, both)) for g in q)
        print(f"type={tid}: sample kernel+lift element commutes with the subgroup")
        decomposition = decompose_fixing_element(report, x)
        print(f"type={tid}: kernel sample decomposes as {decomposition}")
    print()


def main() -> None:
    v21 = parse_spec("roots=1; block[2]")
    x = Basis.roots(v21)
    halves = expand(x, x.cells[0], 0)
    sigma = permutation_element(halves, [1, 0])
    analyze("order-2 swap on the halves", v21, close_subgroup([sigma], 8))

    b3 = expand(halves, halves.cells[1], 0)
    tau = permutation_element(b3, [0, 2, 1])
    analyze("order-2 swap with a fixed leaf (two orbit types)", v21, close_subgroup([tau], 8))

    v31 = parse_spec("roots=1; block[3]")
    x3 = Basis.roots(v31)
    thirds = expand(x3, x3.cells[0], 0)
    rho = permutation_element(thirds, [1, 2, 0])
    analyze("3-cycle on the thirds", v31, close_subgroup([rho], 8))


if __name__ == "__main__":
    main()
