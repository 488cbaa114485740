#!/usr/bin/env python3
"""Survey descending links across the bundled specs.

For each spec and basis size t, tabulate link vertex counts, the
very-elementary sublink against the model complex, case counts, and the
homology of every case-i uplink (expected: reduced homology vanishes);
then the reduced GF(2) Betti numbers of the model complexes and of the
descending links themselves.  The last table shows Brown's criterion at
work: the reduced homology of the t-link vanishes up to a degree that
grows with t.

Usage: python scripts/survey_links.py [--max-t 6]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cantorv.algebra import parse_spec
from cantorv.stein import (
    classify_vertex,
    descending_link,
    h_descending_link,
    homology,
    l0_matches_model,
    link_vertices,
    model_Kn,
)

SPECS = {
    "v21": "roots=1; block[2]",
    "v31": "roots=1; block[3]",
    "2v": "roots=1; block[2]; block[2]",
    "stein23": "roots=1; block[2,3]",
    "brin23": "roots=1; block[2]; block[3]",
    "mixed232": "roots=1; block[2,3]; block[2]",
}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-t", type=int, default=6)
    args = ap.parse_args()

    print("spec\tt\tvertices\tcase_i\tcase_ii\tl0=sd(model)\tuplinks_vanish")
    for name, src in SPECS.items():
        spec = parse_spec(src)
        for t in range(2, args.max_t + 1):
            verts = link_vertices(spec, t)
            cases = {"very-elementary": 0, "i": 0, "ii": 0}
            vanish = True
            for v in verts:
                kind = classify_vertex(spec, v)
                cases[kind] += 1
                if kind == "i":
                    rep = h_descending_link(spec, t, v)
                    if not homology(rep.uplink).reduced_vanishes():
                        vanish = False
            print(
                f"{name}\t{t}\t{len(verts)}\t{cases['i']}\t{cases['ii']}\t"
                f"{l0_matches_model(spec, t)}\t{vanish}"
            )

    print("\nmodel complex Betti numbers (reduced, GF(2)):")
    print("spec\tn\tf_vector\tbetti")
    for name, src in SPECS.items():
        spec = parse_spec(src)
        for n in range(2, args.max_t + 1):
            kn = model_Kn(spec, n)
            if kn.is_empty():
                continue
            rep = homology(kn)
            print(f"{name}\t{n}\t{kn.f_vector()}\t{rep.betti_gf2}")

    print("\ndescending link Betti numbers (reduced, GF(2)):")
    print("spec\tt\tf_vector\tbetti")
    for name, src in SPECS.items():
        spec = parse_spec(src)
        for t in range(2, args.max_t + 1):
            link = descending_link(spec, t)
            rep = homology(link)
            print(f"{name}\t{t}\t{link.f_vector()}\t{rep.betti_gf2}")


if __name__ == "__main__":
    main()
