"""Command-line surface: one subcommand per engine operation.

Exit codes: 0 success, 1 domain error, 2 usage error.  All output is
deterministic for fixed inputs and seeds; randomized subcommands require an
explicit --seed.  CANTORV_CAP overrides enumeration caps.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import algebra, centralizer, cones, elements, stein, terms
from .algebra import AlgebraSpec, SpecError, parse_spec
from .terms import Basis, TermError


class UsageError(ValueError):
    pass


def _int(raw: str, what: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{what} is not an integer: {raw!r}") from None


def _cap(default: int | None = None) -> int | None:
    raw = os.environ.get("CANTORV_CAP")
    if raw is None:
        return default
    return _int(raw, "CANTORV_CAP")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_spec(path: str) -> AlgebraSpec:
    return parse_spec(_read(path))


def _emit(out: str, text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_basis(spec: AlgebraSpec, path: str) -> Basis:
    return terms.parse_basis_text(spec, _read(path))


def _load_elem(spec: AlgebraSpec, path: str):
    return elements.parse_element_text(spec, _read(path))


def _load_cone(spec: AlgebraSpec, path: str):
    return cones.parse_cone_text(spec, _read(path))


def _load_group(spec: AlgebraSpec, path: str):
    return elements.parse_group_text(spec, _read(path), cap=_cap(4096))


def _parse_ints(raw: str) -> list[int]:
    return [_int(x, "index") for x in raw.replace(",", " ").split()]


def _leaf_at(b: Basis, index: int) -> terms.Leaf:
    """The basis's leaf at a 0-based index; a negative index is out of range."""
    if not 0 <= index < len(b):
        raise TermError(f"leaf index {index} out of range for {len(b)} leaves")
    return b.cells[index]


# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------

def _cmd_spec_check(args) -> int:
    spec = _load_spec(args.file)
    print(
        f"valid; d={algebra.compute_d(spec)}; blocks={spec.num_blocks}; "
        f"complete={'true' if algebra.is_complete(spec) else 'false'}"
    )
    return 0


def _cmd_spec_normalize(args) -> int:
    spec = _load_spec(args.file)
    print(algebra.normalize_report(spec))
    return 0


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def _cmd_basis_expand(args) -> int:
    spec = _load_spec(args.spec)
    b = _load_basis(spec, args.file)
    leaf = _leaf_at(b, args.leaf)
    _emit(args.out, terms.basis_to_text(terms.expand(b, leaf, args.color)))
    return 0


def _cmd_basis_contract(args) -> int:
    spec = _load_spec(args.spec)
    b = _load_basis(spec, args.file)
    family = [_leaf_at(b, i) for i in _parse_ints(args.family)]
    _emit(args.out, terms.basis_to_text(terms.contract(b, family, args.color)))
    return 0


def _cmd_basis_admissible(args) -> int:
    spec = _load_spec(args.spec)
    leaves = [
        terms.parse_leaf(spec, line)
        for line in _read(args.file).splitlines()
        if line.strip()
    ]
    ok, _ = terms.is_admissible(spec, leaves)
    print("true" if ok else "false")
    return 0


def _cmd_basis_leq(args) -> int:
    spec = _load_spec(args.spec)
    a = _load_basis(spec, args.a)
    b = _load_basis(spec, args.b)
    print("true" if terms.leq(a, b) else "false")
    return 0


def _binary_basis(args, op) -> int:
    spec = _load_spec(args.spec)
    a = _load_basis(spec, args.a)
    b = _load_basis(spec, args.b)
    _emit(args.out, terms.basis_to_text(op(a, b)))
    return 0


def _cmd_basis_lub(args) -> int:
    return _binary_basis(args, terms.lub)


def _cmd_basis_glb(args) -> int:
    return _binary_basis(args, terms.glb)


def _cmd_basis_core(args) -> int:
    return _binary_basis(args, terms.elementary_core)


def _cmd_basis_enumerate(args) -> int:
    spec = _load_spec(args.spec)
    bases = terms.enumerate_bases(spec, args.max_size, cap=_cap())
    chunks = [terms.basis_to_text(b) for b in bases]
    _emit(args.out, "\n".join(chunks))
    print(f"count={len(bases)}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# elem
# ---------------------------------------------------------------------------

def _cmd_elem_mul(args) -> int:
    spec = _load_spec(args.spec)
    g = _load_elem(spec, args.g)
    h = _load_elem(spec, args.h)
    _emit(args.out, elements.element_to_text(elements.compose(g, h)))
    return 0


def _cmd_elem_inv(args) -> int:
    spec = _load_spec(args.spec)
    g = _load_elem(spec, args.g)
    _emit(args.out, elements.element_to_text(elements.invert(g)))
    return 0


def _cmd_elem_eq(args) -> int:
    spec = _load_spec(args.spec)
    g = _load_elem(spec, args.g)
    h = _load_elem(spec, args.h)
    print("true" if elements.equals(g, h) else "false")
    return 0


def _cmd_elem_reduce(args) -> int:
    spec = _load_spec(args.spec)
    g = _load_elem(spec, args.g)
    _emit(args.out, elements.element_to_text(elements.reduce(g)))
    return 0


def _cmd_elem_order(args) -> int:
    spec = _load_spec(args.spec)
    g = _load_elem(spec, args.g)
    print(elements.order_of(g, args.cap))
    return 0


def _cmd_elem_random(args) -> int:
    spec = _load_spec(args.spec)
    g = elements.random_element(spec, args.size_bound, args.seed)
    _emit(args.out, elements.element_to_text(g))
    return 0


def _cmd_elem_perm(args) -> int:
    spec = _load_spec(args.spec)
    b = _load_basis(spec, args.basis)
    g = elements.permutation_element(b, _parse_ints(args.perm))
    _emit(args.out, elements.element_to_text(g))
    return 0


def _cmd_elem_represent_on(args) -> int:
    spec = _load_spec(args.spec)
    g = _load_elem(spec, args.g)
    y = _load_basis(spec, args.basis)
    rep = elements.represent_on(g, y)
    if rep is None:
        print("NONE")
        return 0
    rng, mapping = rep
    sys.stdout.write(terms.basis_to_text(rng))
    print("map: " + " ".join(str(i) for i in mapping))
    return 0


# ---------------------------------------------------------------------------
# cone
# ---------------------------------------------------------------------------

def _cmd_cone_eq(args) -> int:
    spec = _load_spec(args.spec)
    u = _load_cone(spec, args.u)
    v = _load_cone(spec, args.v)
    print("true" if cones.cone_equals(u, v) else "false")
    return 0


def _cmd_cone_norm(args) -> int:
    spec = _load_spec(args.spec)
    u = _load_cone(spec, args.u)
    print(cones.cone_norm(u))
    return 0


def _cmd_cone_disjoint(args) -> int:
    spec = _load_spec(args.spec)
    u = _load_cone(spec, args.u)
    v = _load_cone(spec, args.v)
    print("true" if cones.cone_disjoint(u, v) else "false")
    return 0


def _cmd_cone_act(args) -> int:
    spec = _load_spec(args.spec)
    g = _load_elem(spec, args.elem)
    u = _load_cone(spec, args.u)
    _emit(args.out, cones.cone_to_text(cones.act(g, u)))
    return 0


def _tuple_from(spec: AlgebraSpec, paths) -> cones.ConeTuple:
    return cones.ConeTuple(spec, [_load_cone(spec, p) for p in paths])


def _cmd_cone_classify(args) -> int:
    spec = _load_spec(args.spec)
    t = _tuple_from(spec, args.cones)
    print(" ".join(str(n) for n in cones.tuple_classify(t)))
    print(f"stabilizer={cones.stabilizer_shape_report(t)}")
    return 0


def _cmd_cone_witness(args) -> int:
    spec = _load_spec(args.spec)
    t1 = _tuple_from(spec, args.left)
    t2 = _tuple_from(spec, args.right)
    g = cones.tuple_witness(t1, t2)
    if g is None:
        print("NONE")
        return 0
    _emit(args.out, elements.element_to_text(g))
    return 0


def _cmd_cone_disjointify(args) -> int:
    spec = _load_spec(args.spec)
    t = _tuple_from(spec, args.cones)
    parts = cones.disjointify(t)
    _emit(args.out, "--\n".join(cones.cone_to_text(c) for c in parts.cones))
    return 0


# ---------------------------------------------------------------------------
# centralizer / normalizer
# ---------------------------------------------------------------------------

def _type_report(args):
    """The group's invariant-basis report and the quotient spec of the
    orbit type ``args.type``."""
    q = _load_group(_load_spec(args.spec), args.group)
    report = centralizer.invariant_basis_report(q)
    if args.type not in report.types:
        raise TermError(f"no orbit type {args.type!r}; the group has {', '.join(report.types)}")
    return report, centralizer.quotient_spec(q.spec, report.types[args.type].r)


def _cmd_centralizer_analyze(args) -> int:
    spec = _load_spec(args.spec)
    q = _load_group(spec, args.group)
    structure = centralizer.centralizer_structure(q)
    for line in structure.lines():
        print(line)
    return 0


def _parse_kernel(spec_q, text: str):
    cells = []
    labels = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            leaf_part, perm_part = line.split("->")
            label = tuple(_parse_ints(perm_part))
        except ValueError:
            raise TermError(f"bad kernel line: {line!r}") from None
        leaf = terms.parse_leaf(spec_q, leaf_part.strip())
        cells.append(leaf)
        labels[leaf] = label
    basis = Basis.from_cells(spec_q, cells)
    return centralizer.KernelElement(spec_q, basis, labels)


def _cmd_centralizer_build_kernel(args) -> int:
    report, qspec = _type_report(args)
    kern = _parse_kernel(qspec, _read(args.kernel))
    g = centralizer.build_kernel_element(report, args.type, kern)
    _emit(args.out, elements.element_to_text(g))
    return 0


def _cmd_centralizer_lift(args) -> int:
    report, qspec = _type_report(args)
    v = elements.parse_element_text(qspec, _read(args.elem))
    g = centralizer.splitting_lift(report, args.type, v)
    _emit(args.out, elements.element_to_text(g))
    return 0


def _cmd_centralizer_encode(args) -> int:
    report, qspec = _type_report(args)
    kern = _parse_kernel(qspec, _read(args.kernel))
    letters = centralizer.type_centralizer_L(report, args.type)
    tup = centralizer.encode_kernel_element(kern, letters)
    _emit(args.out, "--\n".join(cones.cone_to_text(c) for c in tup.cones))
    return 0


def _cmd_normalizer_analyze(args) -> int:
    spec = _load_spec(args.spec)
    q = _load_group(spec, args.group)
    rep = centralizer.normalizer_analysis(q, cap=args.cap)
    for line in rep.lines():
        print(line)
    return 0


# ---------------------------------------------------------------------------
# stein
# ---------------------------------------------------------------------------

def _print_f_vector(cx) -> None:
    print("dim\tcount")
    for d, count in sorted(cx.f_vector().items()):
        print(f"{d}\t{count}")


def _cmd_stein_build(args) -> int:
    spec = _load_spec(args.spec)
    cx = stein.build_stein(spec, args.size_cap, cap=_cap())
    _print_f_vector(cx)
    return 0


def _cmd_stein_link(args) -> int:
    spec = _load_spec(args.spec)
    cx = stein.descending_link(spec, args.size, very=args.very)
    _print_f_vector(cx)
    return 0


def _cmd_stein_heights(args) -> int:
    spec = _load_spec(args.spec)
    a = _load_basis(spec, args.a)
    b = _load_basis(spec, args.b)
    h = stein.height(a, b)
    print(" ".join(str(x) for x in h))
    return 0


def _link_complex(args, spec):
    if args.kn is not None:
        return stein.model_Kn(spec, args.kn)
    if args.link is None:
        raise UsageError("homology needs --link <size> or --kn <n>")
    return stein.descending_link(spec, args.link, very=args.very)


def _cmd_stein_homology(args) -> int:
    spec = _load_spec(args.spec)
    cx = _link_complex(args, spec)
    rep = stein.homology(cx, rational=args.rational)
    print("dim\tbetti_gf2" + ("\tbetti_rational" if args.rational else ""))
    for d in sorted(rep.betti_gf2):
        line = f"{d}\t{rep.betti_gf2[d]}"
        if args.rational:
            line += f"\t{rep.betti_rational[d]}"
        print(line)
    print(f"euler\t{rep.euler}")
    return 0


def _cmd_stein_kn(args) -> int:
    spec = _load_spec(args.spec)
    cx = stein.model_Kn(spec, args.n)
    _print_f_vector(cx)
    print(f"components\t{cx.connected_components()}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantor-v",
        description="Exact computation in generalised Higman-Thompson groups",
    )
    sub = parser.add_subparsers(dest="group_cmd", required=True)

    def add(subparsers, name, fn, **kwargs):
        p = subparsers.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    spec_p = sub.add_parser("spec").add_subparsers(dest="cmd", required=True)
    p = add(spec_p, "check", _cmd_spec_check)
    p.add_argument("file")
    p = add(spec_p, "normalize", _cmd_spec_normalize)
    p.add_argument("file")

    basis_p = sub.add_parser("basis").add_subparsers(dest="cmd", required=True)
    for name, fn in [("expand", _cmd_basis_expand), ("contract", _cmd_basis_contract)]:
        p = add(basis_p, name, fn)
        p.add_argument("--spec", required=True)
        p.add_argument("file")
        p.add_argument("--color", type=int, required=True)
        p.add_argument("--out", default="")
        if name == "expand":
            p.add_argument("--leaf", type=int, required=True)
        else:
            p.add_argument("--family", required=True)
    p = add(basis_p, "admissible", _cmd_basis_admissible)
    p.add_argument("--spec", required=True)
    p.add_argument("file")
    p = add(basis_p, "leq", _cmd_basis_leq)
    p.add_argument("--spec", required=True)
    p.add_argument("a")
    p.add_argument("b")
    for name, fn in [("lub", _cmd_basis_lub), ("glb", _cmd_basis_glb), ("core", _cmd_basis_core)]:
        p = add(basis_p, name, fn)
        p.add_argument("--spec", required=True)
        p.add_argument("a")
        p.add_argument("b")
        p.add_argument("--out", default="")
    p = add(basis_p, "enumerate", _cmd_basis_enumerate)
    p.add_argument("--spec", required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--out", default="")

    elem_p = sub.add_parser("elem").add_subparsers(dest="cmd", required=True)
    p = add(elem_p, "mul", _cmd_elem_mul)
    p.add_argument("--spec", required=True)
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--out", default="")
    p = add(elem_p, "inv", _cmd_elem_inv)
    p.add_argument("--spec", required=True)
    p.add_argument("g")
    p.add_argument("--out", default="")
    p = add(elem_p, "eq", _cmd_elem_eq)
    p.add_argument("--spec", required=True)
    p.add_argument("g")
    p.add_argument("h")
    p = add(elem_p, "reduce", _cmd_elem_reduce)
    p.add_argument("--spec", required=True)
    p.add_argument("g")
    p.add_argument("--out", default="")
    p = add(elem_p, "order", _cmd_elem_order)
    p.add_argument("--spec", required=True)
    p.add_argument("g")
    p.add_argument("--cap", type=int, default=64)
    p = add(elem_p, "random", _cmd_elem_random)
    p.add_argument("--spec", required=True)
    p.add_argument("--size-bound", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="")
    p = add(elem_p, "perm", _cmd_elem_perm)
    p.add_argument("--spec", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--perm", required=True)
    p.add_argument("--out", default="")
    p = add(elem_p, "represent-on", _cmd_elem_represent_on)
    p.add_argument("--spec", required=True)
    p.add_argument("g")
    p.add_argument("--basis", required=True)

    cone_p = sub.add_parser("cone").add_subparsers(dest="cmd", required=True)
    p = add(cone_p, "eq", _cmd_cone_eq)
    p.add_argument("--spec", required=True)
    p.add_argument("u")
    p.add_argument("v")
    p = add(cone_p, "norm", _cmd_cone_norm)
    p.add_argument("--spec", required=True)
    p.add_argument("u")
    p = add(cone_p, "disjoint", _cmd_cone_disjoint)
    p.add_argument("--spec", required=True)
    p.add_argument("u")
    p.add_argument("v")
    p = add(cone_p, "act", _cmd_cone_act)
    p.add_argument("--spec", required=True)
    p.add_argument("--elem", required=True)
    p.add_argument("u")
    p.add_argument("--out", default="")
    p = add(cone_p, "classify", _cmd_cone_classify)
    p.add_argument("--spec", required=True)
    p.add_argument("cones", nargs="+")
    p = add(cone_p, "witness", _cmd_cone_witness)
    p.add_argument("--spec", required=True)
    p.add_argument("--left", nargs="+", required=True)
    p.add_argument("--right", nargs="+", required=True)
    p.add_argument("--out", default="")
    p = add(cone_p, "disjointify", _cmd_cone_disjointify)
    p.add_argument("--spec", required=True)
    p.add_argument("cones", nargs="+")
    p.add_argument("--out", default="")

    cz_p = sub.add_parser("centralizer").add_subparsers(dest="cmd", required=True)
    p = add(cz_p, "analyze", _cmd_centralizer_analyze)
    p.add_argument("--spec", required=True)
    p.add_argument("--group", required=True)
    p = add(cz_p, "build-kernel", _cmd_centralizer_build_kernel)
    p.add_argument("--spec", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--out", default="")
    p = add(cz_p, "lift", _cmd_centralizer_lift)
    p.add_argument("--spec", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--elem", required=True)
    p.add_argument("--out", default="")
    p = add(cz_p, "encode", _cmd_centralizer_encode)
    p.add_argument("--spec", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--out", default="")

    nz_p = sub.add_parser("normalizer").add_subparsers(dest="cmd", required=True)
    p = add(nz_p, "analyze", _cmd_normalizer_analyze)
    p.add_argument("--spec", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--cap", type=int, default=40320)

    stein_p = sub.add_parser("stein").add_subparsers(dest="cmd", required=True)
    p = add(stein_p, "build", _cmd_stein_build)
    p.add_argument("--spec", required=True)
    p.add_argument("--size-cap", type=int, required=True)
    p = add(stein_p, "link", _cmd_stein_link)
    p.add_argument("--spec", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--very", action="store_true")
    p = add(stein_p, "heights", _cmd_stein_heights)
    p.add_argument("--spec", required=True)
    p.add_argument("a")
    p.add_argument("b")
    p = add(stein_p, "homology", _cmd_stein_homology)
    p.add_argument("--spec", required=True)
    p.add_argument("--link", type=int)
    p.add_argument("--kn", type=int)
    p.add_argument("--very", action="store_true")
    p.add_argument("--rational", action="store_true")
    p = add(stein_p, "kn", _cmd_stein_kn)
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)

    return parser


DOMAIN_ERRORS = (
    SpecError,
    TermError,
    terms.ResourceCapError,
    elements.CapExceededError,
    cones.ConeError,
    elements.IterationCapExceededError,
    centralizer.BruteForceCapError,
    stein.ComplexError,
    FileNotFoundError,
    KeyError,
)


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:  # pragma: no cover - console entry point
    sys.exit(run(sys.argv[1:]))
