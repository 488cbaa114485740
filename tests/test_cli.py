import io
import contextlib
import os
import pathlib
import subprocess
import sys

import pytest

from cantorv import terms
from cantorv.cli import run
from cantorv.elements import (
    close_subgroup,
    compose,
    element_to_text,
    equals,
    group_to_text,
    parse_element_text,
    permutation_element,
    random_element,
)
from cantorv.terms import Basis, basis_to_text, expand, parse_basis_text
from oracles import scan_normalizer
from test_centralizer import psl27_generators
from test_elements import FOUR_LEAF_CONJUGATE, _x0
from test_terms import _balanced


def _capture(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


@pytest.fixture()
def spec_file(data_dir):
    return str(data_dir / "v21.alg")


@pytest.fixture()
def stein_file(data_dir):
    return str(data_dir / "stein23.alg")


def test_spec_check_output(data_dir, stein_file):
    code, out = _capture(["spec", "check", stein_file])
    assert code == 0
    assert out.strip() == "valid; d=1; blocks=1; complete=true"
    code, out = _capture(["spec", "check", str(data_dir / "2v.alg")])
    assert out.strip() == "valid; d=1; blocks=2; complete=true"


def test_spec_check_rejects_bad_spec(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("roots=1; block[2,4]\n")
    code, _ = _capture(["spec", "check", str(bad)])
    assert code == 1


def test_spec_normalize(data_dir):
    code, out = _capture(["spec", "normalize", str(data_dir / "v31.alg")])
    assert code == 0 and "minimal" in out


def test_usage_error_returns_2():
    code, _ = _capture(["basis"])
    assert code == 2
    code, _ = _capture(["nonsense"])
    assert code == 2


def test_basis_round_trip_via_cli(tmp_path, spec_file, v21):
    x = Basis.roots(v21)
    p = tmp_path / "x.basis"
    p.write_text(basis_to_text(x))
    out_p = tmp_path / "h.basis"
    code, _ = _capture(
        ["basis", "expand", "--spec", spec_file, str(p), "--leaf", "0",
         "--color", "0", "--out", str(out_p)]
    )
    assert code == 0
    halves = parse_basis_text(v21, out_p.read_text())
    assert len(halves) == 2
    code, out = _capture(
        ["basis", "contract", "--spec", spec_file, str(out_p),
         "--family", "0,1", "--color", "0"]
    )
    assert code == 0
    assert parse_basis_text(v21, out) == x


def test_basis_lub_figure_two(tmp_path, stein_file, stein23):
    x = Basis.roots(stein23)
    h = expand(x, x.cells[0], 0)
    t = expand(x, x.cells[0], 1)
    pa = tmp_path / "a.basis"
    pb = tmp_path / "b.basis"
    pa.write_text(basis_to_text(h))
    pb.write_text(basis_to_text(t))
    code, out = _capture(["basis", "lub", "--spec", stein_file, str(pa), str(pb)])
    assert code == 0
    assert len(parse_basis_text(stein23, out)) == 6


def test_basis_admissible_witness(tmp_path, stein_file):
    bad = tmp_path / "w.basis"
    bad.write_text("root:0 [0/1,1/2)\nroot:0 [1/2,2/3)\nroot:0 [2/3,1/1)\n")
    code, out = _capture(["basis", "admissible", "--spec", stein_file, str(bad)])
    assert code == 0 and out.strip() == "false"


def test_basis_leq_and_glb(tmp_path, spec_file, v21):
    x = Basis.roots(v21)
    h = expand(x, x.cells[0], 0)
    pa = tmp_path / "x.basis"
    pb = tmp_path / "h.basis"
    pa.write_text(basis_to_text(x))
    pb.write_text(basis_to_text(h))
    code, out = _capture(["basis", "leq", "--spec", spec_file, str(pa), str(pb)])
    assert out.strip() == "true"
    code, out = _capture(["basis", "glb", "--spec", spec_file, str(pa), str(pb)])
    assert parse_basis_text(v21, out) == x


def test_basis_glb_and_core_of_deep_bases(tmp_path, spec_file, v21, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("glb listed a lower closure")

    monkeypatch.setattr(terms, "lower_closure", no_search)
    x = _balanced(v21, 5)
    first = expand(x, x.cells[0], 0)
    last = expand(x, x.cells[-1], 0)
    both = expand(first, x.cells[-1], 0)
    paths = {}
    for name, b in (("x", x), ("first", first), ("last", last), ("both", both)):
        paths[name] = tmp_path / f"{name}.basis"
        paths[name].write_text(basis_to_text(b))
    code, out = _capture(["basis", "glb", "--spec", spec_file, str(paths["first"]),
                          str(paths["last"])])
    assert code == 0 and out == basis_to_text(x)
    code, out = _capture(["basis", "core", "--spec", spec_file, str(paths["x"]),
                          str(paths["both"])])
    assert code == 0 and out == basis_to_text(both)


def test_basis_enumerate_cap(tmp_path, spec_file, monkeypatch):
    monkeypatch.setenv("CANTORV_CAP", "2")
    code, _ = _capture(["basis", "enumerate", "--spec", spec_file, "--max-size", "6"])
    assert code == 1
    monkeypatch.delenv("CANTORV_CAP")
    code, _ = _capture(["basis", "enumerate", "--spec", spec_file, "--max-size", "4"])
    assert code == 0


def test_elem_pipeline(tmp_path, spec_file, v21):
    code, _ = _capture(
        ["elem", "random", "--spec", spec_file, "--size-bound", "5",
         "--seed", "3", "--out", str(tmp_path / "g.elem")]
    )
    assert code == 0
    code, _ = _capture(
        ["elem", "inv", "--spec", spec_file, str(tmp_path / "g.elem"),
         "--out", str(tmp_path / "gi.elem")]
    )
    assert code == 0
    code, _ = _capture(
        ["elem", "mul", "--spec", spec_file, str(tmp_path / "g.elem"),
         str(tmp_path / "gi.elem"), "--out", str(tmp_path / "e.elem")]
    )
    assert code == 0
    code, out = _capture(["elem", "order", "--spec", spec_file, str(tmp_path / "e.elem")])
    assert out.strip() == "1"
    code, out = _capture(
        ["elem", "eq", "--spec", spec_file, str(tmp_path / "g.elem"),
         str(tmp_path / "gi.elem")]
    )
    assert out.strip() in {"true", "false"}


def test_one_file_may_stand_for_two_arguments(tmp_path, spec_file, v21):
    g = random_element(v21, 5, 3)
    pg = tmp_path / "g.elem"
    pg.write_text(element_to_text(g))
    code, out = _capture(["elem", "mul", "--spec", spec_file, str(pg), str(pg)])
    assert code == 0 and out == element_to_text(compose(g, g))
    code, out = _capture(["elem", "eq", "--spec", spec_file, str(pg), str(pg)])
    assert code == 0 and out.strip() == "true"
    pa = tmp_path / "x.basis"
    pa.write_text(basis_to_text(Basis.roots(v21)))
    code, out = _capture(["basis", "leq", "--spec", spec_file, str(pa), str(pa)])
    assert code == 0 and out.strip() == "true"
    pu = tmp_path / "u.cone"
    pu.write_text("root:0 [0/1,1/2)\n")
    code, out = _capture(["cone", "eq", "--spec", spec_file, str(pu), str(pu)])
    assert code == 0 and out.strip() == "true"


def test_elem_random_deterministic(tmp_path, spec_file):
    args = ["elem", "random", "--spec", spec_file, "--size-bound", "6", "--seed", "9"]
    _, out1 = _capture(args)
    _, out2 = _capture(args)
    assert out1 == out2


def test_elem_perm_and_represent(tmp_path, spec_file, v21):
    x = Basis.roots(v21)
    h = expand(x, x.cells[0], 0)
    pb = tmp_path / "h.basis"
    pb.write_text(basis_to_text(h))
    code, _ = _capture(
        ["elem", "perm", "--spec", spec_file, "--basis", str(pb),
         "--perm", "1,0", "--out", str(tmp_path / "s.elem")]
    )
    assert code == 0
    code, out = _capture(
        ["elem", "represent-on", "--spec", spec_file, str(tmp_path / "s.elem"),
         "--basis", str(pb)]
    )
    assert code == 0 and "map: 1 0" in out
    px = tmp_path / "x.basis"
    px.write_text(basis_to_text(x))
    code, out = _capture(
        ["elem", "represent-on", "--spec", spec_file, str(tmp_path / "s.elem"),
         "--basis", str(px)]
    )
    assert out.strip() == "NONE"


def test_cone_subcommands(tmp_path, spec_file, v21):
    x = Basis.roots(v21)
    h = expand(x, x.cells[0], 0)
    left = tmp_path / "l.cone"
    right = tmp_path / "r.cone"
    left.write_text("root:0 [0/1,1/2)\n")
    right.write_text("root:0 [1/2,1/1)\n")
    code, out = _capture(["cone", "eq", "--spec", spec_file, str(left), str(right)])
    assert out.strip() == "false"
    code, out = _capture(["cone", "disjoint", "--spec", spec_file, str(left), str(right)])
    assert out.strip() == "true"
    code, out = _capture(["cone", "norm", "--spec", spec_file, str(left)])
    assert out.strip() == "1"
    code, out = _capture(
        ["cone", "classify", "--spec", spec_file, str(left), str(right)]
    )
    assert out.splitlines()[0] == "1 1"
    sig = tmp_path / "s.elem"
    pb = tmp_path / "h.basis"
    pb.write_text(basis_to_text(h))
    _capture(["elem", "perm", "--spec", spec_file, "--basis", str(pb),
              "--perm", "1,0", "--out", str(sig)])
    code, out = _capture(
        ["cone", "act", "--spec", spec_file, "--elem", str(sig), str(left)]
    )
    assert code == 0 and out == "root:0 [1/2,1/1)\n"
    code, out = _capture(
        ["cone", "witness", "--spec", spec_file, "--left", str(left), str(right),
         "--right", str(right), str(left)]
    )
    assert code == 0 and "perm:" in out
    code, out = _capture(
        ["cone", "disjointify", "--spec", spec_file, str(left), str(right)]
    )
    assert code == 0 and out.count("--") == 2


def test_centralizer_cli(tmp_path, spec_file, v21):
    x = Basis.roots(v21)
    h = expand(x, x.cells[0], 0)
    sigma = permutation_element(h, [1, 0])
    q = close_subgroup([sigma], 8)
    grp = tmp_path / "q.grp"
    grp.write_text(group_to_text(q))
    code, out = _capture(
        ["centralizer", "analyze", "--spec", spec_file, "--group", str(grp)]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t_realized=1"
    assert lines[1].startswith("type=regular m=2 r=1 |L|=2")
    kern = tmp_path / "k.kern"
    kern.write_text("root:0 [0/1,1/1) -> 1,0\n")
    code, out = _capture(
        ["centralizer", "build-kernel", "--spec", spec_file, "--group", str(grp),
         "--type", "regular", "--kernel", str(kern)]
    )
    assert code == 0
    built = parse_element_text(v21, out)
    assert equals(built, sigma)
    elem = tmp_path / "v.elem"
    elem.write_text(element_to_text(random_element(v21, 4, 2)))
    code, out = _capture(
        ["centralizer", "lift", "--spec", spec_file, "--group", str(grp),
         "--type", "regular", "--elem", str(elem)]
    )
    assert code == 0
    lifted = parse_element_text(v21, out)
    assert equals(compose_check(lifted, sigma), compose_check(sigma, lifted))
    code, out = _capture(
        ["centralizer", "encode", "--spec", spec_file, "--group", str(grp),
         "--type", "regular", "--kernel", str(kern)]
    )
    assert code == 0 and out.count("--") == 1


def test_centralizer_cli_on_a_conjugated_subgroup(tmp_path, spec_file):
    grp = tmp_path / "g.grp"
    grp.write_text(FOUR_LEAF_CONJUGATE)
    code, out = _capture(
        ["centralizer", "analyze", "--spec", spec_file, "--group", str(grp)]
    )
    assert code == 0
    assert out.splitlines() == [
        "t_realized=1",
        "type=regular m=4 r=2 |L|=4 L=0,1,2,3 1,0,3,2 2,3,1,0 3,2,0,1",
        "C = (K[regular] x| V_2)",
        "note: raw orbit counts reported; counts mod d=1 lie in (0, d]",
    ]


def test_centralizer_cli_refuses_an_infinite_order_generator(tmp_path, spec_file, v21):
    # x0 has infinite order: under the CLI's group cap of 4096 elements the
    # closure must end in a typed error, not run for days
    grp = tmp_path / "x0.grp"
    grp.write_text(element_to_text(_x0(v21)))
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "CANTORV_CAP"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "from cantorv.cli import main; main()",
         "centralizer", "analyze", "--spec", spec_file, "--group", str(grp)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error:")


def compose_check(a, b):
    from cantorv.elements import compose

    return compose(a, b)


def test_normalizer_cli(tmp_path, data_dir, v31):
    x = Basis.roots(v31)
    thirds = expand(x, x.cells[0], 0)
    q = close_subgroup([permutation_element(thirds, [1, 2, 0])], 8)
    grp = tmp_path / "q3.grp"
    grp.write_text(group_to_text(q))
    code, out = _capture(
        ["normalizer", "analyze", "--spec", str(data_dir / "v31.alg"),
         "--group", str(grp)]
    )
    assert code == 0
    assert "weyl=2" in out


def test_normalizer_cli_on_eight_leaves_matches_the_scan(tmp_path, spec_file, v21):
    gens = psl27_generators(v21)
    grp = tmp_path / "psl27.grp"
    grp.write_text("--\n".join(element_to_text(g) for g in gens))
    argv = ["normalizer", "analyze", "--spec", spec_file, "--group", str(grp)]
    code, out = _capture(argv)
    assert code == 0
    assert out.splitlines() == scan_normalizer(close_subgroup(gens, 200)).lines()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = _capture([*argv, "--cap", "40319"])
    assert (code, out) == (1, "")
    assert err.getvalue() == "error: |S(Y)| = 8! exceeds cap 40319\n"


def test_stein_cli(spec_file):
    code, out = _capture(["stein", "build", "--spec", spec_file, "--size-cap", "2"])
    assert code == 0
    assert out == "dim\tcount\n0\t2\n1\t1\n"
    code, out = _capture(["stein", "kn", "--spec", spec_file, "--n", "4"])
    assert "components\t3" in out
    code, out = _capture(["stein", "link", "--spec", spec_file, "--size", "3"])
    assert code == 0
    code, out = _capture(
        ["stein", "homology", "--spec", spec_file, "--kn", "4", "--rational"]
    )
    assert "0\t2\t2" in out
    code, _ = _capture(["stein", "homology", "--spec", spec_file])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["link", "--size", "-3"],
    ["homology", "--link", "-4"],
    ["homology", "--kn", "-2"],
    ["kn", "--n", "-2"],
])
def test_stein_negative_sizes_are_domain_errors(spec_file, argv):
    _assert_domain_error(["stein", *argv, "--spec", spec_file])


def test_stein_heights_cli(tmp_path, data_dir, brin2v):
    x = Basis.roots(brin2v)
    grid = x
    grid = expand(grid, grid.cells[0], 0)
    for cell in list(grid.cells):
        grid = expand(grid, cell, 1)
    pa = tmp_path / "a.basis"
    pb = tmp_path / "b.basis"
    pa.write_text(basis_to_text(grid))
    pb.write_text(basis_to_text(x))
    code, out = _capture(
        ["stein", "heights", "--spec", str(data_dir / "2v.alg"), str(pa), str(pb)]
    )
    assert code == 0 and out.strip() == "4 1"


def test_missing_file_is_domain_error(spec_file):
    code, _ = _capture(["basis", "leq", "--spec", spec_file, "/nope/a", "/nope/b"])
    assert code == 1


# -- malformed numbers in file text ------------------------------------------

def _assert_typed_error(argv, expected):
    """Exit code 1 with ``error: ...`` or 2 with ``usage error: ...``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    prefix = {1: "error: ", 2: "usage error: "}[expected]
    assert code == expected
    assert any(line.startswith(prefix) for line in err.getvalue().splitlines())
    assert "Traceback" not in err.getvalue() + out.getvalue()


def _assert_domain_error(argv):
    _assert_typed_error(argv, 1)


@pytest.mark.parametrize("line", [
    "root:x [0/1,1/1)",
    "root:0 [a,1)",
    "root:0 [0/1)",
    "root:0 [0/1,1/0)",
])
def test_malformed_leaf_numbers_are_domain_errors(tmp_path, spec_file, line):
    bad = tmp_path / "bad.basis"
    bad.write_text(line + "\n")
    _assert_domain_error(["basis", "admissible", "--spec", spec_file, str(bad)])
    cone = tmp_path / "bad.cone"
    cone.write_text(line + "\n")
    _assert_domain_error(["cone", "norm", "--spec", spec_file, str(cone)])


@pytest.mark.parametrize("text", [
    "domain:\nE zero 0\nrange:\nperm: 0\n",
    "domain:\nrange:\nperm: x\n",
])
def test_malformed_element_numbers_are_domain_errors(tmp_path, spec_file, text):
    bad = tmp_path / "bad.elem"
    bad.write_text(text)
    _assert_domain_error(["elem", "reduce", "--spec", spec_file, str(bad)])


@pytest.mark.parametrize("text", [
    "root:0 [0/1,1/1) 1,0\n",
    "root:0 [0/1,1/1) -> a,b\n",
])
def test_malformed_kernel_lines_are_domain_errors(tmp_path, spec_file, v21, text):
    for argv in _kernel_commands(tmp_path, spec_file, v21, text):
        _assert_domain_error(argv)


def test_kernel_labels_that_are_not_permutations_are_named(tmp_path, spec_file, v21):
    for argv in _kernel_commands(tmp_path, spec_file, v21, "root:0 [0/1,1/1) -> 0,0\n"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(argv) == 1
        assert err.getvalue() == "error: label (0, 0) is not a permutation\n"


def _kernel_commands(tmp_path, spec_file, v21, text):
    """``centralizer build-kernel`` and ``encode`` on the kernel ``text``,
    for the swap of the halves."""
    x = Basis.roots(v21)
    sigma = permutation_element(expand(x, x.cells[0], 0), [1, 0])
    grp = tmp_path / "q.grp"
    grp.write_text(group_to_text(close_subgroup([sigma], 8)))
    kern = tmp_path / "bad.kern"
    kern.write_text(text)
    return [
        ["centralizer", cmd, "--spec", spec_file, "--group", str(grp),
         "--type", "regular", "--kernel", str(kern)]
        for cmd in ("build-kernel", "encode")
    ]


# -- leaf indices and integers on the command line ---------------------------

@pytest.fixture()
def halves_file(tmp_path, v21):
    x = Basis.roots(v21)
    p = tmp_path / "h.basis"
    p.write_text(basis_to_text(expand(x, x.cells[0], 0)))
    return str(p)


@pytest.mark.parametrize("cmd,option,value", [
    ("expand", "--leaf", "9"),
    ("expand", "--leaf", "-1"),
    ("contract", "--family", "0,7"),
    ("contract", "--family", "0,-1"),
])
def test_leaf_index_out_of_range_is_domain_error(spec_file, halves_file, cmd, option, value):
    _assert_domain_error(
        ["basis", cmd, "--spec", spec_file, halves_file, "--color", "0", option, value]
    )


def test_repeated_family_index_is_domain_error(spec_file, halves_file):
    _assert_domain_error(
        ["basis", "contract", "--spec", spec_file, halves_file, "--color", "0", "--family", "0,1,1"]
    )


def test_permutation_entry_out_of_range_names_the_entries(spec_file, halves_file):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = _capture(
            ["elem", "perm", "--spec", spec_file, "--basis", halves_file, "--perm", "1,5"]
        )
    assert (code, out) == (1, "")
    assert err.getvalue() == "error: permutation must list each of 0..1 once\n"


@pytest.mark.parametrize("argv", [
    ["basis", "contract", "--color", "0", "--family", "x"],
    ["elem", "perm", "--perm", "1,x", "--basis"],
])
def test_non_integer_index_list_is_usage_error(spec_file, halves_file, argv):
    _assert_typed_error([*argv, halves_file, "--spec", spec_file], 2)


def test_non_integer_cap_is_usage_error(spec_file, monkeypatch):
    monkeypatch.setenv("CANTORV_CAP", "abc")
    _assert_typed_error(["basis", "enumerate", "--spec", spec_file, "--max-size", "3"], 2)
