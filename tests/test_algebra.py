import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cantorv.algebra import (
    Block,
    SpecError,
    compute_d,
    is_complete,
    normalize_report,
    parse_spec,
    render_spec,
)


def test_parse_smallest_spec():
    spec = parse_spec("roots=1; block[2]")
    assert spec.roots == 1
    assert spec.num_colors == 1
    assert spec.arity(0) == 2


def test_parse_two_binary_blocks():
    spec = parse_spec("roots=1; block[2]; block[2]")
    assert spec.num_blocks == 2
    assert [spec.block_of(c) for c in range(2)] == [0, 1]


def test_parse_stein_block():
    spec = parse_spec("roots=1; block[2,3]")
    assert spec.num_blocks == 1
    assert [spec.arity(c) for c in range(2)] == [2, 3]


def test_dependent_arities_rejected():
    with pytest.raises(SpecError, match="dependent"):
        parse_spec("roots=1; block[2,4]")


@pytest.mark.parametrize("a,k", [(2, 2), (2, 3), (3, 2), (5, 3)])
def test_power_pairs_always_rejected(a, k):
    with pytest.raises(SpecError):
        parse_spec(f"roots=1; block[{a},{a**k}]")


def test_same_arity_twice_in_one_block_rejected():
    with pytest.raises(SpecError):
        parse_spec("roots=1; block[2,2]")


def test_arity_below_two_rejected():
    with pytest.raises(SpecError, match="arity"):
        parse_spec("roots=1; block[1]")


def test_zero_roots_rejected():
    with pytest.raises(SpecError, match="roots"):
        parse_spec("roots=0; block[2]")


def test_missing_blocks_rejected():
    with pytest.raises(SpecError):
        parse_spec("roots=1")


def test_syntax_error_reports_line():
    with pytest.raises(SpecError, match="line 2"):
        parse_spec("roots=1\nblok[2]")


def test_comments_and_separators():
    spec = parse_spec("# header\nroots=2 ; block[2,3]  # inline\nblock[5]\n")
    assert spec.roots == 2
    assert spec.num_blocks == 2


@pytest.mark.parametrize(
    "src,d",
    [
        ("roots=1; block[2]", 1),
        ("roots=1; block[3]", 2),
        ("roots=1; block[2,3]", 1),
        ("roots=1; block[3]; block[5]", 2),
        ("roots=1; block[7]", 6),
    ],
)
def test_compute_d(src, d, monkeypatch):
    spec = parse_spec(src)
    assert compute_d(spec) == d
    assert spec.d == d
    # read from the spec's cache from then on
    monkeypatch.setattr("cantorv.algebra.compute_d", None)
    assert spec.d == d


def test_d_divides_each_arity_minus_one(specs):
    for spec in specs.values():
        d = compute_d(spec)
        for c in range(spec.num_colors):
            assert (spec.arity(c) - 1) % d == 0


def test_complete_is_asserted_everywhere(specs):
    for spec in specs.values():
        assert is_complete(spec)


def test_render_round_trip(specs):
    for spec in specs.values():
        assert parse_spec(render_spec(spec)) == spec


_INDEPENDENT_PAIRS = [
    (2, 3), (2, 5), (3, 5), (2, 7), (6, 10), (4, 6),
]


@given(
    roots=st.integers(min_value=1, max_value=4),
    pair=st.sampled_from(_INDEPENDENT_PAIRS),
    extra=st.sampled_from([None, 2, 3, 7]),
)
@settings(max_examples=40, deadline=None)
def test_round_trip_random_specs(roots, pair, extra):
    src = f"roots={roots}; block[{pair[0]},{pair[1]}]"
    if extra is not None:
        src += f"; block[{extra}]"
    spec = parse_spec(src)
    assert parse_spec(render_spec(spec)) == spec


def test_block_exponent_solver():
    blk = Block((2, 3))
    assert blk.exponents(Fraction(6)) == (1, 1)
    assert blk.exponents(Fraction(8)) == (3, 0)
    assert blk.exponents(Fraction(1, 6)) == (-1, -1)
    assert blk.exponents(Fraction(2, 3)) == (1, -1)
    assert blk.exponents(Fraction(5)) is None
    assert blk.exponents(Fraction(7, 216)) is None


def test_block_exponent_solver_nontrivial_primes():
    blk = Block((6, 10))
    assert blk.exponents(Fraction(60)) == (1, 1)
    assert blk.exponents(Fraction(30)) is None


def test_normalize_report_never_applies():
    spec = parse_spec("roots=5; block[3]")
    report = normalize_report(spec)
    assert "roots=1" in report and "not applied" in report
    assert spec.roots == 5
    minimal = parse_spec("roots=1; block[3]")
    assert "minimal" in normalize_report(minimal)
