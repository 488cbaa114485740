"""Algebra specifications: blocks of colours with arities, plus the spec DSL.

A spec fixes the number of root generators and an ordered list of blocks.
Each block holds an ordered list of arities (its colours).  Colours in the
same block interact by order-preserving interval identifications, colours
in different blocks commute coordinate-wise; this is what makes every
basis representable by exact rational cuboids.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction


class SpecError(ValueError):
    """Raised for syntactically or semantically invalid spec sources."""


def _factorize(n: int) -> dict[int, int]:
    """Prime factorisation by trial division; arities are small."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _eliminate(rows: list[list[Fraction]], cols: int) -> list[int]:
    """Gauss-Jordan elimination of ``rows`` in place over their first
    ``cols`` columns; returns the pivot columns, one per leading row."""
    pivot_cols: list[int] = []
    for c in range(cols):
        rank = len(pivot_cols)
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivot_cols.append(c)
    return pivot_cols


@dataclass(frozen=True)
class Block:
    """One block of colours; arities must be multiplicatively independent."""

    arities: tuple[int, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def __post_init__(self) -> None:
        if not self.arities:
            raise SpecError("empty block")
        for n in self.arities:
            if n < 2:
                raise SpecError(f"arity {n} < 2")
        if not self._independent():
            raise SpecError(
                f"dependent arities {list(self.arities)}: "
                "a nontrivial integer-exponent product relation exists"
            )

    def _prime_data(self) -> tuple[list[int], list[list[int]]]:
        if "prime_data" not in self._cache:
            facts = [_factorize(n) for n in self.arities]
            primes = sorted({p for f in facts for p in f})
            # matrix rows indexed by primes, columns by colours of this block
            matrix = [[f.get(p, 0) for f in facts] for p in primes]
            self._cache["prime_data"] = (primes, matrix)
        return self._cache["prime_data"]

    def _independent(self) -> bool:
        _, matrix = self._prime_data()
        cols = len(self.arities)
        rows = [[Fraction(x) for x in row] for row in matrix]
        return len(_eliminate(rows, cols)) == cols

    def exponents(self, ratio: Fraction | int) -> tuple[int, ...] | None:
        """Write ``ratio`` (a ``Fraction`` or an ``int``) as a product of
        integer powers of this block's arities, or return None.  Exponents
        may be negative; uniqueness is guaranteed by multiplicative
        independence."""
        memo = self._cache.setdefault("exponents", {})
        if ratio in memo:
            return memo[ratio]
        out = self._exponents_uncached(ratio)
        memo[ratio] = out
        return out

    def _exponents_uncached(self, ratio: Fraction | int) -> tuple[int, ...] | None:
        if ratio <= 0:
            return None
        if ratio == 1:
            return (0,) * len(self.arities)
        primes, matrix = self._prime_data()
        num = _factorize(ratio.numerator) if ratio.numerator > 1 else {}
        den = _factorize(ratio.denominator) if ratio.denominator > 1 else {}
        target = {p: num.get(p, 0) - den.get(p, 0) for p in set(num) | set(den)}
        if any(p not in primes for p in target):
            return None
        b = [Fraction(target.get(p, 0)) for p in primes]
        rows = [[Fraction(x) for x in row] + [bv] for row, bv in zip(matrix, b)]
        cols = len(self.arities)
        pivot_cols = _eliminate(rows, cols)
        sol = [Fraction(0)] * cols
        for k, c in enumerate(pivot_cols):
            sol[c] = rows[k][-1] / rows[k][c]
        for r in range(len(pivot_cols), len(rows)):
            if rows[r][-1]:
                return None
        if any(s.denominator != 1 for s in sol):
            return None
        e = tuple(int(s) for s in sol)
        check = Fraction(1)
        for n, k in zip(self.arities, e):
            check *= Fraction(n) ** k
        return e if check == ratio else None


@dataclass(frozen=True)
class AlgebraSpec:
    """A Brin-like algebra: root count plus blocks of independent arities.

    Immutable after construction; internal caches are keyed per instance and
    never change observable state, so specs are safe to share across tasks.
    """

    roots: int
    blocks: tuple[Block, ...]
    _caches: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def __post_init__(self) -> None:
        if self.roots < 1:
            raise SpecError("zero roots")
        if not self.blocks:
            raise SpecError("at least one block is required")

    # -- derived constants ------------------------------------------------

    @property
    def colors(self) -> tuple[tuple[int, int], ...]:
        """Global colour index -> (block index, arity), in declaration order."""
        key = "colors"
        if key not in self._caches:
            out = []
            for bi, blk in enumerate(self.blocks):
                for n in blk.arities:
                    out.append((bi, n))
            self._caches[key] = tuple(out)
        return self._caches[key]

    @property
    def num_colors(self) -> int:
        return len(self.colors)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def d(self) -> int:
        key = "d"
        if key not in self._caches:
            self._caches[key] = compute_d(self)
        return self._caches[key]

    def arity(self, color: int) -> int:
        return self.colors[color][1]

    def block_of(self, color: int) -> int:
        return self.colors[color][0]

    def cache(self, name: str) -> dict:
        return self._caches.setdefault(name, {})


def compute_d(spec: AlgebraSpec) -> int:
    """gcd of (arity - 1) over all colours; controls attainable basis sizes."""
    return math.gcd(*(n - 1 for _, n in spec.colors))


def is_complete(spec: AlgebraSpec) -> bool:
    """Every pair of distinct colours interacts through full-length
    identifications.  True by construction for every spec representable
    here; exposed as an explicit assertion point."""
    return True


_ROOTS_RE = re.compile(r"^roots\s*=\s*(\d+)$")
_BLOCK_RE = re.compile(r"^block\[\s*(\d+(?:\s*,\s*\d+)*)\s*\]$")


def parse_spec(text: str) -> AlgebraSpec:
    """Parse the spec DSL: ``roots=<int>`` then one or more
    ``block[a1,a2,...]``, separated by newlines or semicolons.
    Comments run from ``#`` to end of line."""
    statements: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for piece in line.split(";"):
            piece = piece.strip()
            if piece:
                statements.append((lineno, piece))
    if not statements:
        raise SpecError("empty spec source")
    lineno, first = statements[0]
    m = _ROOTS_RE.match(first)
    if not m:
        raise SpecError(f"line {lineno}: expected 'roots=<int>', got {first!r}")
    roots = int(m.group(1))
    if roots < 1:
        raise SpecError(f"line {lineno}: zero roots")
    blocks: list[Block] = []
    for lineno, stmt in statements[1:]:
        m = _BLOCK_RE.match(stmt)
        if not m:
            raise SpecError(f"line {lineno}: expected 'block[...]', got {stmt!r}")
        arities = tuple(int(x) for x in m.group(1).split(","))
        try:
            blocks.append(Block(arities))
        except SpecError as exc:
            raise SpecError(f"line {lineno}: {exc}") from None
    if not blocks:
        raise SpecError("at least one block is required")
    return AlgebraSpec(roots, tuple(blocks))


def render_spec(spec: AlgebraSpec) -> str:
    """Canonical serialisation; parse(render(spec)) == spec."""
    parts = [f"roots={spec.roots}"]
    for blk in spec.blocks:
        parts.append("block[" + ",".join(str(n) for n in blk.arities) + "]")
    return "; ".join(parts)


def normalize_report(spec: AlgebraSpec) -> str:
    """Report the minimal equivalent root count (never applied silently).

    Any basis of m elements with m == roots mod d generates the same
    algebra, so roots may be reduced to a representative in 1..d.
    """
    d = compute_d(spec)
    minimal = ((spec.roots - 1) % d) + 1
    if minimal == spec.roots:
        return f"roots={spec.roots} is minimal (d={d})"
    return (
        f"roots={spec.roots} is equivalent to roots={minimal} (d={d}); "
        "not applied"
    )
