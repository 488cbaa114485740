"""Point-evaluation oracle, independent of the engine's algorithms.

A diagram is read only through its data: the domain leaves, the range
leaves and the leaf bijection.  A point is a root index plus one exact
rational coordinate per block.  Applying a diagram to a point finds the
domain leaf that holds it (half-open intervals) and carries it affinely to
the matching range leaf.  Nothing here calls ``lub``, ``reduce``,
``equals`` or any other engine routine, so a check made with these
functions is a second opinion on the engine, not a restatement of it.
"""

from __future__ import annotations

import random
from fractions import Fraction


class OracleMismatch(AssertionError):
    """A diagram or cone disagrees with the point-evaluation oracle."""


def _cell(leaf) -> tuple:
    return (leaf.root, tuple(leaf.intervals))


class Map:
    """Plain copy of an element's diagram: (domain cell, range cell) pairs."""

    __slots__ = ("pairs",)

    def __init__(self, element):
        dom = element.domain.cells
        rng = element.range.cells
        self.pairs = [
            (_cell(dom[i]), _cell(rng[p])) for i, p in enumerate(element.perm)
        ]

    def domain_cells(self) -> list[tuple]:
        return [d for d, _ in self.pairs]

    def __call__(self, point: tuple) -> tuple:
        root, xs = point
        for (droot, divs), (rroot, rivs) in self.pairs:
            if droot != root:
                continue
            for x, (lo, hi) in zip(xs, divs):
                if not lo <= x < hi:
                    break
            else:
                return (
                    rroot,
                    tuple(
                        rlo + (x - lo) * (rhi - rlo) / (hi - lo)
                        for x, (lo, hi), (rlo, rhi) in zip(xs, divs, rivs)
                    ),
                )
        raise OracleMismatch(f"point {point} lies under no domain leaf")


def _unit(rng: random.Random) -> Fraction:
    """A generic rational in [0, 1): denominators avoid the 2^a 3^b grid."""
    q = rng.randrange(1_000_003, 2_000_003)
    return Fraction(rng.randrange(q), q)


def point_in(cell: tuple, rng: random.Random) -> tuple:
    root, ivs = cell
    return (root, tuple(lo + (hi - lo) * _unit(rng) for lo, hi in ivs))


def root_points(roots: int, blocks: int, count: int, rng: random.Random) -> list[tuple]:
    return [
        (rng.randrange(roots), tuple(_unit(rng) for _ in range(blocks)))
        for _ in range(count)
    ]


def probe_points(maps, roots: int, blocks: int, rng: random.Random, extra: int = 4) -> list[tuple]:
    """Seeded points: one inside every domain leaf of each map, plus a few
    uniform ones, so a wrong image of any single leaf is always probed."""
    pts = root_points(roots, blocks, extra, rng)
    for m in maps:
        pts.extend(point_in(c, rng) for c in m.domain_cells())
    return pts


def expect_equal(what: str, got: tuple, want: tuple) -> None:
    if got != want:
        raise OracleMismatch(f"{what}: {got} != {want}")


def in_cone(cells, point: tuple) -> bool:
    root, xs = point
    return any(
        croot == root and all(lo <= x < hi for x, (lo, hi) in zip(xs, ivs))
        for croot, ivs in cells
    )


def cone_cells(cone) -> list[tuple]:
    return [_cell(c) for c in cone.cells]
