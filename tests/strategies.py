"""Hypothesis strategies for structurally valid curve descriptors.

They draw the same shapes as the seeded generators in `conftest.py`
(small multiplicities, a few point features of every kind), so that a
failing property shrinks to a small curve.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from hypothesis import strategies as st

from orbitdeg import model


@st.composite
def compositions(draw, total: int) -> tuple[int, ...]:
    """Positive integers summing to `total` (none for 0)."""
    if total == 0:
        return ()
    cuts = sorted(draw(st.sets(st.integers(1, total - 1)))) if total > 1 else []
    bounds = [0] + cuts + [total]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


@st.composite
def sides(draw) -> model.NewtonSide:
    drop = draw(st.integers(1, 4))
    run = drop + draw(st.integers(1, 5))
    j0 = draw(st.integers(0, 4))
    k1 = draw(st.integers(0, 3))
    return model.NewtonSide(j0, k1 + drop, j0 + run, k1, draw(compositions(gcd(run, drop))))


@st.composite
def truncations(draw) -> model.Truncation:
    weight = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    return model.Truncation(draw(st.integers(1, 3)), weight, draw(compositions(draw(st.integers(1, 5)))))


@st.composite
def irreducibles(draw) -> model.IrreducibleSingularity:
    m = draw(st.integers(1, 4))
    if m == 1:
        return model.IrreducibleSingularity(1, draw(st.integers(2, 8)))
    n = draw(st.integers(m + 1, m + 6))
    essential: list[int] = []
    d = m
    if n % m:
        essential.append(n)
        d = gcd(d, n)
    last = n
    while d > 1:
        e = last + draw(st.integers(1, 4))
        while e % d == 0:
            e += 1
        essential.append(e)
        d = gcd(d, e)
        last = e
    return model.IrreducibleSingularity(m, n, tuple(essential))


def composites() -> st.SearchStrategy[model.CompositePoint]:
    cones = st.none() | st.builds(model.TangentCone, st.lists(st.integers(1, 3), min_size=1, max_size=5).map(tuple))
    return st.builds(
        model.CompositePoint,
        tangent_cone=cones,
        sides=st.lists(sides(), max_size=2).map(tuple),
        truncations=st.lists(truncations(), max_size=2).map(tuple),
        absorbed_flexes=st.integers(0, 4),
    )


@st.composite
def descriptors(draw, scalable: bool = False) -> model.CurveDescriptor:
    """A valid descriptor with explicit flex count and no stabilizer degree.

    With scalable=True no irreducible features are drawn, so the curve
    stays expressible after taking multiples (see `conftest.scaled_descriptor`).
    """
    line_mults = draw(st.lists(st.integers(1, 2), max_size=2))
    nonlinear = draw(st.lists(st.builds(model.NonlinearComponent, st.integers(2, 4), st.integers(1, 2)), max_size=2))
    if not line_mults and not nonlinear:
        nonlinear = [model.NonlinearComponent(draw(st.integers(2, 4)), 1)]
    degree = sum(line_mults) + sum(c.deg * c.mult for c in nonlinear)
    linear = tuple(model.LinearComponent(m, draw(compositions(degree - m))) for m in line_mults)
    kinds = [st.builds(model.FlexPoint, st.integers(3, 6)), composites()]
    if not scalable:
        kinds.append(st.builds(model.IrreduciblePoint, irreducibles()))
    points = draw(st.lists(st.one_of(kinds), max_size=3))
    return model.CurveDescriptor(
        degree=degree,
        linear=linear,
        nonlinear=tuple(nonlinear),
        points=tuple(points),
        flexes=draw(st.integers(0, 5)),
    )
