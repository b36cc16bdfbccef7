"""The integer exact predicates against a ``Fraction`` oracle.

The exact path of :mod:`repro.geometry.predicates` scales all inputs of
one call to a common power-of-two denominator and evaluates the
determinant in Python ints.  The oracles below are the rational-arithmetic
implementations it replaced, kept verbatim: the integer versions must give
the same sign, the same correctly rounded circumcenter (±inf saturation
included) and, on non-finite input, the same exception type.
"""

import math
import struct
from fractions import Fraction

from hypothesis import example, given, strategies as st

from repro.geometry.predicates import (
    _circumcenter_exact,
    incircle_exact,
    orient2d_exact,
)


# ---------------------------------------------------------------- oracles
def oracle_orient2d(a, b, c):
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    cx, cy = Fraction(c[0]), Fraction(c[1])
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def oracle_incircle(a, b, c, d):
    ax, ay = Fraction(a[0]) - Fraction(d[0]), Fraction(a[1]) - Fraction(d[1])
    bx, by = Fraction(b[0]) - Fraction(d[0]), Fraction(b[1]) - Fraction(d[1])
    cx, cy = Fraction(c[0]) - Fraction(d[0]), Fraction(c[1]) - Fraction(d[1])
    det = (
        (ax * ax + ay * ay) * (bx * cy - cx * by)
        + (bx * bx + by * by) * (cx * ay - ax * cy)
        + (cx * cx + cy * cy) * (ax * by - bx * ay)
    )
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def oracle_circumcenter(a, b, c):
    ax, ay = Fraction(a[0]) - Fraction(c[0]), Fraction(a[1]) - Fraction(c[1])
    bx, by = Fraction(b[0]) - Fraction(c[0]), Fraction(b[1]) - Fraction(c[1])
    d = 2 * (ax * by - ay * bx)
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    ux = Fraction(c[0]) + (a2 * by - b2 * ay) / d
    uy = Fraction(c[1]) + (b2 * ax - a2 * bx) / d
    return (_clamp_float(ux), _clamp_float(uy))


def _clamp_float(value):
    try:
        return float(value)
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")


def outcome(fn, *args):
    """``("ok", value)`` or ``("raise", exception type)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the type is what we compare
        return ("raise", type(exc))


def bits(point):
    """Bit pattern of a float pair: tells -0.0 from 0.0."""
    return struct.pack("<2d", *point)


# ------------------------------------------------------------- strategies
_EXTREMES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
    1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
    1.0, -1.0, 0.1, 0.5,
]
coord = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),          # any finite
    st.floats(min_value=-1e-300, max_value=1e-300),            # subnormals
    st.floats(min_value=1e290, max_value=1e300)                # near 1e300
    | st.floats(min_value=-1e300, max_value=-1e290),
    st.floats(min_value=-10.0, max_value=10.0),
    st.integers(-8, 8).map(float),                             # lattice
    st.sampled_from(_EXTREMES),
)
point = st.tuples(coord, coord)
nonfinite = st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def axis_collinear(draw):
    """Three points on one horizontal or vertical line, in any order."""
    level = draw(coord)
    ts = draw(st.lists(coord, min_size=3, max_size=3))
    if draw(st.booleans()):
        return [(t, level) for t in ts]
    return [(level, t) for t in ts]


# Integer points on the circles x^2 + y^2 = 25 and = 65^2.
_R5 = [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3), (-5, 0), (-4, -3),
       (-3, -4), (0, -5), (3, -4), (4, -3)]
_R65 = [(65, 0), (63, 16), (60, 25), (56, 33), (52, 39), (39, 52), (33, 56),
        (25, 60), (16, 63), (0, 65), (-16, 63), (-33, 56), (-39, -52),
        (-60, -25), (-63, -16), (-65, 0), (0, -65), (33, -56), (52, -39)]


@st.composite
def cocircular(draw):
    """Four lattice points of one circle, shifted and scaled by 2**k.

    Scaling by a power of two is exact, so the points stay cocircular at
    subnormal and near-overflow magnitudes alike.
    """
    ring = draw(st.sampled_from([_R5, _R65]))
    picks = draw(st.lists(st.sampled_from(ring), min_size=4, max_size=4,
                          unique=True))
    ox, oy = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
    k = draw(st.sampled_from([-1074, -1060, -600, -1, 0, 1, 40, 900, 1010]))
    return [math.ldexp(x + ox, k) for x, _ in picks], [
        math.ldexp(y + oy, k) for _, y in picks
    ]


# ---------------------------------------------------------------- orient2d
@given(point, point, point)
@example((0.0, 0.0), (1e-300, 5e-324), (2e-300, 0.0))
@example((-0.0, 0.0), (0.0, -0.0), (5e-324, 5e-324))
def test_orient2d_matches_oracle(a, b, c):
    assert orient2d_exact(a, b, c) == oracle_orient2d(a, b, c)


@given(axis_collinear())
def test_orient2d_axis_collinear_is_zero(pts):
    assert orient2d_exact(*pts) == oracle_orient2d(*pts) == 0


# ---------------------------------------------------------------- incircle
@given(point, point, point, point)
def test_incircle_matches_oracle(a, b, c, d):
    assert incircle_exact(a, b, c, d) == oracle_incircle(a, b, c, d)


@given(cocircular())
def test_incircle_cocircular_lattice_is_zero(xy):
    xs, ys = xy
    pts = list(zip(xs, ys))
    assert incircle_exact(*pts) == oracle_incircle(*pts) == 0


@given(cocircular(), st.integers(-3, 3), st.integers(-3, 3))
def test_incircle_perturbed_lattice_matches_oracle(xy, dx, dy):
    xs, ys = xy
    pts = list(zip(xs, ys))
    x, y = pts[3]
    pts[3] = (x + dx * math.ulp(x), y + dy * math.ulp(y))
    assert incircle_exact(*pts) == oracle_incircle(*pts)


# ------------------------------------------------------------ circumcenter
def assert_same_circumcenter(a, b, c):
    got = outcome(_circumcenter_exact, a, b, c)
    want = outcome(oracle_circumcenter, a, b, c)
    if got[0] == want[0] == "ok":
        assert bits(got[1]) == bits(want[1])
    else:
        assert got == want


@given(point, point, point)
@example((0.0, 0.0), (1e-300, 5e-324), (2e-300, 0.0))        # saturates
@example((0.0, 0.0), (0.0, 1.8789180290781633e-177),
         (7.0838981334494475e-168, 0.0))                     # underflow
@example((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0))                 # center 0.0
@example((-1.0, 1.0), (1.0, 1.0), (1.0, -1.0))                # cw, center 0
@example((0.0, 0.0), (1.0, 1.0), (2.0, 2.0))                  # collinear
def test_circumcenter_matches_oracle(a, b, c):
    assert_same_circumcenter(a, b, c)


@given(
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=5e-324, max_value=1e-300),
    st.booleans(),
)
def test_circumcenter_needle_saturates_like_oracle(x, tiny, flip):
    """Near-collinear needles put the center past float range."""
    a, b, c = (0.0, 0.0), (x, tiny), (2.0 * x, 0.0)
    if flip:
        a, c = c, a
    assert_same_circumcenter(a, b, c)


# ------------------------------------------------------- non-finite input
@given(
    st.lists(coord, min_size=8, max_size=8),
    st.lists(st.tuples(st.integers(0, 7), nonfinite), min_size=1, max_size=3),
)
def test_nonfinite_input_raises_like_oracle(values, bad):
    """Same exception type as the oracle, for the first bad coordinate."""
    for index, value in bad:
        values[index] = value
    a, b, c, d = (tuple(values[i:i + 2]) for i in range(0, 8, 2))
    assert outcome(orient2d_exact, a, b, c) == outcome(oracle_orient2d, a, b, c)
    assert outcome(incircle_exact, a, b, c, d) == outcome(
        oracle_incircle, a, b, c, d)
    assert_same_circumcenter(a, b, c)
