"""Robust 2D geometric predicates.

Delaunay refinement lives and dies by the correctness of two predicates:

* ``orient2d(a, b, c)`` — sign of the signed area of triangle *abc*;
* ``incircle(a, b, c, d)`` — whether *d* lies inside the circumcircle of
  the (counterclockwise) triangle *abc*.

We use the standard two-stage scheme popularized by Shewchuk's Triangle:
a float filter, then exact integer arithmetic over a common power-of-two
scale.  The determinant is first evaluated in floating point with a
forward error bound; if the magnitude clears the bound the sign is
certain.  Otherwise the exact path runs: every finite float is
``n / 2**k``, so ``as_integer_ratio`` gives exact integers, and scaling
all inputs of one call by their largest denominator turns the same
determinant into Python ``int`` arithmetic (a positive common factor does
not change its sign).  The float filter handles virtually all calls; the
exact path makes the mesher immune to the near-degenerate configurations
that refinement constantly produces (cocircular points from structured
inputs, collinear split points, ...).
"""

from __future__ import annotations

from typing import Tuple

__all__ = [
    "orient2d",
    "incircle",
    "orient2d_exact",
    "incircle_exact",
    "circumcenter",
    "circumradius_sq",
    "dist_sq",
    "segments_intersect",
    "point_in_triangle",
]

Point = Tuple[float, float]

# Forward error coefficients (see Shewchuk, "Adaptive Precision Floating-
# Point Arithmetic and Fast Robust Geometric Predicates", 1997).  We use the
# simple A-stage filter constants; anything within the bound goes exact.
_EPS = 2.220446049250313e-16
_CCW_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_ICC_BOUND = (10.0 + 96.0 * _EPS) * _EPS


def orient2d(a: Point, b: Point, c: Point) -> float:
    """Return >0 if a,b,c are counterclockwise, <0 clockwise, 0 collinear.

    The magnitude (when the filter passes) equals twice the signed area.
    """
    detleft = (a[0] - c[0]) * (b[1] - c[1])
    detright = (a[1] - c[1]) * (b[0] - c[0])
    det = detleft - detright
    # det == 0 may be exact cancellation *or* underflow of the products
    # (coordinates near 1e-280 flush detleft/detright — and the error
    # bound — to zero); the exact path settles both, and charging it on
    # truly-collinear input is where exactness matters anyway.
    if det == 0.0:
        return float(orient2d_exact(a, b, c))
    if detleft > 0.0:
        if detright <= 0.0:
            return det
        detsum = detleft + detright
    elif detleft < 0.0:
        if detright >= 0.0:
            return det
        detsum = -detleft - detright
    else:
        return float(orient2d_exact(a, b, c))
    if abs(det) >= _CCW_BOUND * detsum:
        return det
    return float(orient2d_exact(a, b, c))


def _scaled(*coords: float) -> tuple[list[int], int]:
    """Exact integers ``n_i`` and one scale ``s`` with ``coords[i] == n_i / s``.

    ``s`` is the largest denominator of the inputs; float denominators are
    powers of two, so it is a multiple of every other one.  Conversion runs
    in argument order: non-finite input raises what ``as_integer_ratio``
    raises (``OverflowError`` for ±inf, ``ValueError`` for NaN), for the
    first bad coordinate.
    """
    ratios = [x.as_integer_ratio() for x in coords]
    scale = max([d for _, d in ratios])
    return [n * (scale // d) for n, d in ratios], scale


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


def orient2d_exact(a: Point, b: Point, c: Point) -> int:
    """Exact orientation sign via integer arithmetic: -1, 0, or +1."""
    (ax, ay, bx, by, cx, cy), _ = _scaled(a[0], a[1], b[0], b[1], c[0], c[1])
    return _sign((ax - cx) * (by - cy) - (ay - cy) * (bx - cx))


def incircle(a: Point, b: Point, c: Point, d: Point) -> float:
    """Return >0 if d is strictly inside the circumcircle of ccw abc.

    <0 outside, 0 cocircular.  For a *clockwise* abc the sign flips, so
    callers must pass counterclockwise triangles (asserted throughout the
    mesh code).
    """
    adx = a[0] - d[0]
    ady = a[1] - d[1]
    bdx = b[0] - d[0]
    bdy = b[1] - d[1]
    cdx = c[0] - d[0]
    cdy = c[1] - d[1]

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    alift = adx * adx + ady * ady

    cdxady = cdx * ady
    adxcdy = adx * cdy
    blift = bdx * bdx + bdy * bdy

    adxbdy = adx * bdy
    bdxady = bdx * ady
    clift = cdx * cdx + cdy * cdy

    det = (
        alift * (bdxcdy - cdxbdy)
        + blift * (cdxady - adxcdy)
        + clift * (adxbdy - bdxady)
    )

    permanent = (
        (abs(bdxcdy) + abs(cdxbdy)) * alift
        + (abs(cdxady) + abs(adxcdy)) * blift
        + (abs(adxbdy) + abs(bdxady)) * clift
    )
    if abs(det) > _ICC_BOUND * permanent:
        return det
    return float(incircle_exact(a, b, c, d))


def incircle_exact(a: Point, b: Point, c: Point, d: Point) -> int:
    """Exact incircle sign via integer arithmetic: -1, 0, or +1."""
    # Conversion order a, d, then b and c: the first coordinate the
    # determinant reads decides which non-finite input raises first.
    (ax, dx, ay, dy, bx, by, cx, cy), _ = _scaled(
        a[0], d[0], a[1], d[1], b[0], b[1], c[0], c[1]
    )
    ax, ay = ax - dx, ay - dy
    bx, by = bx - dx, by - dy
    cx, cy = cx - dx, cy - dy
    return _sign(
        (ax * ax + ay * ay) * (bx * cy - cx * by)
        + (bx * bx + by * by) * (cx * ay - ax * cy)
        + (cx * cx + cy * cy) * (ax * by - bx * ay)
    )


def circumcenter(a: Point, b: Point, c: Point) -> Point:
    """Circumcenter of a non-degenerate triangle.

    Raises :class:`ZeroDivisionError` for collinear input — callers check
    orientation first.  When the float cross product underflows to zero on
    a triangle that is *exactly* non-degenerate (tiny coordinates), the
    computation falls back to exact integer arithmetic; coordinates too large
    for a float come back as ±inf, which callers already guard with
    ``isfinite`` (see :func:`dist_sq`).
    """
    d = 2.0 * ((a[0] - c[0]) * (b[1] - c[1]) - (a[1] - c[1]) * (b[0] - c[0]))
    if d == 0.0:
        return _circumcenter_exact(a, b, c)
    a2 = (a[0] - c[0]) ** 2 + (a[1] - c[1]) ** 2
    b2 = (b[0] - c[0]) ** 2 + (b[1] - c[1]) ** 2
    ux = c[0] + (a2 * (b[1] - c[1]) - b2 * (a[1] - c[1])) / d
    uy = c[1] + (b2 * (a[0] - c[0]) - a2 * (b[0] - c[0])) / d
    return (ux, uy)


def _circumcenter_exact(a: Point, b: Point, c: Point) -> Point:
    """Exact circumcenter, correctly rounded; ZeroDivisionError when collinear.

    With every coordinate scaled to ``n / s``, the center is
    ``c + N / d`` for integer ``N`` and ``d``, i.e. ``(c_n * d + N) /
    (s * d)``: one int/int division, which CPython rounds correctly.
    """
    (ax, cx, ay, cy, bx, by), scale = _scaled(
        a[0], c[0], a[1], c[1], b[0], b[1]
    )
    ax, ay = ax - cx, ay - cy
    bx, by = bx - cx, by - cy
    d = 2 * (ax * by - ay * bx)  # exact: zero iff truly collinear
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    if d < 0:
        # A positive denominator keeps a zero numerator at +0.0.
        d, a2, b2 = -d, -a2, -b2
    den = scale * d
    ux = _ratio_to_float(cx * d + a2 * by - b2 * ay, den)
    uy = _ratio_to_float(cy * d + b2 * ax - a2 * bx, den)
    return (ux, uy)


def _ratio_to_float(num: int, den: int) -> float:
    """``num / den`` for ``den > 0``, saturating to ±inf on overflow."""
    try:
        return num / den
    except OverflowError:
        return float("inf") if num > 0 else float("-inf")


def circumradius_sq(a: Point, b: Point, c: Point) -> float:
    """Squared circumradius of triangle abc."""
    cc = circumcenter(a, b, c)
    return dist_sq(cc, a)


def dist_sq(p: Point, q: Point) -> float:
    """Squared euclidean distance.

    Uses plain multiplication: CPython's float ``**`` raises OverflowError
    where IEEE semantics (and callers guarding with ``isfinite``) want inf —
    near-degenerate circumcenters can sit at 1e250.
    """
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def point_in_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    """True if p is inside or on the boundary of ccw triangle abc."""
    return (
        orient2d(a, b, p) >= 0
        and orient2d(b, c, p) >= 0
        and orient2d(c, a, p) >= 0
    )


def _on_segment(p: Point, q: Point, r: Point) -> bool:
    """Assuming p,q,r collinear: does q lie on segment pr?"""
    return (
        min(p[0], r[0]) <= q[0] <= max(p[0], r[0])
        and min(p[1], r[1]) <= q[1] <= max(p[1], r[1])
    )


def segments_intersect(
    p1: Point, p2: Point, q1: Point, q2: Point, proper_only: bool = False
) -> bool:
    """Do segments p1p2 and q1q2 intersect?

    With ``proper_only`` the segments must cross at an interior point of
    both (shared endpoints and touchings do not count) — this is the test
    used to decide whether a candidate edge violates a constraint segment.
    """
    d1 = orient2d(q1, q2, p1)
    d2 = orient2d(q1, q2, p2)
    d3 = orient2d(p1, p2, q1)
    d4 = orient2d(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if proper_only:
        return False
    if d1 == 0 and _on_segment(q1, p1, q2):
        return True
    if d2 == 0 and _on_segment(q1, p2, q2):
        return True
    if d3 == 0 and _on_segment(p1, q1, p2):
        return True
    if d4 == 0 and _on_segment(p1, q2, p2):
        return True
    return False
