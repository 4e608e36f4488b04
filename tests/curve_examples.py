"""Named rational curves for the tests: lines, a conic, the twisted cubic,
a double cover and the identity, each a `CurveMap` by its forms."""

from heightlab.geomcurve import CurveMap


def line_p2() -> CurveMap:
    """The line x = y embedded off the coordinate axes: [s : t : t]."""
    return CurveMap(n=2, d=1, forms=((1, 0), (0, 1), (0, 1)))


def coordinate_line_p2() -> CurveMap:
    return CurveMap(n=2, d=1, forms=((1, 0), (0, 1), (0, 0)))


def conic_p2() -> CurveMap:
    return CurveMap(n=2, d=2, forms=((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def twisted_cubic() -> CurveMap:
    return CurveMap(n=3, d=3, forms=((1, 0, 0, 0), (0, 1, 0, 0),
                                     (0, 0, 1, 0), (0, 0, 0, 1)))


def double_cover_line() -> CurveMap:
    return CurveMap(n=2, d=2, forms=((1, 0, 0), (0, 0, 1), (0, 0, 0)))


def identity_p1() -> CurveMap:
    return CurveMap(n=1, d=1, forms=((1, 0), (0, 1)))
