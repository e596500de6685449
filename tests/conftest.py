"""Fixtures shared by the test modules."""

import pytest

from dualcx.cubics import AffineMapPlane, _rebuild_after_move, intersect, transport_cubic
from dualcx.numerics import DEFAULT_TOL


@pytest.fixture
def transport_construct():
    """Apply one affine map to the whole construct (both cubics and b)."""

    def transport(c, a: AffineMapPlane):
        p2, q2 = transport_cubic(c.p, a), transport_cubic(c.q, a)
        return _rebuild_after_move(c, p2, q2, intersect(p2, q2), a(c.n_point), DEFAULT_TOL)

    return transport
