"""``seeded_family`` and its batched rebuild against one-at-a-time references."""

import functools
import hashlib

import numpy as np
import pytest

from dualcx.cubics import (
    AffineMapPlane,
    CubicMap,
    _affine_moves,
    _intersections,
    _moving_lines,
    _transports,
    affine_direction,
    affine_family,
    intersect,
    random_construct,
    transport_cubic,
)
from dualcx.errors import GuardError
from dualcx.numerics import DEFAULT_TOL, Poly
from dualcx.obstruction import MAX_REJECTED_MOVES, seeded_family
from dualcx.serialize import construct_to_json

FAMILY_SEEDS = (*range(110), 1_000_001, 1_000_012, 1_000_013)

# sha256 over the construct_to_json text of every member of the families of
# five of FAMILY_SEEDS, in order (an exhausted family contributes its
# exhaustion message); pins the members' bits, not only their agreement
FAMILIES_DIGEST = "dcd712bfe654c49bc583bb987b3a6d5e588ad78075fd3776aa15ab7f5421a8d6"


def reference_family(seed: int, size: int, tol=DEFAULT_TOL):
    """``seeded_family``'s loop, one candidate at a time.

    Returns (members, candidates, outcomes, exhausted): every drawn move
    (ep, eq), the guard reason of each one (None when it was accepted), and
    the exhaustion message, or None when the family is complete.
    """
    base = random_construct(seed, tol)
    rng = np.random.default_rng(seed + 777)
    dir_p, dir_q = affine_direction(base, "P"), affine_direction(base, "Q")
    members, candidates, outcomes = [base], [], []
    rejected = 0
    while len(members) < size:
        ep = 0.05 * complex(rng.standard_normal() + 1j * rng.standard_normal())
        eq = 0.05 * complex(rng.standard_normal() + 1j * rng.standard_normal())
        candidates.append((ep, eq))
        try:
            member = affine_family(affine_family(base, dir_p, ep, tol=tol), dir_q, eq, tol=tol)
        except GuardError as exc:
            outcomes.append(exc.reason)
            rejected += 1
            if rejected >= MAX_REJECTED_MOVES:
                return members, candidates, outcomes, f"{rejected} family moves rejected (seed {seed}, last: {exc.reason})"
            continue
        outcomes.append(None)
        members.append(member)
    return members, candidates, outcomes, None


@functools.cache
def _family_texts(seed: int) -> tuple[str, ...]:
    """The members of ``seeded_family(seed, 5)`` as files, or its exhaustion message alone."""
    try:
        return tuple(construct_to_json(c) for c in seeded_family(seed, 5))
    except GuardError as exc:
        assert exc.reason == "sampling-exhausted"
        return (str(exc),)


def _assert_batch_matches(members, candidates, outcomes):
    """Every drawn move built in one batch: the reference's member, or its guard reason, in its place."""
    base = members[0]
    dir_p, dir_q = affine_direction(base, "P"), affine_direction(base, "Q")
    accepted = iter(members[1:])
    batch = _affine_moves(base, [((dir_p, ep), (dir_q, eq)) for ep, eq in candidates], DEFAULT_TOL)
    for got, reason in zip(batch, outcomes, strict=True):
        if reason is None:
            assert construct_to_json(got) == construct_to_json(next(accepted))
        else:
            assert isinstance(got, GuardError) and got.reason == reason


@pytest.mark.parametrize("seed", FAMILY_SEEDS)
def test_family_matches_the_reference_loop(seed):
    members, candidates, outcomes, exhausted = reference_family(seed, 5)
    expected = (exhausted,) if exhausted is not None else tuple(construct_to_json(c) for c in members)
    assert _family_texts(seed) == expected
    _assert_batch_matches(members, candidates, outcomes)


def test_families_keep_their_bits():
    text = "".join("".join(_family_texts(seed)) for seed in FAMILY_SEEDS)
    assert hashlib.sha256(text.encode()).hexdigest() == FAMILIES_DIGEST


def test_an_exhausted_family_names_the_last_rejection():
    members, candidates, outcomes, exhausted = reference_family(200_146, 5)
    assert exhausted == "40 family moves rejected (seed 200146, last: intersection-match)"
    assert len(members) == 1 and None not in outcomes
    with pytest.raises(GuardError) as info:
        seeded_family(200_146, 5)
    assert info.value.reason == "sampling-exhausted"
    assert str(info.value) == exhausted
    _assert_batch_matches(members, candidates, outcomes)


def _moving_lines_reference(gamma):
    """The mu-basis one map at a time, with two-dimensional SVDs."""
    c = np.zeros((4, 3), dtype=complex)
    for col, coord in enumerate((gamma.x, gamma.y, gamma.w)):
        c[: len(coord.coef), col] = coord.coef

    def system(degree):
        m = np.zeros((4 + degree, 3 * degree + 3), dtype=complex)
        for i in range(degree + 1):
            m[i : i + 4, 3 * i : 3 * i + 3] = c
        return m

    _, s, vh = np.linalg.svd(system(1))
    if s[4] <= 1e-6 * s[0]:
        return "degenerate-parametrization"
    span_p = np.zeros((2, 9), dtype=complex)
    span_p[0, :6] = span_p[1, 3:] = vh[5]
    q = np.conj(np.linalg.svd(np.vstack([system(2), span_p]))[2][8])
    return np.conj(vh[5]).reshape(2, 3), q.reshape(3, 3)


def test_stacked_moving_lines_match_the_one_map_reference_bitwise():
    # the maps of 30 families, moved and unmoved, and a map whose image is a conic
    maps = [cubic.gamma for seed in range(100, 130) for c in seeded_family(seed, 3) for cubic in (c.p, c.q)]
    t = Poly([0.0, 1.0])
    maps.insert(17, CubicMap(t * t * t, t * t, t))
    for gamma, got in zip(maps, _moving_lines(maps), strict=True):
        want = _moving_lines_reference(gamma)
        if isinstance(want, str):
            assert isinstance(got, GuardError) and got.reason == want
        else:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_a_row_that_fails_before_the_solve_leaves_the_others_alone():
    # a map onto a line fails its transport in the gather step, so it has
    # no flex solve; the rows around it keep their own solves, and a pair
    # holding the failed transport fails with its error
    c = random_construct(3)
    shear = AffineMapPlane(((1.02, 0.03j), (-0.01, 0.99)), (0.01, -0.02j))
    flat = AffineMapPlane(((1.0, 0.0), (0.0, 0.0)), (0.0, 0.0))
    p2, failed, q2 = _transports([(c.p, shear), (c.q, flat), (c.q, shear)])
    assert isinstance(failed, GuardError) and failed.reason == "degenerate-parametrization"
    for got, (cubic, a) in ((p2, (c.p, shear)), (q2, (c.q, shear))):
        want = transport_cubic(cubic, a)
        assert got.f.coef.tobytes() == want.f.coef.tobytes() and got.flex_params == want.flex_params
    first, middle, last = _intersections([(p2, c.q), (c.p, failed), (c.p, q2)], DEFAULT_TOL)
    assert middle is failed
    assert first == intersect(p2, c.q) and last == intersect(c.p, q2)
