"""An exact quaternion model of the binary icosahedral group, for tests.

The 120 unit icosians are written down coordinate-by-coordinate (no group
theory, no conjugacy classes, no character data), so sums over this set give
an oracle that is independent of everything in the package except Q(sqrt 5)
arithmetic itself.
"""

from __future__ import annotations

from itertools import permutations, product

from icosym.scalar import GOLDEN, Qsqrt5

Quat = tuple[Qsqrt5, Qsqrt5, Qsqrt5, Qsqrt5]

_ZERO = Qsqrt5(0)
_HALF = Qsqrt5(1, 0, 2)
_PHI_HALF = GOLDEN * _HALF
_INV_PHI_HALF = (GOLDEN - 1) * _HALF  # 1/(2 phi) since phi**2 = phi + 1


def qmul(p: Quat, q: Quat) -> Quat:
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def qconj(p: Quat) -> Quat:
    a, b, c, d = p
    return (a, -b, -c, -d)


def qnorm(p: Quat) -> Qsqrt5:
    a, b, c, d = p
    return a * a + b * b + c * c + d * d


def _even_permutations() -> list[tuple[int, ...]]:
    out = []
    for perm in permutations(range(4)):
        inversions = sum(
            perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4)
        )
        if inversions % 2 == 0:
            out.append(perm)
    return out


def unit_icosians() -> frozenset[Quat]:
    """All 120: the 8 unit axes, 16 half-integer points, and 96 golden points."""
    pts: set[Quat] = set()
    for i in range(4):
        for sign in (1, -1):
            v = [_ZERO] * 4
            v[i] = Qsqrt5(sign)
            pts.add(tuple(v))
    for signs in product((1, -1), repeat=4):
        pts.add(tuple(_HALF * s for s in signs))
    base = (_ZERO, _HALF, _INV_PHI_HALF, _PHI_HALF)
    for perm in _even_permutations():
        shuffled = tuple(base[perm[i]] for i in range(4))
        for signs in product((1, -1), repeat=4):
            pts.add(tuple(x * s for x, s in zip(shuffled, signs)))
    return frozenset(pts)


def trace(p: Quat) -> Qsqrt5:
    """Trace of the quaternion in its 2-dimensional complex spin picture."""
    return 2 * p[0]


def sym_trace_sums(max_n: int) -> list[Qsqrt5]:
    """Sum over the group of the degree-(n+1) Chebyshev-like trace values.

    For a unit quaternion with eigenvalues z, 1/z the n-th symmetric power
    has trace s_n = t*s_{n-1} - s_{n-2}, s_0 = 1, s_1 = t = trace.  Dividing
    the returned sums by 120 gives the trivial-constituent multiplicities.
    """
    totals = [Qsqrt5(0) for _ in range(max_n + 1)]
    for q in unit_icosians():
        t = trace(q)
        prev, cur = Qsqrt5(1), t
        totals[0] = totals[0] + prev
        if max_n >= 1:
            totals[1] = totals[1] + cur
        for n in range(2, max_n + 1):
            prev, cur = cur, t * cur - prev
            totals[n] = totals[n] + cur
    return totals
