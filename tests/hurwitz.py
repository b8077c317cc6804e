"""An oracle for `stability.loop_stable`: the characteristic quartic of a
closed loop and its Routh-Hurwitz verdict, evaluated in `Fraction`s
straight from the float entries, so every step is exact and no scaling
is involved."""

from fractions import Fraction


def quartic(a) -> list[Fraction]:
    """(a3, a2, a1, a0) of det(sI - a) = s^4 + a3 s^3 + a2 s^2 + a1 s + a0
    for a matrix whose rows 0 and 2 are (0, 1, 0, 0) and (0, 0, 0, 1) and
    whose a12 is 0."""
    f = {(i, j): Fraction(float(a[i][j])) for i in (1, 3) for j in range(4)}
    a10, a11, a13 = f[1, 0], f[1, 1], f[1, 3]
    a30, a31, a32, a33 = f[3, 0], f[3, 1], f[3, 2], f[3, 3]
    return [-(a11 + a33),
            a11 * a33 - a13 * a31 - a10 - a32,
            a11 * a32 + a10 * a33 - a13 * a30,
            a10 * a32]


def hurwitz_stable(a) -> bool:
    """True iff the quartic of a is Hurwitz (Lienard-Chipart form)."""
    a3, a2, a1, a0 = quartic(a)
    return min(a3, a2, a1, a0) > 0 and a3 * a2 * a1 > a1 * a1 + a3 * a3 * a0
