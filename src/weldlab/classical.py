"""Classical action from the determinant potential and the genus.

Arithmetic on two numbers, kept apart from the action quadrature so that
the command reporting it (``scl``) loads no layer module.
"""

from __future__ import annotations

from math import isfinite, pi

from .errors import InvalidInput


def s_cl_report(s2_dg: float, genus: int) -> dict:
    """Classical action from the determinant potential and the genus bound.

    S_cl = -12 pi s2_dg + 8 pi (2g - 2); the bound 8 pi (2g - 2) is attained
    exactly at s2_dg = 0 (the group point). A finite s2_dg may still
    overflow S_cl, which the report writer refuses.
    """
    if genus < 2 or int(genus) != genus:
        raise InvalidInput("genus must be an integer >= 2")
    if not isfinite(s2_dg):
        raise InvalidInput(f"s2_dg = {s2_dg} is not a finite number")
    if s2_dg < -1e-12:
        raise InvalidInput(
            f"s2_dg = {s2_dg} is negative beyond tolerance; the regularized "
            "trace is nonnegative, so an upstream computation is broken")
    s2_dg = max(float(s2_dg), 0.0)
    bound = 8.0 * pi * (2 * genus - 2)
    s_cl = -12.0 * pi * s2_dg + bound
    return {
        "genus": int(genus),
        "s2_dg": s2_dg,
        "S_cl": s_cl,
        "bound": bound,
        "slack": bound - s_cl,
        "is_fuchsian_point": bool(s2_dg <= 1e-12),
    }
