"""Reference constructions shared by the test modules; not part of the package."""

from carlitz.fields import GFPoly
from carlitz.laurent import Completion
from carlitz.tate import TateElem


def tate_poly_t(ctx: Completion, s: int, tcap: int, i: int, a: GFPoly) -> TateElem:
    """Image of a in F_q[t_i]: coefficient k of a becomes the t_i^k term."""
    terms = {}
    for k, c in enumerate(a.coeffs):
        if c.is_zero():
            continue
        e = tuple(k if j == i else 0 for j in range(s))
        terms[e] = ctx.from_field(c)
    return TateElem(ctx, s, tcap, terms)
