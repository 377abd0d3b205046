"""Class groups of positive non-square discriminants, one canonical call per form.

This is how ``compose.class_group`` used to enumerate D > 0 non-square:
try every |a| in a widened range for each b, keep the reduced primitive
forms by an explicit check of the reduction inequalities, and take
``FormClass.of`` of each one.  Every such call walks that form's whole
cycle, so R reduced forms cost O(R^2) steps.  The tests use it as a
reference for the one-walk-per-cycle enumeration.
"""

from math import isqrt

from qforms.compose import OrientedClassGroup, identity_class
from qforms.forms import Form, FormClass, content


def reduced_forms(D):
    """All reduced primitive forms: 0 < b < sqrt(D), sqrt(D)-b < 2|a| < sqrt(D)+b."""
    sq = isqrt(D)
    out = []
    for b in range(1, sq + 1):
        if (b - D) % 2:
            continue
        prod = (b * b - D) // 4  # == a*c < 0
        for aa in range(max(1, (sq - b) // 2), (sq + b) // 2 + 2):
            t = 2 * aa
            if not ((t - b < 0 or (t - b) * (t - b) < D) and (t + b) * (t + b) > D):
                continue
            if prod % aa:
                continue
            for a in (aa, -aa):
                f = Form(a, b, prod // a)
                if content(f) == 1:
                    out.append(f)
    return out


def class_group_by_canonical(D):
    """The oriented class group of D > 0 non-square, as class_group used to build it."""
    elements = sorted({FormClass.of(f) for f in reduced_forms(D)}, key=lambda s: s.coeffs())
    return OrientedClassGroup(D, elements, elements.index(identity_class(D)))
