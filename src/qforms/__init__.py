"""qforms: exact arithmetic for integral binary quadratic forms.

Reduction and proper equivalence in all discriminant regimes, Gauss
composition computed directly from the coefficients, oriented class
groups, the Klein correspondence between planes in Z^4 and pairs of
traceless matrices, Bhargava cubes, and the realization criteria for
Seifert-form pairs of disjoint genus-one surfaces.
"""

__version__ = "0.1.0"

from .forms import (  # noqa: F401
    Form,
    FormClass,
    Mat2,
    act,
    bar,
    canonical,
    content,
    discriminant,
    form_class,
    is_equivalent,
    neg,
)
