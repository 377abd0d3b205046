"""Composition through a concordant pair, as ``dirichlet_compose`` did it.

``compose.concordant_pair`` gives representatives (a1, b, c1), (a2, b, c2)
of [f1], [f2] with gcd(a1, a2) = 1, whose composite is Dirichlet's
(a1 a2, b, (b^2 - D) / (4 a1 a2)).  The library now reads the composite
off the paper's cube (``compose._compose``); this construction shares no
step with it, so the tests keep it as the class-for-class reference.
"""

from qforms.compose import concordant_pair
from qforms.forms import Form, discriminant


def compose_by_concordant_pair(f1, f2):
    """A form in [f1] * [f2] (equal nonzero discriminants, coprime contents)."""
    h1, h2 = concordant_pair(f1, f2)
    D = discriminant(f1)
    a = h1.a * h2.a
    return Form(a, h1.b, (h1.b * h1.b - D) // (4 * a))
