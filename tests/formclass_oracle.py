"""The class-group loops as they ran on FormClass objects, before triples.

``reduced_definite`` is how ``compose._reduced_definite`` listed the
reduced forms of D < 0: every b in (-a, a] is tested, each sign on its
own.  ``realizable_pairs_by_class`` is the coset step of
``seifert.enumerate_realizable_pairs`` on classes, with the
B^4-distinguishability flag from its definition, s1 not in {s2, bar(s2)};
``s_plus_subgroup_by_class`` is the closure of the special squares under
``class_compose``.  The tests use them as references for the loops that
compose and reduce coefficient triples.
"""

from math import isqrt

from qforms.compose import (
    class_bar,
    class_compose,
    class_group,
    divisor_pairs,
    identity_class,
    special_classes,
    special_square,
)
from qforms.forms import Form, content, form_class


def reduced_definite(D):
    """Positive definite Gauss-reduced primitive forms of discriminant D < 0."""
    out = []
    amax = isqrt(-D // 3) + 1
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            f = Form(a, b, c)
            if content(f) == 1:
                out.append(f)
    return out


def realizable_pairs_by_class(D, include_nonprimitive=False):
    """enumerate_realizable_pairs(D, include_nonprimitive) on FormClass objects."""
    classes = list(class_group(D).elements)
    if include_nonprimitive:
        m = 3
        while m * m <= abs(D):
            if D % (m * m) == 0 and (D // (m * m)) % 4 == 1:
                for s in class_group(D // (m * m)).elements:
                    a, b, c = s.coeffs()
                    classes.append(form_class(m * a, m * b, m * c))
            m += 2
        classes.sort(key=lambda s: s.coeffs())
    squares = {special_square(a, c) for a, c in divisor_pairs((1 - D) // 4)}
    index = {s: i for i, s in enumerate(classes)}
    out = []
    for i, s1 in enumerate(classes):
        for s2 in {class_compose(t2, s1) for t2 in squares}:
            if index.get(s2, -1) >= i:
                out.append({
                    "s1": list(s1.coeffs()),
                    "s2": list(s2.coeffs()),
                    "b4_distinguishable": s1 != s2 and s1 != class_bar(s2),
                })
    out.sort(key=lambda d: (d["s1"], d["s2"]))
    return out


def s_plus_subgroup_by_class(D):
    """The special squares of D closed under class_compose, sorted."""
    generators = {special_square(s.a, s.c) for s in special_classes(D)}
    subgroup = {identity_class(D)}
    frontier = list(subgroup)
    while frontier:
        frontier = [y for y in {class_compose(x, g) for x in frontier for g in generators}
                    if y not in subgroup]
        subgroup.update(frontier)
    return sorted(subgroup, key=lambda s: s.coeffs())
