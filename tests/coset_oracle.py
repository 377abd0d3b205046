"""The coset step of ``seifert.enumerate_realizable_pairs`` over all of T.

Every class s1 is composed with every distinct special square t^2 (the
identity and both members of each inverse pair included), and the
partners at an index >= that of s1 are kept.  This is h * |T|
compositions; the library composes with T' only, T' without the identity
and with one of each inverse pair, for D < 0 the positive classes only,
and for each t one class of each pair {s, bar(t s)}, about half of them.
The B^4-distinguishability flag is taken from its
definition, s1 not in {s2, bar(s2)}, with bar(s2) reduced from
(a, -b, c), not read off the closed form of ``forms._canonical_bar``.
The tests use it as the reference for those reductions.
"""

from qforms.compose import _compose_reduced, class_group, divisor_pairs, special_square
from qforms.forms import form_class


def realizable_pairs_over_all_squares(D, include_nonprimitive=False):
    """enumerate_realizable_pairs(D, include_nonprimitive), composing with all of T."""
    classes = [s.coeffs() for s in class_group(D).elements]
    if include_nonprimitive:
        m = 3
        while m * m <= abs(D):
            if D % (m * m) == 0 and (D // (m * m)) % 4 == 1:
                for s in class_group(D // (m * m)).elements:  # m times canonical is canonical
                    a, b, c = s.coeffs()
                    classes.append((m * a, m * b, m * c))
            m += 2
        classes.sort()
    squares = {special_square(a, c).coeffs() for a, c in divisor_pairs((1 - D) // 4)}
    index = {t: i for i, t in enumerate(classes)}
    out = []
    for i, t1 in enumerate(classes):
        for t2 in {_compose_reduced(t, t1, D) for t in squares}:
            if index.get(t2, -1) >= i:
                out.append({
                    "s1": list(t1),
                    "s2": list(t2),
                    "b4_distinguishable": t1 != t2 and t1 != form_class(t2[0], -t2[1], t2[2]).coeffs(),
                })
    out.sort(key=lambda d: (d["s1"], d["s2"]))
    return out
