"""The Seifert witness searches over every divisor pair of (1 - D)/4.

``seifert`` tries only the witnesses (a, c) with a > 0, since (-a, -c)
has the same square and comes right after (a, c).  These searches try
both signs, in ``divisor_pairs`` order, and compare classes built by
``special_square`` and ``class_compose``; the tests hold the library's
answers, first witness included, against them.
"""

from qforms.compose import class_compose, divisor_pairs, identity_class, special_square


def realizable_disjoint_pair(s1, s2):
    """The first (a, c) with [a x^2 + x y + c y^2]^2 * s1 = s2."""
    for a, c in divisor_pairs((1 - s1.disc) // 4):
        if class_compose(special_square(a, c), s1) == s2:
            return True, (a, c)
    return False, None


def nonisotopic_exists(D):
    """The first (a, c) whose special square is not the identity."""
    one = identity_class(D)
    for a, c in divisor_pairs((1 - D) // 4):
        if special_square(a, c) != one:
            return True, (a, c)
    return False, None


def prescribed_form_exists(D):
    """The first (a, c) whose special class has a fourth power other than 1."""
    one = identity_class(D)
    for a, c in divisor_pairs((1 - D) // 4):
        t = special_square(a, c)
        if class_compose(t, t) != one:
            return True, (a, c)
    return False, None
