"""The Seifert witness search tries only a > 0, for either sign of D.

(-a, -c) squares to the class of (a, c) and comes right after it in
``divisor_pairs`` order, so the answers and first witnesses of the one
search, ``seifert._first_witness``, agree with the searches over every
divisor pair in ``witness_oracle.py``, for every D = 1 mod 4 with
|D| <= 10^4.
"""

import witness_oracle
from qforms import compose, seifert

# every D = 1 mod 4 with |D| <= 10^4; the divisor pairs (0, 1) and
# (0, -1) of D = 1 have a = 0
DISCRIMINANTS = list(range(-9999, 0, 4)) + [1] + list(range(5, 10**4 + 1, 4))


def test_existence_answers_match_all_witnesses():
    for D in DISCRIMINANTS:
        assert seifert.nonisotopic_exists(D) == witness_oracle.nonisotopic_exists(D), D
        assert seifert.prescribed_form_exists(D) == witness_oracle.prescribed_form_exists(D), D


def test_pair_answers_match_all_witnesses():
    # per D, two classes s1 against the first and the last class and
    # against t^2 s1 for the last witness t: about 70% are realizable
    for D in DISCRIMINANTS:
        classes = compose.class_group(D).elements
        a, c = compose.divisor_pairs((1 - D) // 4)[-1]
        for s1 in (classes[0], classes[len(classes) // 2]):
            for s2 in (classes[0], classes[-1], compose.class_compose(compose.special_square(a, c), s1)):
                assert (seifert.realizable_disjoint_pair(s1, s2)
                        == witness_oracle.realizable_disjoint_pair(s1, s2)), (D, s1, s2)


def test_half_special_squares_take_positive_a(monkeypatch):
    # T' with its bars is every special square but the identity, and only
    # the witnesses with a > 0 and a^2 <= |m| are squared to find it
    cases = (5, 21, 1 + 4 * 2 * 3 * 5 * 7, 1 + 4 * 3 * 7 * 11 * 13, 1 - 4 * 2 * 3 * 5 * 7)
    want = {D: {compose.special_square(a, c).coeffs() for a, c in compose.divisor_pairs((1 - D) // 4)}
            - {compose.identity_class(D).coeffs()} for D in cases}
    sorted_forms = []
    classes = compose._classes

    def spy(forms, D):
        sorted_forms.append((D, forms))
        return classes(forms, D)

    monkeypatch.setattr(compose, "_classes", spy)
    for D in cases:
        half = compose._half_special_squares(D)
        assert set(half) | {compose._canonical_bar(*t, D) for t in half} == want[D]
    squares = [(D, [(a * a, 1 - 2 * a * c, c * c) for a, c in compose.divisor_pairs(m)
                    if a > 0 and a * a <= abs(m)]) for D in cases for m in [(1 - D) // 4]]
    assert sorted_forms == squares
