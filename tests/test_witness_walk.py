"""The Seifert witness search for positive non-square D walks one cycle.

``seifert._first_witness`` reduces each witness's form (t^2, t^2 t^2 or
t^2 s1) with no cycle walk and walks the principal cycle, or the cycle of
s2, once.  These tests hold its answers, first witnesses included, to the
searches over every divisor pair in ``witness_oracle.py`` past the
|D| <= 10^4 of ``test_positive_witnesses``, and bound its time where one
walk per witness took seconds.
"""

import json
import random
from math import prod

from qforms import cli, compose, seifert
from qforms.compose import identity_class
from qforms.forms import form_class
from test_forms import time_limit
import witness_oracle

# D = 1 + 4m: m = 2*3*5*7*11*13 and 2^4*3^2*5*7*11 have 64 and 120
# divisors, so 128 and 240 witnesses; then, from a fixed seed, D = 1 mod 4
# log-uniform in [10^5, 10^8], and D = 1 + 4m in that range with m a
# product of five to seven distinct primes up to 23, whose larger 2-ranks
# give first witnesses past (1, -m)
_rng = random.Random(20231)


def _composite(rng):
    while True:
        m = prod(rng.sample((2, 3, 5, 7, 11, 13, 17, 19, 23), rng.randint(5, 7)))
        if 10**5 <= 1 + 4 * m <= 10**8:
            return 1 + 4 * m


DISCRIMINANTS = ([1 + 4 * 30030, 1 + 4 * 55440]
                 + [4 * (int(10 ** _rng.uniform(5, 8)) // 4) + 1 for _ in range(10)]
                 + [_composite(_rng) for _ in range(10)])


def test_existence_answers_match_all_witnesses():
    for D in DISCRIMINANTS:
        assert seifert.nonisotopic_exists(D) == witness_oracle.nonisotopic_exists(D), D
        assert seifert.prescribed_form_exists(D) == witness_oracle.prescribed_form_exists(D), D


def test_pair_answers_match_all_witnesses():
    # s2 is t^2 s1 for a witness t from the middle and the end of the list,
    # or a class that is likely no such product
    for D in DISCRIMINANTS:
        classes = compose.class_group(D).elements
        witnesses = compose.divisor_pairs((1 - D) // 4)
        for s1 in (classes[0], classes[len(classes) // 2]):
            targets = [classes[-1]] + [compose.class_compose(compose.special_square(a, c), s1)
                                       for a, c in (witnesses[len(witnesses) // 2], witnesses[-1])]
            for s2 in targets:
                assert (seifert.realizable_disjoint_pair(s1, s2)
                        == witness_oracle.realizable_disjoint_pair(s1, s2)), (D, s1, s2)


def test_every_witness_tried_in_one_walk():
    # answers false after all witnesses; one walk per witness took 6.4 s,
    # 6.0 s and 14.2 s here (2-vCPU host)
    D = 25878772921  # 1 + 4 * 2*3*5*...*29: 1,024 witnesses with a > 0
    with time_limit(2.0):
        assert seifert.realizable_disjoint_pair(identity_class(D), form_class(2, 1, (1 - D) // 8)) == (False, None)
    with time_limit(2.0):
        assert seifert.nonisotopic_exists(892371481) == (False, None)
    with time_limit(2.0):
        assert seifert.prescribed_form_exists(892371481) == (False, None)


def test_prescribed_form_on_a_long_principal_cycle():
    # 192 witnesses against a principal cycle of 1,563,294 forms: one walk,
    # where two walks per witness took 41.5 s (2-vCPU host)
    with time_limit(10.0):
        assert seifert.prescribed_form_exists(338395813410433) == (False, None)


def test_cli_pair_answers_false(capsys):
    with time_limit(2.0):
        code = cli.main(["seifert", "pair", "--json", "--", "25878772921",
                         "1", "1", "-6469693230", "2", "1", "-3234846615"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["exists"] is False and doc["witness"] is None
