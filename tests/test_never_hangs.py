"""Every subcommand answers every input promptly.

Hypothesis drives each command of ``qforms`` through ``cli.main`` in JSON
mode on integers up to 10^40.  Each call must finish within 5 s and exit 0
(a document), 1 (a document with a stable ``error`` code) or 2 (a usage
error, nothing on stdout).  An indefinite form whose cycle is longer than
the walk budget is refused after 1-3 s at these sizes, so the commands
that reduce forms of the input's size (``WALKS``) draw few huge inputs.
``ADVERSARIAL`` adds inputs that random integers seldom hit: a long
regulator, large class numbers and a highly composite (1 - D)/4.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from qforms import errors
from qforms.cli import main
from test_forms import time_limit

HUGE = 10**40
CODES = {cls.code for cls in vars(errors).values()
         if isinstance(cls, type) and issubclass(cls, errors.DomainError)}

# argv before the integers, how many follow, and a moderate bound: D grows
# as the square of form coefficients and as the fourth power of plane and
# cube entries, so both bounds keep D near 10^8, where cycles are short
COMMANDS = {
    "reduce": (["reduce", "--json"], 3, 10**4),
    "compose": (["compose", "--json"], 6, 10**4),
    "classgroup": (["classgroup", "--json"], 1, 10**4),
    "special-squares": (["special-squares", "--json"], 1, 10**4),
    "klein --plane": (["klein", "--json", "--plane"], 8, 10**2),
    "klein --pair": (["klein", "--json", "--pair"], 8, 10**4),
    "cube --from-forms": (["cube", "--json", "--from-forms"], 6, 10**4),
    "cube --slice": (["cube", "--json", "--slice"], 8, 10**2),
    "seifert exists": (["seifert", "exists", "--json"], 1, 10**4),
    "seifert pair": (["seifert", "pair", "--json"], 7, 10**4),
    "seifert pairs": (["seifert", "pairs", "--json"], 1, 10**4),
    "seifert pairs --include-nonprimitive":
        (["seifert", "pairs", "--json", "--include-nonprimitive"], 1, 10**4),
    "seifert feher": (["seifert", "feher", "--json"], 4, 10**4),
    "normal-form": (["normal-form", "--json"], 4, 10**4),
}
WALKS = ["reduce", "compose", "klein --plane", "cube --slice", "seifert pair", "seifert feher"]

# argv and its outcome: 0, or the error code of exit 1.  The principal
# cycle of D = 584637511777 (the first two) has 485,404 forms;
# -99999999, -239999999 and 100000001 have large class groups; for the
# last six, (1 - D)/4 is -+223092870, the product of the first nine primes
ADVERSARIAL = [
    (["reduce", "--json", "1", "763717", "-343463922"], 0),
    (["classgroup", "--json", "584637511777"], "too-large"),
    (["classgroup", "--json", "--", "-99999999"], "too-large"),
    (["classgroup", "--", "-239999999"], 0),
    (["classgroup", "100000001"], 0),
    (["seifert", "exists", "--json", "--", "-892371479"], 0),
    (["special-squares", "--json", "--", "-892371479"], 0),
    (["seifert", "pairs", "--json", "--", "-892371479"], "too-large"),
    (["seifert", "exists", "--json", "--", "892371481"], 0),
    (["special-squares", "--json", "--", "892371481"], 0),
    (["seifert", "pairs", "--json", "--", "892371481"], "too-large"),
]


def run(argv):
    """(exit code, stdout) of one call, which must end within 5 s."""
    out = io.StringIO()
    with time_limit(5.0), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def check_argv(argv):
    """The exit code of one call, or in JSON mode the error code of exit 1."""
    code, out = run(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "", argv
        return code
    if "--json" not in argv:
        return code
    doc = json.loads(out)
    assert ("error" in doc) == (code == 1), argv
    if code == 1:
        assert doc["error"] in CODES, argv
        return doc["error"]
    return code


def check(name, data, bound):
    prefix, n, _ = COMMANDS[name]
    values = data.draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
    check_argv(prefix + [str(v) for v in values])


@pytest.mark.parametrize("name", COMMANDS)
@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(data=st.data())
def test_small_and_moderate(name, data):
    check(name, data, data.draw(st.sampled_from((12, COMMANDS[name][2])), label="bound"))


@pytest.mark.parametrize("name", [name for name in COMMANDS if name not in WALKS])
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(data=st.data())
def test_huge(name, data):
    check(name, data, HUGE)


@settings(derandomize=True, database=None, max_examples=4, deadline=None)
@given(name=st.sampled_from(WALKS), data=st.data())
def test_huge_walks(name, data):
    check(name, data, HUGE)


@pytest.mark.parametrize("argv, outcome", ADVERSARIAL, ids=[" ".join(argv) for argv, _ in ADVERSARIAL])
def test_adversarial(argv, outcome):
    assert check_argv(argv) == outcome
