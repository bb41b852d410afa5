"""One-token mutations of bundled corpus rows: each is either rejected as a
format error or verified into a report, never another exception."""

import re
import signal
from importlib import resources

import pytest

from cremonalab.corpus import CorpusFormatError, parse_corpus, verify_row

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TOKEN = re.compile(r"\w+|\s+|[^\w\s]")
ROWS = [
    line
    for line in resources.files("cremonalab.data").joinpath("corpus.txt").read_text().splitlines()
    if line.strip() and not line.startswith("#")
]
VOCABULARY = sorted({t for line in ROWS for t in TOKEN.findall(line)})
# Seconds per example.  A few mutants run far longer, such as a conductor
# turned into zeta(143); the property says nothing about them past this.
# The timer repeats every BUDGET seconds until it is cleared: hypothesis runs
# a gc callback, and an _OverBudget raised while that callback runs is
# swallowed by the collector, so a one-shot alarm can be lost.
BUDGET = 2.0


class _OverBudget(BaseException):
    """Raised by the timer; a BaseException, so no handler in the code under
    test can mistake it for a failed check."""


def _over_budget(signum, frame):
    raise _OverBudget


@st.composite
def one_token_mutants(draw):
    tokens = TOKEN.findall(draw(st.sampled_from(ROWS)))
    i = draw(st.integers(0, len(tokens) - 1))
    op = draw(st.sampled_from(("replace", "delete", "insert")))
    if op == "delete":
        del tokens[i]
    else:
        tokens[i:i + (op == "replace")] = [draw(st.sampled_from(VOCABULARY))]
    return "".join(tokens)


def _mutant(name: str, old: str, new: str) -> str:
    row = next(r for r in ROWS if r.split("|")[0].strip() == name)
    return row.replace(old, new, 1)


# hypothesis mixes the integer literals of every loaded module into its
# draws, so the 500 examples shift with unrelated edits; the mutants that
# once hung or crashed the verifier are pinned here.
@hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
@hypothesis.given(one_token_mutants())
@hypothesis.example(_mutant("2.G9", "zeta(9)^6", "zeta(829)^6"))  # lost alarm, then a hang
@hypothesis.example(_mutant("3.333", "zeta(3)", "zeta(143)"))  # runs far past the budget
@hypothesis.example(_mutant("3.6.1", "gen_orders = 6", "gen_orders = -6"))  # crashed in verify_row
def test_one_token_mutation_is_a_format_error_or_a_report(text):
    previous = signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, BUDGET, BUDGET)
    try:
        for row in parse_corpus(text):
            verify_row(row)
    except (CorpusFormatError, _OverBudget):
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
