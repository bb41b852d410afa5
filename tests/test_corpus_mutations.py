"""One-token mutations of bundled corpus rows: each is either rejected as a
format error or verified into a report, never another exception."""

import re
import signal
import time
from importlib import resources

import pytest

from cremonalab.corpus import FIELD_DEGREE_CAP, CorpusFormatError, parse_corpus, verify_row

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TOKEN = re.compile(r"\w+|\s+|[^\w\s]")
ROWS = [
    line
    for line in resources.files("cremonalab.data").joinpath("corpus.txt").read_text().splitlines()
    if line.strip() and not line.startswith("#")
]
VOCABULARY = sorted({t for line in ROWS for t in TOKEN.findall(line)})
# Seconds per example; the property says nothing about a mutant past this.
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


# Conductors that once ran far past the budget: each field degree is over the cap.
LARGE_CONDUCTORS = {
    _mutant("2.G9", "zeta(9)^6", "zeta(829)^6"): "phi(7461) = 4968",  # lost alarm, then a hang
    _mutant("3.333", "zeta(3)", "zeta(143)"): "phi(429) = 240",
    _mutant("2.G7", "zeta(7)", "zeta(427)"): "phi(427) = 360",
}
ZETA_829, ZETA_143, ZETA_427 = LARGE_CONDUCTORS


def test_large_conductor_fails_the_field_degree_check():
    for text, degree in LARGE_CONDUCTORS.items():
        (row,) = parse_corpus(text)
        start = time.perf_counter()
        checks = [(c.label, c.passed, c.detail) for c in verify_row(row).checks]
        assert time.perf_counter() - start < 0.5, row.name
        assert checks == [("field degree", False, f"{degree} over cap {FIELD_DEGREE_CAP}")]


# hypothesis mixes the integer literals of every loaded module into its
# draws, so the 500 examples shift with unrelated edits; the mutants that
# once hung or crashed the verifier are pinned here.
@hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
@hypothesis.given(one_token_mutants())
@hypothesis.example(ZETA_829)
@hypothesis.example(ZETA_143)
@hypothesis.example(ZETA_427)
@hypothesis.example(_mutant("3.6.1", "gen_orders = 6", "gen_orders = -6"))  # crashed in verify_row
def test_one_token_mutation_is_a_format_error_or_a_report(text):
    """Every failed check of a report says what failed: its detail is not empty."""
    previous = signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, BUDGET, BUDGET)
    try:
        for row in parse_corpus(text):
            for check in verify_row(row).checks:
                assert check.passed or check.detail, (row.name, check.label)
    except (CorpusFormatError, _OverBudget):
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
