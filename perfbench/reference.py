"""Fixed reference work that measures how fast this machine runs right now.

On a shared host the same CLI call can take 40% longer for minutes at a
time.  The benchmark times this work just before and just after every call
and divides the call's time by the mean of the two, so the gated metrics
compare work done, not the host's load at the moment.  The loop uses the
kind of arithmetic the program spends its time on (rational polynomial
evaluation and fraction-free integer elimination) but none of the
program's code, so no change to the program moves it.  Changing this file re-bases every
normalized metric: do it only in a change that redefines the benchmark.

Set-up time has its own reference, ``IMPORTS``: standard-library modules
that ``terracini.cli`` does not import.  Importing them in a fresh
interpreter is the same kind of work as importing the program (finding,
unmarshalling and running module code), and it slows down with the host
in the same way, which the arithmetic above does not.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from time import perf_counter

_VARS, _DEGREE, _SIZE = 4, 7, 14

IMPORTS = ("email.parser", "http.client", "xml.dom.minidom", "logging", "pprint",
           "difflib", "tomllib")
# Seconds that IMPORTS take on a 2-core x86-64 host at its fast speed.  It
# only scales set-up time from units of the reference imports back to
# seconds, so that setup_s reads as seconds on that host.
IMPORTS_NOMINAL_S = 0.04


def _exponents(n: int, d: int) -> list[tuple[int, ...]]:
    out = []
    for h in range(d + 1):
        for combo in combinations_with_replacement(range(n), h):
            exp = [0] * n
            for i in combo:
                exp[i] += 1
            out.append(tuple(exp))
    return out


_POLY = {e: Fraction((sum((i + 3) * x for i, x in enumerate(e)) * 7) % 19 - 9, 1 + sum(e) % 4)
         for e in _exponents(_VARS, _DEGREE)}
_POINTS = [tuple(Fraction((a * 3 + i) % 11 - 5, 1 + (a + i) % 3) for i in range(_VARS))
           for a in range(3)]


def work():
    """Evaluate a dense 330-term polynomial at three points; run one Bareiss elimination."""
    values = []
    for pt in _POINTS:
        acc = Fraction(0)
        for exp, c in _POLY.items():
            term = c
            for x, k in zip(pt, exp):
                if k:
                    term *= x ** k
            acc += term
        values.append(acc)
    m = [[(i * 37 + j * 11) % 97 - 48 + (i == j) * 100 for j in range(_SIZE)]
         for i in range(_SIZE)]
    prev = 1
    for c in range(_SIZE - 1):
        for r in range(c + 1, _SIZE):
            m[r] = [(m[c][c] * m[r][x] - m[r][c] * m[c][x]) // prev for x in range(_SIZE)]
        prev = m[c][c]
    return values, m[-1][-1]


def seconds() -> float:
    """Wall time of one run of the reference work."""
    t0 = perf_counter()
    work()
    return perf_counter() - t0
