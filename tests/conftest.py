"""Shared fixtures for the test suite.

Fixtures build *small* inputs (tens to a few hundred rows) so the whole
suite stays fast; scale-sensitive behaviour is exercised by the benchmark
suite instead.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from typing import List

import pytest

from repro.datagen.testcases import TestCaseSpec, generate_test_case
from repro.engine.table import Table
from repro.engine.tuples import Record, Schema
from repro.stats.binomial import (
    NORMAL_APPROXIMATION_CUTOFF,
    binomial_pmf,
    normal_approx_cdf,
)


def _exact_binomial_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ bin(n, p), 0 <= p < 1, in exact rational arithmetic.

    With ``p = a / d`` exactly, the sum is ``Σ C(n, i) a^i (d-a)^(n-i) / d^n``;
    its integer terms follow from one another by exact division, and the
    final integer quotient is correctly rounded to the nearest float.
    """
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    ratio = Fraction(p)
    a, d = ratio.numerator, ratio.denominator
    b = d - a
    term = b**n
    total = term
    for i in range(k):
        term = term * (n - i) * a // ((i + 1) * b)
        total += term
    return total / d**n


def _summed_binomial_cdf(
    k: int, n: int, p: float, exact_cutoff: int = NORMAL_APPROXIMATION_CUTOFF
) -> float:
    """The term-by-term ``binomial_cdf``: one ``binomial_pmf`` per tail term."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    if n > exact_cutoff:
        return normal_approx_cdf(k, n, p)
    if k <= n * p:
        return min(sum(binomial_pmf(i, n, p) for i in range(k + 1)), 1.0)
    return max(0.0, 1.0 - sum(binomial_pmf(i, n, p) for i in range(k + 1, n + 1)))


@pytest.fixture(scope="session")
def reference_binomial_cdf():
    """An exact binomial CDF ``(k, n, p) -> float`` for cross-checks."""
    return _exact_binomial_cdf


@pytest.fixture(scope="session")
def summed_binomial_cdf():
    """The O(k) term-by-term binomial CDF the tail walk replaced."""
    return _summed_binomial_cdf


def _levenshtein_distance(left: str, right: str) -> int:
    """Levenshtein (insert/delete/substitute) distance between two strings.

    A standard two-row dynamic program; O(len(left) * len(right)) time,
    O(min(len)) space.
    """
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    # Keep the shorter string as the column dimension to bound memory.
    if len(right) > len(left):
        left, right = right, left
    previous: List[int] = list(range(len(right) + 1))
    for i, left_char in enumerate(left, start=1):
        current = [i] + [0] * len(right)
        for j, right_char in enumerate(right, start=1):
            substitution = previous[j - 1] + (0 if left_char == right_char else 1)
            current[j] = min(previous[j] + 1, current[j - 1] + 1, substitution)
        previous = current
    return previous[-1]


def _damerau_levenshtein_distance(left: str, right: str) -> int:
    """Damerau-Levenshtein distance (adds adjacent transposition).

    The restricted ("optimal string alignment") variant, which suffices for
    recognising single-typo variants such as transposed characters.
    """
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    rows = len(left) + 1
    cols = len(right) + 1
    table: List[List[int]] = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if left[i - 1] == right[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
            if (
                i > 1
                and j > 1
                and left[i - 1] == right[j - 2]
                and left[i - 2] == right[j - 1]
            ):
                table[i][j] = min(table[i][j], table[i - 2][j - 2] + 1)
    return table[-1][-1]


@pytest.fixture(scope="session")
def levenshtein_distance():
    """Edit distance ``(str, str) -> int``: the data generator's variants
    are one insert, delete or substitution away from the clean value."""
    return _levenshtein_distance


@pytest.fixture(scope="session")
def damerau_levenshtein_distance():
    """Edit distance that also counts one adjacent transposition as one
    edit ``(str, str) -> int``, for transposition variants."""
    return _damerau_levenshtein_distance


def _process_alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


@pytest.fixture(scope="session")
def process_alive():
    """Whether a pid runs — what the no-stray-worker tests poll."""
    return _process_alive


@pytest.fixture
def location_schema() -> Schema:
    """A two-attribute schema used by most join tests."""
    return Schema(["row_id", "location"], name="locations")


@pytest.fixture
def atlas_table(location_schema) -> Table:
    """A small, clean parent table of location strings."""
    rows = [
        (0, "LIG GE GENOVA"),
        (1, "LOM MI MILANO CENTRO"),
        (2, "LAZ RM ROMA CAPITALE"),
        (3, "TAA BZ SANTA CRISTINA VALGARDENA"),
        (4, "VEN VE VENEZIA MESTRE"),
        (5, "TOS FI FIRENZE NOVOLI"),
        (6, "CAM NA NAPOLI CENTRO"),
        (7, "PIE TO TORINO AURORA"),
    ]
    return Table.from_rows(location_schema, rows, name="atlas")


@pytest.fixture
def accidents_table(location_schema) -> Table:
    """A small child table: two typos ("MILANx", "TORINq"), one unknown location."""
    rows = [
        (100, "LIG GE GENOVA"),
        (101, "LOM MI MILANO CENTRO"),
        (102, "LOM MI MILANx CENTRO"),
        (103, "LAZ RM ROMA CAPITALE"),
        (104, "TAA BZ SANTA CRISTINx VALGARDENA"),
        (105, "VEN VE VENEZIA MESTRE"),
        (106, "PIE TO TORINq AURORA"),
        (107, "SAR CA QUARTU SANT ELENA"),
        (108, "LIG GE GENOVA"),
    ]
    return Table.from_rows(location_schema, rows, name="accidents")


@pytest.fixture
def small_dataset():
    """A small generated test case (child-only variants, bursty pattern)."""
    spec = TestCaseSpec(
        name="small_few_high_child",
        pattern="few_high",
        variants_in="child",
        parent_size=300,
        child_size=500,
        seed=17,
    )
    return generate_test_case(spec)


@pytest.fixture
def small_dataset_both():
    """A small generated test case with variants in both tables."""
    spec = TestCaseSpec(
        name="small_uniform_both",
        pattern="uniform",
        variants_in="both",
        parent_size=300,
        child_size=500,
        seed=29,
    )
    return generate_test_case(spec)


@pytest.fixture
def rng() -> random.Random:
    """A seeded RNG for tests that need explicit randomness."""
    return random.Random(1234)


def make_records(schema: Schema, rows) -> list:
    """Helper: build records from positional rows (importable by test modules)."""
    return [Record.from_values(schema, list(row)) for row in rows]
