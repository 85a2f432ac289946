"""Equivalence: the tail-walk binomial CDF vs. the term-by-term sum it replaced.

The assessor's σ predicate (Eq. 1) compares ``P(O ≤ observed)`` against
θ_out at every activation.  ``binomial_cdf`` now walks the smaller tail
outward from one ``lgamma`` term instead of summing one ``binomial_pmf``
per term, which changes the floating-point rounding of every probability.
This module is the oracle that the change moves no decision: the MAR loop
(``JoinSession``, default ``RunConfig``) runs once stock and once with the
old summation patched in, on a bursty dataset and on a clean one, and the
whole ``(step, σ, µ, π, state_after)`` sequence must be identical.
"""

from __future__ import annotations

import pytest

from repro.datagen.testcases import (
    STANDARD_TEST_CASES,
    GeneratedDataset,
    TestCaseSpec,
    generate_test_case,
)
from repro.runtime.config import RunConfig
from repro.runtime.session import JoinSession
from repro.stats import completeness


def bursty_dataset() -> GeneratedDataset:
    """Bursty variants in both inputs: σ fires and the loop switches state."""
    return generate_test_case(STANDARD_TEST_CASES["few_high_both"], 1_000, 2_000)


def clean_dataset() -> GeneratedDataset:
    """No variants: every assessment sees matches on the binomial model's track."""
    spec = TestCaseSpec("clean", "uniform", "child", 1_000, 2_000, variant_rate=0.0)
    return generate_test_case(spec)


def run_assessments(dataset: GeneratedDataset):
    session = JoinSession(dataset.parent, dataset.child, "location", RunConfig())
    return session.run().trace.assessments


def decisions(records) -> list:
    return [
        (
            record.assessment.step,
            record.assessment.sigma,
            record.assessment.mu_left,
            record.assessment.mu_right,
            record.assessment.pi_left,
            record.assessment.pi_right,
            record.state_after,
        )
        for record in records
    ]


@pytest.mark.parametrize("make_dataset", [bursty_dataset, clean_dataset])
def test_tail_walk_makes_the_decisions_of_the_summed_cdf(
    monkeypatch, summed_binomial_cdf, make_dataset
):
    dataset = make_dataset()
    walked = run_assessments(dataset)
    monkeypatch.setattr(completeness, "binomial_cdf", summed_binomial_cdf)
    summed = run_assessments(dataset)

    assert walked, "the run must reach at least one assessment"
    assert decisions(walked) == decisions(summed)
    assert [record.assessment.outlier_probability for record in walked] == (
        pytest.approx(
            [record.assessment.outlier_probability for record in summed],
            rel=1e-9,
            abs=1e-300,
        )
    )
