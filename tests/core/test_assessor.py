"""Tests for the MAR assessor (σ / µ / π predicates)."""

import pytest

from repro.core.assessor import Assessor
from repro.core.monitor import Observation
from repro.core.thresholds import Thresholds
from repro.joins.base import JoinSide
from repro.stats import completeness
from repro.stats.binomial import binomial_cdf


def observation(
    step=100,
    observed_matches=50,
    left_scanned=50,
    right_scanned=50,
    left_window=0,
    right_window=0,
    approx_active=0,
    window=100,
):
    return Observation(
        step=step,
        observed_matches=observed_matches,
        left_scanned=left_scanned,
        right_scanned=right_scanned,
        approx_window_counts={JoinSide.LEFT: left_window, JoinSide.RIGHT: right_window},
        approx_window_fractions={
            JoinSide.LEFT: left_window / window,
            JoinSide.RIGHT: right_window / window,
        },
        approx_active_steps=approx_active,
        min_window_similarity=1.0,
    )


def make_assessor(**overrides):
    thresholds = Thresholds(**overrides) if overrides else Thresholds()
    return Assessor(thresholds, parent_size=1000, parent_side=JoinSide.LEFT)


class TestActivationGating:
    def test_assesses_every_delta_adapt_steps(self):
        assessor = make_assessor(delta_adapt=100)
        assert assessor.should_assess(100)
        assert assessor.should_assess(200)
        assert not assessor.should_assess(150)
        assert not assessor.should_assess(0)

    def test_does_not_assess_same_step_twice(self):
        assessor = make_assessor(delta_adapt=100)
        assert assessor.should_assess(100)
        assessor.assess(observation(step=100))
        assert not assessor.should_assess(100)
        assert assessor.should_assess(200)


class TestSigmaPredicate:
    def test_on_track_run_is_not_sigma(self):
        assessor = make_assessor()
        # 500 parents scanned of 1000 → p = 0.5; 400 children scanned →
        # expected 200 matches; observing 195 is fine.
        result = assessor.assess(
            observation(observed_matches=195, left_scanned=500, right_scanned=400)
        )
        assert result.sigma is False
        assert result.shortfall == pytest.approx(5.0)

    def test_large_shortfall_triggers_sigma(self):
        assessor = make_assessor()
        result = assessor.assess(
            observation(observed_matches=150, left_scanned=500, right_scanned=400)
        )
        assert result.sigma is True
        assert result.outlier_probability <= 0.05

    def test_no_children_scanned_is_never_sigma(self):
        assessor = make_assessor()
        result = assessor.assess(
            observation(observed_matches=0, left_scanned=10, right_scanned=0)
        )
        assert result.sigma is False

    @pytest.mark.parametrize("right_scanned,expected_calls", [(400, 1), (0, 0)])
    def test_one_cdf_per_assessment_and_none_without_children(
        self, monkeypatch, right_scanned, expected_calls
    ):
        calls = []

        def counting_cdf(*args):
            calls.append(args)
            return binomial_cdf(*args)

        monkeypatch.setattr(completeness, "binomial_cdf", counting_cdf)
        make_assessor().assess(
            observation(
                observed_matches=150, left_scanned=500, right_scanned=right_scanned
            )
        )
        assert len(calls) == expected_calls

    def test_parent_side_can_be_right(self):
        assessor = Assessor(Thresholds(), parent_size=1000, parent_side=JoinSide.RIGHT)
        # Now the right input is the parent: 500 parents scanned, 400
        # children (left) scanned, 150 observed is an outlier.
        result = assessor.assess(
            observation(observed_matches=150, left_scanned=400, right_scanned=500)
        )
        assert result.sigma is True


class TestMuPredicates:
    def test_clean_windows_mean_unperturbed(self):
        assessor = make_assessor()
        result = assessor.assess(observation(left_window=0, right_window=0))
        assert result.mu_left and result.mu_right

    def test_window_above_threshold_flags_perturbation(self):
        assessor = make_assessor(theta_curpert=2, window_size=100)
        result = assessor.assess(
            observation(left_window=0, right_window=5, approx_active=50)
        )
        assert result.mu_left is True
        assert result.mu_right is False

    def test_count_threshold_is_inclusive(self):
        assessor = make_assessor(theta_curpert=2, window_size=100)
        result = assessor.assess(
            observation(right_window=2, approx_active=50)
        )
        assert result.mu_right is True

    def test_evidence_availability_passthrough(self):
        assessor = make_assessor()
        assert assessor.assess(observation(approx_active=0)).evidence_available is False
        assert assessor.assess(
            observation(step=200, approx_active=10)
        ).evidence_available is True


class TestPiPredicates:
    def test_history_accumulates_only_with_evidence(self):
        assessor = make_assessor(theta_pastpert=2)
        # Without approximate activity the µ verdicts are vacuous and must
        # not count towards the perturbation history.
        for step in (100, 200, 300):
            assessor.assess(observation(step=step, right_window=5, approx_active=0))
        assert assessor.perturbed_assessments(JoinSide.RIGHT) == 0

    def test_pi_flips_after_repeated_perturbation(self):
        assessor = make_assessor(theta_pastpert=2)
        results = []
        for index in range(4):
            results.append(
                assessor.assess(
                    observation(step=100 * (index + 1), right_window=10, approx_active=50)
                )
            )
        # The first assessments still consider the right input historically
        # clean; after more than θ_pastpert perturbed assessments π_right
        # becomes false.
        assert results[0].pi_right is True
        assert results[-1].pi_right is False
        assert assessor.perturbed_assessments(JoinSide.RIGHT) == 4
        # The left input never looked perturbed.
        assert results[-1].pi_left is True
        assert assessor.perturbed_assessments(JoinSide.LEFT) == 0
