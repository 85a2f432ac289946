"""Tests for the MAR responder (guard evaluation and enacted switches)."""

from repro.core.assessor import Assessment
from repro.core.responder import Responder
from repro.core.state_machine import JoinState, StateMachine
from repro.engine.streams import TableStream
from repro.engine.table import Table
from repro.engine.tuples import Schema
from repro.joins.base import JoinAttribute, JoinMode, JoinSide
from repro.joins.engine import SymmetricJoinEngine


def assessment(
    sigma,
    mu_left=True,
    mu_right=True,
    pi_left=True,
    pi_right=True,
    evidence=True,
    step=100,
):
    return Assessment(
        step=step,
        sigma=sigma,
        mu={JoinSide.LEFT: mu_left, JoinSide.RIGHT: mu_right},
        pi={JoinSide.LEFT: pi_left, JoinSide.RIGHT: pi_right},
        evidence_available=evidence,
        outlier_probability=0.01 if sigma else 0.5,
        shortfall=10.0 if sigma else 0.0,
    )


def make_engine():
    schema = Schema(["row_id", "location"])
    rows = [(i, f"LOCATION NUMBER {i:03d}") for i in range(30)]
    left = Table.from_rows(schema, rows)
    right = Table.from_rows(schema, rows)
    return SymmetricJoinEngine(
        TableStream(left), TableStream(right), JoinAttribute("location", "location")
    )


class TestGuardEvaluation:
    def setup_method(self):
        self.responder = Responder(StateMachine())

    def test_phi0_when_all_clear(self):
        guards = self.responder.evaluate_guards(assessment(sigma=False))
        assert guards.phi0 and not (guards.phi1 or guards.phi2 or guards.phi3)

    def test_phi1_when_both_sides_perturbed(self):
        guards = self.responder.evaluate_guards(
            assessment(sigma=True, mu_left=False, mu_right=False)
        )
        assert guards.phi1 and not guards.phi2 and not guards.phi3

    def test_phi2_when_left_perturbed_and_historically_clean(self):
        guards = self.responder.evaluate_guards(
            assessment(sigma=True, mu_left=False, mu_right=True, pi_left=True)
        )
        assert guards.phi2
        assert guards.target() is JoinState.LAP_REX

    def test_phi2_blocked_by_dirty_history(self):
        guards = self.responder.evaluate_guards(
            assessment(sigma=True, mu_left=False, mu_right=True, pi_left=False)
        )
        assert not guards.phi2
        assert guards.target() is None

    def test_phi3_when_right_perturbed_and_historically_clean(self):
        guards = self.responder.evaluate_guards(
            assessment(sigma=True, mu_left=True, mu_right=False, pi_right=True)
        )
        assert guards.phi3
        assert guards.target() is JoinState.LEX_RAP

    def test_sigma_without_evidence_falls_back_to_lap_rap(self):
        guards = self.responder.evaluate_guards(
            assessment(sigma=True, mu_left=True, mu_right=True, evidence=False)
        )
        assert guards.phi1
        assert guards.target() is JoinState.LAP_RAP

    def test_sigma_with_clean_windows_and_evidence_keeps_state(self):
        guards = self.responder.evaluate_guards(
            assessment(sigma=True, mu_left=True, mu_right=True, evidence=True,
                       pi_left=False, pi_right=False)
        )
        assert guards.target() is None

    def test_no_sigma_with_perturbed_window_keeps_state(self):
        guards = self.responder.evaluate_guards(
            assessment(sigma=False, mu_left=False, mu_right=True)
        )
        assert guards.target() is None


class TestTwoStateRestriction:
    def test_source_identification_disabled_maps_to_lap_rap(self):
        responder = Responder(StateMachine(), allow_source_identification=False)
        guards = responder.evaluate_guards(
            assessment(sigma=True, mu_left=False, mu_right=True, pi_left=True)
        )
        assert not guards.phi2 and not guards.phi3
        assert guards.phi1
        assert guards.target() is JoinState.LAP_RAP


class TestRespond:
    def test_respond_switches_engine_modes(self):
        machine = StateMachine()
        responder = Responder(machine)
        engine = make_engine()
        engine.run_batch(6)
        guards, new_state, switches = responder.respond(
            assessment(sigma=True, evidence=False), engine
        )
        assert new_state is JoinState.LAP_RAP
        assert machine.state is JoinState.LAP_RAP
        assert engine.mode(JoinSide.LEFT) is JoinMode.APPROXIMATE
        assert engine.mode(JoinSide.RIGHT) is JoinMode.APPROXIMATE
        assert len(switches) == 2
        assert all(switch.catch_up_tuples >= 1 for switch in switches)

    def test_respond_without_transition_leaves_engine_unchanged(self):
        machine = StateMachine()
        responder = Responder(machine)
        engine = make_engine()
        guards, new_state, switches = responder.respond(
            assessment(sigma=False), engine
        )
        assert new_state is None
        assert switches == []
        assert engine.mode(JoinSide.LEFT) is JoinMode.EXACT

    def test_respond_back_to_exact(self):
        machine = StateMachine(initial=JoinState.LAP_RAP)
        responder = Responder(machine)
        engine = make_engine()
        engine.set_modes(JoinMode.APPROXIMATE, JoinMode.APPROXIMATE)
        engine.run_batch(4)
        guards, new_state, switches = responder.respond(
            assessment(sigma=False), engine
        )
        assert new_state is JoinState.LEX_REX
        assert engine.mode(JoinSide.LEFT) is JoinMode.EXACT
        assert engine.mode(JoinSide.RIGHT) is JoinMode.EXACT
