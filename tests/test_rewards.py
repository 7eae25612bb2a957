"""Entropy and format gates, tie-breaker channel, autoscaler."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloop.errors import ValidationError
from geoloop import rewards


class TestEntropyGate:
    def test_all_equal_pass(self):
        mask = rewards.entropy_gate([1.0, 1.0, 1.0], 0.8)
        assert mask.all()

    def test_nearest_rank_quantile(self):
        mask = rewards.entropy_gate([1.0, 2.0, 3.0, 4.0, 5.0], 0.8)
        assert mask.tolist() == [True, True, True, True, False]

    def test_single_element(self):
        assert rewards.entropy_gate([7.0], 0.8).tolist() == [True]

    def test_empty_batch(self):
        assert rewards.entropy_gate([], 0.8).size == 0

    def test_quantile_bounds(self):
        with pytest.raises(ValidationError):
            rewards.entropy_gate([1.0], 0.0)
        with pytest.raises(ValidationError):
            rewards.entropy_gate([1.0], 1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 40))
    def test_ties_at_threshold_pass(self, seed, n):
        rng = np.random.default_rng(seed)
        ent = rng.integers(0, 4, n).astype(float)  # heavy ties
        mask = rewards.entropy_gate(ent, 0.8)
        threshold = np.sort(ent)[max(1, math.ceil(0.8 * n)) - 1]
        assert np.array_equal(mask, ent <= threshold)


class TestFormatGateSchedule:
    def test_before_threshold(self):
        assert not rewards.format_gate_schedule(0, 50)
        assert not rewards.format_gate_schedule(14, 50)

    def test_boundary_inclusive(self):
        assert rewards.format_gate_schedule(15, 50)

    def test_zero_warmup_always_active(self):
        assert rewards.format_gate_schedule(0, 0)


class TestTieBreakReward:
    def test_neutral_z(self):
        gates = rewards.GateState(True, True)
        state = rewards.AutoscalerState()
        value = rewards.mi_tiebreak_reward(0.0, 2.5, 0.15, gates, state)
        assert value == pytest.approx(0.075)

    def test_gate_failure_zeroes(self):
        state = rewards.AutoscalerState()
        for gates in (rewards.GateState(False, True), rewards.GateState(True, False)):
            assert rewards.mi_tiebreak_reward(10.0, 2.5, 0.15, gates, state) == 0.0

    def test_sigmoid_asymptote(self):
        gates = rewards.GateState(True, True)
        state = rewards.AutoscalerState(beta=2.0)
        value = rewards.mi_tiebreak_reward(1e6, 2.5, 0.15, gates, state)
        assert value == pytest.approx(0.3)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-50, 50), st.floats(0.1, 10.0))
    def test_bounded_by_beta_weight(self, z, beta):
        gates = rewards.GateState(True, True)
        state = rewards.AutoscalerState(beta=beta)
        value = rewards.mi_tiebreak_reward(z, 2.5, 0.15, gates, state)
        assert 0.0 <= value <= beta * 0.15 + 1e-12


class TestAutoscaler:
    def test_fixed_point(self):
        state = rewards.AutoscalerState(ema_mi=0.2, ema_base=1.0, beta=1.0,
                                        target_ratio=0.2, rate=0.05, decay=1.0)
        # decay=1.0 freezes the EMAs, so rho stays exactly at target
        new = rewards.autoscale_update(state, 123.0, 456.0)
        assert new.beta == pytest.approx(1.0)

    def test_above_target_shrinks(self):
        state = rewards.AutoscalerState(ema_mi=0.5, ema_base=1.0)
        new = rewards.autoscale_update(state, 0.5, 1.0)
        assert new.beta < state.beta

    def test_zero_rate_freezes_beta(self):
        state = rewards.AutoscalerState(rate=0.0)
        new = rewards.autoscale_update(state, 5.0, 0.1)
        assert new.beta == state.beta

    def test_beta_clamped(self):
        state = rewards.AutoscalerState(beta=1e3)
        new = rewards.autoscale_update(state, 0.0, 10.0)
        assert new.beta <= 1e3

    def test_zero_base_survives(self):
        state = rewards.AutoscalerState()
        new = rewards.autoscale_update(state, 0.1, 0.0)
        assert new.beta > 0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 2.0), st.floats(0.0, 2.0),
           st.floats(0.01, 5.0), st.floats(0.01, 2.0))
    def test_step_sign_matches_target_gap(self, mi_mag, base_mag, ema_mi, ema_base):
        state = rewards.AutoscalerState(ema_mi=ema_mi, ema_base=ema_base, beta=1.0)
        new = rewards.autoscale_update(state, mi_mag, base_mag)
        rho = new.ema_mi / max(new.ema_base, rewards.RHO_FLOOR)
        if rho < state.target_ratio:
            assert new.beta >= state.beta
        elif rho > state.target_ratio:
            assert new.beta <= state.beta
