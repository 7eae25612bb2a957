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
        mask = rewards.entropy_gate([1.0, 1.0, 1.0])
        assert mask.all()

    def test_nearest_rank_quantile(self):
        # ENTROPY_QUANTILE 0.8 of five entropies is the fourth smallest.
        assert rewards.ENTROPY_QUANTILE == 0.8
        mask = rewards.entropy_gate([1.0, 2.0, 3.0, 4.0, 5.0])
        assert mask.tolist() == [True, True, True, True, False]

    def test_single_element(self):
        assert rewards.entropy_gate([7.0]).tolist() == [True]

    def test_empty_batch(self):
        assert rewards.entropy_gate([]).size == 0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 40))
    def test_ties_at_threshold_pass(self, seed, n):
        rng = np.random.default_rng(seed)
        ent = rng.integers(0, 4, n).astype(float)  # heavy ties
        mask = rewards.entropy_gate(ent)
        threshold = np.sort(ent)[max(1, math.ceil(rewards.ENTROPY_QUANTILE * n)) - 1]
        assert np.array_equal(mask, ent <= threshold)


class TestFormatGateSchedule:
    def test_before_threshold(self):
        assert not rewards.format_gate_schedule(0, 50)
        assert not rewards.format_gate_schedule(14, 50)

    def test_boundary_inclusive(self):
        assert rewards.format_gate_schedule(15, 50)

    def test_zero_warmup_always_active(self):
        assert rewards.format_gate_schedule(0, 0)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValidationError, match="warmup length cannot be negative"):
            rewards.format_gate_schedule(0, -1)


class TestTieBreakReward:
    def test_neutral_z(self):
        state = rewards.AutoscalerState()
        value = rewards.mi_tiebreak_reward(0.0, 0.15, True, state)
        assert value == pytest.approx(0.075)

    def test_gate_failure_zeroes(self):
        state = rewards.AutoscalerState()
        assert rewards.mi_tiebreak_reward(10.0, 0.15, False, state) == 0.0

    def test_sigmoid_asymptote(self):
        state = rewards.AutoscalerState(beta=2.0)
        value = rewards.mi_tiebreak_reward(1e6, 0.15, True, state)
        assert value == pytest.approx(0.3)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-50, 50), st.floats(0.1, 10.0))
    def test_bounded_by_beta_weight(self, z, beta):
        state = rewards.AutoscalerState(beta=beta)
        value = rewards.mi_tiebreak_reward(z, 0.15, True, state)
        assert 0.0 <= value <= beta * 0.15 + 1e-12


def reference_mi_reward(z, channel_weight, gate_open, beta):
    """One completion's tie-breaker reward, gate * beta * weight * sigmoid(slope * z)."""
    if not gate_open or channel_weight == 0.0:
        return 0.0
    return beta * channel_weight / (1.0 + math.exp(-rewards.SIGMOID_SLOPE * float(z)))


class TestBatchedTieBreakReward:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_one_completion_reward(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(0, 3, 500)
        gate_open = rng.random(500) < 0.6
        state = rewards.AutoscalerState(beta=float(rng.uniform(0.5, 2.0)))
        got = rewards.mi_tiebreak_rewards(z, 0.15, gate_open, state)
        expected = [reference_mi_reward(v, 0.15, g, state.beta)
                    for v, g in zip(z, gate_open)]
        assert got.tolist() == expected
        assert [rewards.mi_tiebreak_reward(v, 0.15, bool(g), state)
                for v, g in zip(z, gate_open)] == expected

    def test_zero_weight_and_checks(self):
        state = rewards.AutoscalerState()
        assert rewards.mi_tiebreak_rewards([1.0, 2.0], 0.0, [True, True], state).tolist() \
            == [0.0, 0.0]
        with pytest.raises(ValidationError):
            rewards.mi_tiebreak_rewards([1.0], -0.1, [True], state)


class TestAutoscaler:
    def test_fixed_point(self):
        # Batch magnitudes at the EMAs keep them there, and so keep rho at
        # the target: beta does not move.
        state = rewards.AutoscalerState(ema_mi=rewards.AUTOSCALE_TARGET, ema_base=1.0, beta=1.0)
        new = rewards.autoscale_update(state, rewards.AUTOSCALE_TARGET, 1.0)
        assert new.ema_mi == pytest.approx(state.ema_mi)
        assert new.ema_base == pytest.approx(state.ema_base)
        assert new.beta == pytest.approx(1.0)

    def test_above_target_shrinks(self):
        state = rewards.AutoscalerState(ema_mi=0.5, ema_base=1.0)
        new = rewards.autoscale_update(state, 0.5, 1.0)
        assert new.beta < state.beta

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
        if rho < rewards.AUTOSCALE_TARGET:
            assert new.beta >= state.beta
        elif rho > rewards.AUTOSCALE_TARGET:
            assert new.beta <= state.beta

    @pytest.mark.parametrize("fields, message", [
        ({"beta": 0.0}, "beta must be positive"), ({"beta": -1.0}, "beta must be positive"),
        ({"ema_mi": -1e-3}, "EMA magnitudes cannot be negative"),
        ({"ema_base": -1.0}, "EMA magnitudes cannot be negative")])
    def test_invalid_state_rejected(self, fields, message):
        with pytest.raises(ValidationError, match=message):
            rewards.AutoscalerState(**fields)
