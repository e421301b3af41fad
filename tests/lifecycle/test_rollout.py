"""Rollout waves: staged schedules as pure arithmetic."""

import pytest

from repro.lifecycle.rollout import WAVES, RolloutWave, WaveStage, get_wave


class TestWaveStage:
    def test_rejects_negative_epoch(self):
        with pytest.raises(ValueError, match="epoch"):
            WaveStage(-1, 0.5, "ipv6-only")

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            WaveStage(1, 0.0, "ipv6-only")
        with pytest.raises(ValueError, match="fraction"):
            WaveStage(1, 1.5, "ipv6-only")

    def test_rejects_unknown_config(self):
        with pytest.raises(KeyError, match="unknown network config"):
            WaveStage(1, 0.5, "carrier-pigeon")


class TestConfigAt:
    def test_base_config_before_any_stage(self):
        wave = get_wave("flash-cut")
        assert wave.config_at(0, 0.0) == "dual-stack"
        assert wave.config_at(1, 0.99) == "dual-stack"

    def test_stage_covers_everyone_from_its_epoch(self):
        wave = get_wave("flash-cut")
        for position in (0.0, 0.5, 0.999):
            assert wave.config_at(2, position) == "ipv6-only"
            assert wave.config_at(7, position) == "ipv6-only"

    def test_staged_fractions_are_cumulative(self):
        wave = get_wave("staged-v6only")
        # position 0.3 is inside the 50% stage but outside the 25% stage
        assert wave.config_at(2, 0.3) == "dual-stack"
        assert wave.config_at(4, 0.3) == "ipv6-only"
        # position 0.1 transitions at the first stage and stays transitioned
        assert wave.config_at(2, 0.1) == "ipv6-only"
        assert wave.config_at(6, 0.1) == "ipv6-only"

    def test_widening_moves_superset_of_homes(self):
        """A home transitioned by an early stage is covered by every later one."""
        wave = get_wave("staged-v6only")
        positions = [i / 40 for i in range(40)]
        early = {p for p in positions if wave.config_at(2, p) == "ipv6-only"}
        late = {p for p in positions if wave.config_at(8, p) == "ipv6-only"}
        assert early <= late
        assert late == set(positions)

    def test_later_stages_win(self):
        wave = get_wave("v4-sunset")
        # the early half goes ipv4-only -> dual-stack -> ipv6-only
        assert wave.config_at(0, 0.2) == "ipv4-only"
        assert wave.config_at(1, 0.2) == "dual-stack"
        assert wave.config_at(5, 0.2) == "ipv6-only"
        # the late half gets dual-stack at 3 and v6-only at 7
        assert wave.config_at(4, 0.8) == "dual-stack"
        assert wave.config_at(6, 0.8) == "dual-stack"
        assert wave.config_at(7, 0.8) == "ipv6-only"


class TestTransitions:
    def test_control_wave_never_transitions(self):
        wave = get_wave("none")
        assert {wave.config_at(epoch, 0.5) for epoch in range(12)} == {"dual-stack"}

    def test_transition_epochs_match_config_changes(self):
        wave = get_wave("v4-sunset")
        early = [wave.config_at(epoch, 0.2) for epoch in range(10)]
        late = [wave.config_at(epoch, 0.8) for epoch in range(10)]
        # the early half changes config at epochs 1 and 5, the late half at 3 and 7
        assert early == ["ipv4-only"] + ["dual-stack"] * 4 + ["ipv6-only"] * 5
        assert late == ["ipv4-only"] * 3 + ["dual-stack"] * 4 + ["ipv6-only"] * 3

    def test_horizon_clips_transitions(self):
        # a 3-epoch horizon sees only the early half's first change
        wave = get_wave("v4-sunset")
        assert [wave.config_at(epoch, 0.2) for epoch in range(3)] == ["ipv4-only", "dual-stack", "dual-stack"]


class TestCatalog:
    def test_get_wave_unknown_name(self):
        with pytest.raises(KeyError, match="unknown rollout wave 'warp'"):
            get_wave("warp")

    def test_every_wave_resolves_and_is_frozen(self):
        for name, wave in WAVES.items():
            assert wave.name == name
            assert isinstance(wave, RolloutWave)
            with pytest.raises(Exception):
                wave.base_config = "x"

    def test_stages_sorted_canonically(self):
        wave = RolloutWave(
            "scratch",
            "dual-stack",
            (WaveStage(4, 1.0, "ipv6-only"), WaveStage(2, 0.5, "ipv6-only")),
        )
        assert [s.epoch for s in wave.stages] == [2, 4]
