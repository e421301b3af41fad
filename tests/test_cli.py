"""Smoke tests for the command-line interface."""

import pytest

from repro import cli
from repro.cli import main


def test_devices_command(capsys):
    assert main(["devices"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 93
    assert "Samsung Fridge" in out and "Speaker" in out


def test_unknown_table_rejected():
    with pytest.raises(SystemExit):
        main(["tables", "11"])  # Table 11 is firmware versions; not generated


def test_help_lists_commands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for command in ("study", "tables", "pcap", "devices", "fleet"):
        assert command in out


def test_fleet_command(capsys):
    assert main(["fleet", "--homes", "3", "--jobs", "1", "--seed", "7", "--scenario", "flip50"]) == 0
    captured = capsys.readouterr()
    assert "Fleet summary: 3/3 homes simulated" in captured.out
    assert "E[bricked/home]" in captured.out


def test_fleet_unknown_scenario(capsys):
    assert main(["fleet", "--homes", "1", "--scenario", "bogus"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_exposure_command(capsys):
    assert main(["exposure", "--homes", "1", "--seed", "3", "--jobs", "1", "--firewall", "stateful"]) == 0
    captured = capsys.readouterr()
    assert "WAN exposure: dual-stack" in captured.out
    assert "stateful" in captured.out
    assert "Homes w/ reach" in captured.out


def test_exposure_rejects_ipv4_only():
    with pytest.raises(SystemExit):
        main(["exposure", "--homes", "1", "--config", "ipv4-only"])


def test_faults_command(capsys):
    assert main(["faults", "--homes", "1", "--seed", "3", "--jobs", "1",
                 "--configs", "dual-stack", "--faults", "dns-blackout"]) == 0
    captured = capsys.readouterr()
    assert "Fault degradation:" in captured.out
    assert "dual-stack/dns-blackout" in captured.out
    assert "TTR med" in captured.out


def test_faults_unknown_preset(capsys):
    assert main(["faults", "--homes", "1", "--faults", "meteor-strike"]) == 2
    assert "unknown fault preset" in capsys.readouterr().err


# ---- exit-code regressions: --homes 0 and worker failures must not exit 0


@pytest.mark.parametrize("command", ["fleet", "exposure", "faults"])
def test_homes_zero_exits_nonzero(command, capsys):
    assert main([command, "--homes", "0"]) == 2
    captured = capsys.readouterr()
    assert "nothing to run" in captured.err
    assert captured.out == ""


def test_fleet_worker_failure_exits_nonzero(capsys, monkeypatch):
    import repro.fleet.runner as runner

    def exploding_study(*args, **kwargs):
        raise RuntimeError("boom in worker")

    # run_fleet_stream holds simulate_home itself, so fail the study call
    # it makes instead.
    monkeypatch.setattr(runner, "run_home_study", exploding_study)
    assert main(["fleet", "--homes", "2", "--jobs", "1", "--seed", "7"]) == 1
    captured = capsys.readouterr()
    assert "home run(s) failed" in captured.err
    assert "boom in worker" in captured.err
    # the (empty) summary still rendered before the failure exit
    assert "Fleet summary" in captured.out


# ---- argument validation: negative seeds and duplicate names exit 2


@pytest.mark.parametrize("command", ["fleet", "exposure", "faults", "adversary"])
def test_negative_seed_rejected(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--homes", "1", "--seed", "-1"])
    assert excinfo.value.code == 2
    assert "must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "what"),
    [
        (["exposure", "--homes", "1", "--firewall", "open", "open"], "firewall mode(s)"),
        (["adversary", "--homes", "1", "--firewall", "stateful", "stateful"], "firewall mode(s)"),
        (["faults", "--homes", "1", "--configs", "dual-stack", "dual-stack"], "config(s)"),
        (["faults", "--homes", "1", "--faults", "dns-blackout", "dns-blackout"], "fault preset(s)"),
    ],
)
def test_duplicate_names_rejected(argv, what, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "duplicate" in err and what.split("(")[0] in err


def test_adversary_command(capsys):
    assert main(["adversary", "--homes", "2", "--seed", "7", "--jobs", "1",
                 "--firewall", "open", "--horizon", "600", "--strategy", "eui64-sweep"]) == 0
    out = capsys.readouterr().out
    assert "Worm outbreak (eui64-sweep" in out
    assert "Entry surface by address kind" in out


def test_adversary_unknown_scenario(capsys):
    assert main(["adversary", "--homes", "1", "--scenario", "bogus"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_adversary_infinite_horizon_exits_before_any_home(capsys):
    assert main(["adversary", "--homes", "1", "--horizon", "inf"]) == 2
    err = capsys.readouterr().err
    assert "horizon must be finite" in err
    assert "attacking" not in err  # the run banner never printed


def test_faults_worker_failure_exits_nonzero(capsys, monkeypatch):
    import repro.faults.population as population

    def exploding_worker(spec):
        raise RuntimeError("fault worker crashed")

    monkeypatch.setattr(population, "run_home_faults", exploding_worker)
    assert main(["faults", "--homes", "1", "--jobs", "1",
                 "--configs", "dual-stack", "--faults", "none"]) == 1
    captured = capsys.readouterr()
    assert "home run(s) failed" in captured.err
    assert "fault worker crashed" in captured.err


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (["faults", "--list-presets"], "dns-blackout"),
        (["lifecycle", "--list-waves"], "staged-v6only"),
    ],
)
def test_list_flags_print_one_name_per_line(argv, expected, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    names = out.splitlines()
    assert expected in names
    assert "none" in names
    assert names == sorted(names)
    # one bare name per line: no spaces, no prose, nothing else
    assert all(name and " " not in name for name in names)


def test_lifecycle_command(capsys):
    assert main(["lifecycle", "--homes", "2", "--epochs", "3", "--seed", "5",
                 "--jobs", "1", "--wave", "flash-cut"]) == 0
    captured = capsys.readouterr()
    assert "Lifecycle (flash-cut, 2 homes x 3 epochs): 6/6 epoch-studies" in captured.out
    assert "Address surface drift" in captured.out
    assert "time to transition" in captured.out


def test_lifecycle_unknown_wave(capsys):
    assert main(["lifecycle", "--homes", "1", "--wave", "warp"]) == 2
    assert "unknown rollout wave" in capsys.readouterr().err


def test_lifecycle_unknown_fault(capsys):
    assert main(["lifecycle", "--homes", "1", "--fault", "solar-flare"]) == 2
    assert "unknown fault preset" in capsys.readouterr().err


def test_lifecycle_no_homes(capsys):
    assert main(["lifecycle", "--homes", "0"]) == 2
    assert "nothing to run" in capsys.readouterr().err


def test_lifecycle_rejects_negative_seed():
    with pytest.raises(SystemExit):
        main(["lifecycle", "--homes", "1", "--seed", "-1"])


def test_lifecycle_worker_failure_exits_nonzero(capsys, monkeypatch):
    import repro.lifecycle.population as population

    def exploding_worker(spec):
        raise RuntimeError("epoch worker crashed")

    monkeypatch.setattr(population, "run_home_epoch", exploding_worker)
    assert main(["lifecycle", "--homes", "1", "--epochs", "1", "--jobs", "1"]) == 1
    captured = capsys.readouterr()
    assert "home run(s) failed" in captured.err
    assert "epoch worker crashed" in captured.err


FIDELITY_COMMANDS = ("study", "tables", "fleet", "exposure", "faults", "lifecycle", "adversary")


@pytest.mark.parametrize("command", FIDELITY_COMMANDS)
def test_fidelity_rejects_unknown_mode(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--fidelity", "frame"])
    assert excinfo.value.code == 2
    assert "--fidelity" in capsys.readouterr().err


def test_pcap_has_no_fidelity_option(tmp_path, capsys, monkeypatch):
    """A pcap cannot hold flow records, so ``pcap`` always runs packet
    fidelity and refuses the option before any study runs."""
    monkeypatch.setattr(cli, "_run_study", lambda *args, **kwargs: pytest.fail("a study ran"))
    with pytest.raises(SystemExit) as excinfo:
        main(["pcap", str(tmp_path), "--fidelity", "flow"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_fleet_flow_fidelity_runs(capsys):
    assert main(["fleet", "--homes", "1", "--jobs", "1", "--seed", "7", "--fidelity", "flow"]) == 0
    assert "Fleet summary: 1/1 homes simulated" in capsys.readouterr().out


def test_fleet_fidelity_output_identical(capsys):
    args = ["fleet", "--homes", "2", "--jobs", "1", "--seed", "9", "--scenario", "flip50"]
    assert main(args) == 0
    packet_out = capsys.readouterr().out
    assert main(args + ["--fidelity", "flow"]) == 0
    assert capsys.readouterr().out == packet_out


def test_fleet_shards_render_identical_to_jobs(capsys):
    base = ["fleet", "--homes", "3", "--seed", "7", "--fidelity", "flow", "--scenario", "flip50"]
    assert main(base + ["--jobs", "1"]) == 0
    single = capsys.readouterr().out
    assert main(base + ["--shards", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == single
    assert "shards=2" in captured.err


def test_fleet_journal_resume_renders_identical(capsys, tmp_path):
    journal = str(tmp_path / "journal")
    base = ["fleet", "--homes", "3", "--seed", "7", "--fidelity", "flow",
            "--shards", "2", "--journal", journal, "--checkpoint-every", "1"]
    assert main(base) == 0
    first = capsys.readouterr().out
    assert main(base) == 0  # everything restored from the journal
    assert capsys.readouterr().out == first


def test_fleet_journal_mismatch_exits_nonzero(capsys, tmp_path):
    journal = str(tmp_path / "journal")
    base = ["fleet", "--homes", "2", "--fidelity", "flow", "--shards", "1", "--journal", journal]
    assert main(base + ["--seed", "7"]) == 0
    capsys.readouterr()
    assert main(base + ["--seed", "8"]) == 2
    assert "different run" in capsys.readouterr().err


POPULATION_COMMANDS = ("fleet", "exposure", "faults", "lifecycle", "adversary")


@pytest.mark.parametrize("command", POPULATION_COMMANDS)
def test_shards_zero_homes_exits_nonzero(command, capsys):
    assert main([command, "--homes", "0", "--shards", "2"]) == 2
    assert "nothing to run" in capsys.readouterr().err


def test_faults_stream_worker_failure_exits_nonzero(capsys, monkeypatch):
    import repro.faults.population as population

    def exploding_worker(spec):
        raise RuntimeError("stream worker crashed")

    monkeypatch.setattr(population, "run_home_faults", exploding_worker)
    assert main(["faults", "--homes", "1", "--shards", "1",
                 "--configs", "ipv6-only", "--faults", "dns-blackout"]) == 1
    captured = capsys.readouterr()
    assert "home run(s) failed" in captured.err
    assert "stream worker crashed" in captured.err


@pytest.mark.parametrize("command", POPULATION_COMMANDS)
def test_timeout_must_be_finite_and_positive(command, capsys):
    """A zero, negative or non-finite budget would silently arm no deadline."""
    for value in ("0", "-1", "nan", "inf"):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--homes", "1", "--timeout", value])
        assert excinfo.value.code == 2
        assert "--timeout" in capsys.readouterr().err


def test_jobs_is_an_alias_of_shards(capsys):
    base = ["fleet", "--homes", "3", "--seed", "7", "--fidelity", "flow", "--scenario", "flip50"]
    assert main(base + ["--shards", "2"]) == 0
    sharded = capsys.readouterr()
    assert main(base + ["--jobs", "2"]) == 0
    jobs = capsys.readouterr()
    assert jobs.out == sharded.out
    assert "shards=2" in jobs.err


def test_literal_mirrors_equal_their_module_constants():
    """The CLI keeps these literal to import nothing heavy at parse time."""
    from repro import cli
    from repro.faults.population import DEFAULT_CONFIGS, DEFAULT_FAULTS
    from repro.stack.config import ALL_CONFIGS, FIDELITY_MODES
    from repro.stack.firewall import FIREWALL_MODES

    assert cli._DEFAULT_FAULT_CONFIGS == DEFAULT_CONFIGS
    assert cli._DEFAULT_FAULT_NAMES == DEFAULT_FAULTS
    assert cli._FIDELITY_MODES == FIDELITY_MODES
    assert cli._FIREWALL_MODES == FIREWALL_MODES
    assert cli._IPV6_CONFIGS == tuple(config.name for config in ALL_CONFIGS if config.ipv6)
