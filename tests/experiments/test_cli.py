"""CLI entry point."""

import pytest

from repro.cli import main


def test_run_subcommand(capsys):
    rc = main([
        "run", "--protocol", "grid", "--hosts", "8", "--time", "20",
        "--area", "320", "--flows", "2", "--energy", "40", "--seed", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delivery" in out


def test_fig4_subcommand(capsys):
    rc = main(["fig4", "--scale", "0.08", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fig4" in out
    assert "ecgrid" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_rejects_unknown_protocol():
    with pytest.raises(SystemExit):
        main(["run", "--protocol", "bogus"])


@pytest.mark.parametrize("argv", [
    ["fig4", "--workers", "-1"],
    ["serve", "--sweep-workers", "-1"],
], ids=["workers", "sweep-workers"])
def test_bad_input_is_a_usage_error(argv, capsys, monkeypatch):
    # argparse's exit 2 with the subcommand's usage, before anything
    # runs -- not a traceback from deep in the sweep or figure layer,
    # and not a server that fails its first sweep job
    import repro.serve

    def must_not_start(config):
        raise AssertionError("the server started")

    monkeypatch.setattr(repro.serve, "serve", must_not_start, raising=False)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: ecgrid {argv[0]}")
    assert argv[1] in err


def test_gateway_tenure_pools_and_caches(tmp_path, capsys):
    # The panel runs through the sweep engine: its points go to the
    # pool and the result cache, so a rerun simulates nothing.
    argv = ["gateway-tenure", "--scale", "0.06", "--workers", "2",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "sweep: 3 point(s) simulated, 0 cached (workers=2)" in out
    assert "ecgrid:tenure_s" in out
    assert main(argv) == 0
    assert "sweep: 0 point(s) simulated, 3 cached" in capsys.readouterr().out


def test_watch_subcommand(capsys):
    rc = main(["watch", "--hosts", "8", "--area", "320", "--time", "20",
               "--every", "10", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "alive=" in out
    assert "delivery" in out


def test_fig_with_seeds_flag(capsys):
    rc = main(["fig4", "--scale", "0.08", "--seed", "3", "--seeds", "2"])
    assert rc == 0
    assert "mean of 2 seeds" in capsys.readouterr().out


def test_run_with_faults_plan(tmp_path, capsys):
    """A JSON fault plan round-trips through the CLI: the run reports
    injected faults and recovery scalars in its summary."""
    from repro.faults.plan import standard_fault_plan

    plan = standard_fault_plan(
        0.5, sim_time_s=30.0, width_m=320.0, height_m=320.0,
        n_hosts=8, initial_energy_j=40.0,
    )
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json())
    rc = main([
        "run", "--protocol", "ecgrid", "--hosts", "8", "--time", "30",
        "--area", "320", "--flows", "2", "--energy", "40", "--seed", "3",
        "--faults", str(path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delivery" in out
    assert "faults" in out and "recovery" in out


def test_run_rejects_malformed_faults_file(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text('{"events": [{"kind": "solar_flare"}]}')
    with pytest.raises(ValueError, match="unknown fault kind"):
        main(["run", "--hosts", "8", "--time", "10", "--area", "320",
              "--faults", str(path)])
