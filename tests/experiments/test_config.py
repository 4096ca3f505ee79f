"""ExperimentConfig: defaults, validation, scaling."""

import math

import pytest

from repro.experiments.config import ExperimentConfig, PROTOCOLS


def test_defaults_match_paper_setup():
    cfg = ExperimentConfig()
    assert cfg.width_m == cfg.height_m == 1000.0
    assert cfg.cell_side_m == 100.0
    assert cfg.n_hosts == 100
    assert cfg.initial_energy_j == 500.0
    assert cfg.aggregate_load_pps == 10.0
    assert cfg.packet_bytes == 512
    assert cfg.sim_time_s == 2000.0


def test_validate_rejects_unknown_protocol():
    cfg = ExperimentConfig(protocol="ospf")
    with pytest.raises(ValueError):
        cfg.validate()


@pytest.mark.parametrize(
    "override",
    [
        {"sim_time_s": math.inf},
        {"sim_time_s": math.nan},
        {"sample_interval_s": 0.0},
        {"flow_rate_pps": math.inf},
    ],
)
def test_validate_rejects_runs_that_never_end(override):
    # Each of these kept run_experiment dispatching forever (or, for
    # NaN, returned a meaningless run) before validate() caught it.
    with pytest.raises(ValueError):
        ExperimentConfig(**override).validate()


def test_all_registered_protocols_validate():
    for p in PROTOCOLS:
        ExperimentConfig(protocol=p).validate()


def test_endpoint_defaults_by_protocol():
    """§4: Model 1 (GAF) uses ten infinite-energy endpoints; Model 2
    (GRID/ECGRID) uses none."""
    assert ExperimentConfig(protocol="gaf").endpoints == 10
    assert ExperimentConfig(protocol="ecgrid").endpoints == 0
    assert ExperimentConfig(protocol="grid").endpoints == 0
    assert ExperimentConfig(protocol="gaf", n_endpoints=4).endpoints == 4


def test_scaled_preserves_density_and_load():
    cfg = ExperimentConfig()
    s = cfg.scaled(0.25)
    # Host density (hosts per area) preserved.
    density = cfg.n_hosts / (cfg.width_m * cfg.height_m)
    s_density = s.n_hosts / (s.width_m * s.height_m)
    assert s_density == pytest.approx(density, rel=0.05)
    # Per-host load approximately preserved (integer rounding).
    assert s.n_flows / s.n_hosts == pytest.approx(
        cfg.n_flows / cfg.n_hosts, rel=0.3
    )
    # Energy and horizon shrink together (lifetime knees stay at the
    # same relative position).
    assert s.initial_energy_j / cfg.initial_energy_j == pytest.approx(0.25)
    assert s.sim_time_s / cfg.sim_time_s == pytest.approx(0.25)


def test_scaled_identity():
    cfg = ExperimentConfig()
    assert cfg.scaled(1.0).n_hosts == cfg.n_hosts


def test_scaled_rejects_bad_factor():
    with pytest.raises(ValueError):
        ExperimentConfig().scaled(0.0)
    with pytest.raises(ValueError):
        ExperimentConfig().scaled(2.0)


def test_scaled_keeps_minimums():
    s = ExperimentConfig().scaled(0.05)
    assert s.n_hosts >= 8
    assert s.n_flows >= 2


def test_describe_mentions_protocol_and_seed():
    text = ExperimentConfig(protocol="grid", seed=9).describe()
    assert "grid" in text
    assert "seed=9" in text


# ----------------------------------------------------------------------
# Cache identity vs. code version
# ----------------------------------------------------------------------
def test_cache_key_stable_within_process():
    assert ExperimentConfig().cache_key() == ExperimentConfig().cache_key()


def test_cache_version_mentions_package_version():
    import repro
    from repro.experiments.config import cache_version

    assert cache_version().startswith(repro.__version__ + "+")


def test_cache_key_misses_after_version_bump(monkeypatch):
    """Results cached by an older build must not satisfy a newer one."""
    from repro.experiments import config as config_mod

    cfg = ExperimentConfig()
    old = cfg.cache_key()
    monkeypatch.setattr(config_mod, "_CACHE_VERSION", "9.9.9+0123456789abcdef")
    assert cfg.cache_key() != old
