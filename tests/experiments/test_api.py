"""The ``repro.api`` facade: exports, verbs, and the bare package root."""

import json
import warnings
from pathlib import Path

import pytest

import repro
import repro.api as api

TINY = dict(
    protocol="grid", n_hosts=8, width_m=300.0, height_m=300.0,
    n_flows=2, sim_time_s=20.0, initial_energy_j=50.0, seed=6,
)

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


# ----------------------------------------------------------------------
# Export surface
# ----------------------------------------------------------------------
def test_every_facade_export_resolves():
    for name in api.__all__:
        assert getattr(api, name) is not None, name


def test_package_root_reexports_facade_names():
    assert repro.ExperimentConfig is api.ExperimentConfig
    assert repro.SweepRunner is api.SweepRunner
    assert repro.load_result is api.load_result
    assert repro.api is api
    for name in ("api", "FigureData", "SweepRun", "load_result"):
        assert name in repro.__all__


def test_clean_import_emits_no_deprecation_warnings():
    # importing the facade (and the package root) must not warn
    import importlib
    import subprocess
    import sys

    code = (
        "import warnings; warnings.simplefilter('error', DeprecationWarning); "
        "import repro, repro.api, repro.serve.protocol"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True,
        cwd=str(SRC.parents[1]),
        env={"PYTHONPATH": str(SRC.parent), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr


def test_import_and_run_leave_numpy_unloaded():
    # the kernel is pure Python and declares no runtime dependency, so
    # neither the facade import nor a simulation may pull numpy in
    import subprocess
    import sys

    code = (
        "import sys, repro.api as api; "
        "assert 'numpy' not in sys.modules, 'import loaded numpy'; "
        f"api.run_experiment(api.ExperimentConfig(**{TINY!r})); "
        "assert 'numpy' not in sys.modules, 'run loaded numpy'"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True,
        cwd=str(SRC.parents[1]),
        env={"PYTHONPATH": str(SRC.parent), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
# Verbs
# ----------------------------------------------------------------------
def test_run_accepts_overrides_and_cache(tmp_path):
    cache = api.ResultCache(str(tmp_path))
    first = api.run(api.ExperimentConfig(**TINY), cache=cache)
    assert first.sent > 0
    again = api.run(api.ExperimentConfig(**TINY), cache=cache)
    assert cache.hits == 1
    assert again.delivered == first.delivered
    # friendly alias overrides reach the config
    result = api.run(hosts=6, time=10.0, flows=1, seed=2, protocol="grid")
    assert result.config.n_hosts == 6
    assert result.config.sim_time_s == 10.0


def test_sweep_verb_builds_and_releases_runner():
    run = api.sweep(api.SweepSpec(
        name="api-sweep",
        base=api.ExperimentConfig(**TINY),
        axes={"protocol": ["grid", "ecgrid"]},
    ))
    assert run.executed == 2
    assert {o.point.axes["protocol"] for o in run.outcomes} == {
        "grid", "ecgrid",
    }


def test_load_result_from_dict_json_and_path(tmp_path):
    result = api.run(api.ExperimentConfig(**TINY))
    record = api.result_to_dict(result)

    assert api.load_result(record).delivered == result.delivered
    assert api.load_result(json.dumps(record)).delivered == result.delivered

    path = tmp_path / "result.json"
    path.write_text(api.result_to_json(result))
    assert api.load_result(path).delivered == result.delivered
    assert api.load_result(str(path)).delivered == result.delivered

    stale = dict(record, schema=1)
    with pytest.raises(ValueError):
        api.load_result(stale)


# ----------------------------------------------------------------------
# The repro.experiments package root exports nothing
# ----------------------------------------------------------------------
def test_submodule_imports_stay_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro.experiments import figures  # noqa: F401
        from repro.experiments.sweep import SweepRunner  # noqa: F401


def test_unknown_attribute_still_raises():
    import repro.experiments as experiments

    for name in ("definitely_not_a_thing", "SweepRunner"):
        with pytest.raises(AttributeError):
            getattr(experiments, name)


# ----------------------------------------------------------------------
# Facade enforcement: the CLI and the server import only through it
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "path",
    [SRC / "cli.py"]
    + sorted((SRC / "serve").glob("*.py"))
    + sorted(EXAMPLES.glob("*.py")),
    ids=lambda p: p.name,
)
def test_no_deep_experiment_imports(path):
    offending = [
        line.strip()
        for line in path.read_text().splitlines()
        if ("import repro.experiments" in line
            or "from repro.experiments" in line)
    ]
    assert not offending, (
        f"{path} reaches past the repro.api facade: {offending}"
    )
