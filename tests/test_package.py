"""The package's public surface, including what the benchmark reaches into,
and what a cold process imports."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ckmsched
from ckmsched.experiments import cached_scenario, place_users, trial_channels

from conftest import desk_config

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_exported_name_resolves_once():
    assert len(ckmsched.__all__) == len(set(ckmsched.__all__))
    missing = [name for name in ckmsched.__all__ if not hasattr(ckmsched, name)]
    assert missing == []


def test_every_benchmark_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, attr, _, _ in tracer.TARGETS:
        module = importlib.import_module(f"ckmsched.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{mod_name}.{attr}")
    assert missing == []


@pytest.mark.parametrize("placement", ["uniform", "clustered"])
def test_benchmark_gate_reads_the_serving_cell_of_each_row(placement):
    scenario = cached_scenario(desk_config(placement=placement))
    for seed in range(5):
        users = place_users(scenario, seed)
        gate = {u.id: u.cell for u in users}
        chans = trial_channels(scenario, users, 1)
        assert gate == dict(enumerate(chans.cell_of.tolist()))
        assert chans.cell_of.tolist() == scenario.grid_serving[chans.grid].tolist()


def cold_modules(code: str) -> str:
    """Last line printed by code run in a fresh interpreter that imports
    ckmsched from this checkout and conftest from the tests."""
    path = [str(Path(ckmsched.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_trials_do_not_import_numpy_ma():
    # numpy.ma costs a cold process 12-17 ms, loaded by the first
    # np.median or np.unique.
    if cold_modules("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("import numpy already loads numpy.ma")
    loaded = cold_modules(
        "import sys\n"
        "from conftest import desk_config\n"
        "from ckmsched.experiments import ALGORITHMS, run_trial\n"
        "for algorithm in ALGORITHMS:\n"
        "    run_trial(desk_config(), algorithm, 0)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert loaded == "False"


def test_inspect_ckm_does_not_import_numpy_ma(small_ckm, tmp_path):
    # np.percentile loads numpy.ma through np.unique; inspect-ckm prints
    # the same percentiles without it.
    if cold_modules("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("import numpy already loads numpy.ma")
    path = tmp_path / "desk.ckm"
    small_ckm.save(path)
    loaded = cold_modules(
        "import contextlib, io, sys\n"
        "from ckmsched.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['inspect-ckm', {str(path)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert loaded == "False"
