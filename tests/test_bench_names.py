"""The benchmark's tracer patches package names by path; every name it
wraps must still exist, or a traced benchmark run stops with exit 70."""

import importlib.util
import os

import numpy as np
import pytest

from divcast import cli
from divcast.core import NoiseConfig, default_sigma_obs
from divcast.dataio import save_panel
from divcast.dgp import SimSpec, generate
from divcast.filtering import ParticleFilter
from divcast.latent import DTVW
from divcast.rng import substream

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "target", [target for target, _, _ in tracer.TARGETS] + ["divcast.experiment:make_crps_runner"]
)
def test_traced_name_resolves(target):
    owner, attr = tracer._resolve(target)
    assert callable(getattr(owner, attr))


def test_notes_read_real_calls(tmp_path, monkeypatch):
    # The notes read the wrapped calls' arguments and results: the filter
    # step's state and the loaded panel must still have what they read.
    recorder = tracer.Recorder()
    for target, name, note in tracer.TARGETS:
        if target in ("divcast.filtering:ParticleFilter.step", "divcast.cli:load_panel"):
            owner, attr = tracer._resolve(target)
            monkeypatch.setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), note))
    obs, panel = generate(SimSpec(design="complete_ar", T=6, seed=1, n_pred_draws=3))
    save_panel(panel, str(tmp_path / "panel.csv"), obs.variable_names)
    cli.load_panel(str(tmp_path / "panel.csv"))
    pf = ParticleFilter(panel, DTVW, NoiseConfig(default_sigma_obs(obs, panel)), n_pred_draws=4)
    pf.run_block(obs, 7, np.zeros((2, 3)), substream(0, "filter"))
    notes = [(name, note) for name, _, _, _, note in recorder.spans]
    assert notes == [("dataio.load_panel", {"rows": panel.draws.size})] + [("filtering.step", {"n": 14})] * 6
