"""The config key table (dataio.KEYS): every key a command reads moves an
output or is documented as inert, every key it does not read is ignored
however it is written, and the README's configuration reference prints the
same table."""

import os
import re
import shutil

import pytest

from divcast import tune
from divcast.cli import main
from divcast.dataio import INERT, KEYS, METHODS, load_observations, load_panel, save_observations, save_panel
from divcast.core import ObservationSeries, PredictorPanel

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "pseudo_empirical")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
RUNNERS = (*METHODS, "gridsearch")

# Each key's base value (a key not listed is not written), and a value that
# moves an output when the key is read; RUNNER_METHOD stands for the run's
# method.
BASE = {
    "method": "RUNNER_METHOD", "horizons": "1", "n_particles": "50", "seed": "1", "n_pred_draws": "10",
    "alpha0": "0, 5, 1", "window": "8", "stage1": "-2, 2, 2", "stage2_step": "1", "eval_draws": "5",
}
CHANGED = {
    "horizons": "2", "n_particles": "60", "seed": "2", "n_pred_draws": "12", "eval_start": "5",
    "eval_end": "30", "ess_threshold": "0.9", "baseline": "mdl_b", "emit_draws": "false", "sigma_obs": "0.5",
    "sigma_x": "0.5", "sigma_alpha": "0.5", "alpha0": "0, 3, 1", "x0_spread": "1", "fallback_sigma": "0.7",
    "window": "12", "stage1": "-2, 2, 4", "stage2_step": "none", "stage2_bounds": "-1, 1, -1, 1",
    "stage2_margin": "0", "eval_draws": "7", "grid_particles": "30", "variable": "growth",
}
# Values that exit 2 when the key is read: a value that does not parse, and
# for some keys a parsed value that the checks reject.
UNREAD = {
    "method": ("nope",), "baseline": ("nope", "bma_roll"), "emit_draws": ("maybe",), "variable": ("nope",),
    "n_pred_draws": ("abc", "1"), "fallback_sigma": ("abc", "-1"), "alpha0": ("abc", "nan, 1, 2"),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The first 40 steps of the bundled fixture, with a zero-spread panel
    cell (model mdl_a's horizon-1 draws of infl at t = 10), the only case
    in which fallback_sigma acts; and a copy of each file with one value
    moved."""
    root = tmp_path_factory.mktemp("keys")
    obs = load_observations(os.path.join(FIXTURE, "observations.csv"))
    panel = load_panel(os.path.join(FIXTURE, "panel.csv"))
    values, draws = obs.values[:40].copy(), panel.draws[:40].copy()
    draws[9, 0, 0, 0] = draws[9, 0, 0, 0].mean()
    paths = {}
    for tag, shift in (("", 0.0), ("2", 0.25)):
        moved_values, moved_draws = values.copy(), draws.copy()
        moved_values[20, 0] += shift
        moved_draws[20, 1, 0, 0, 0] += shift
        paths["observations" + tag] = str(root / f"obs{tag}.csv")
        paths["panel" + tag] = str(root / f"panel{tag}.csv")
        save_observations(ObservationSeries(moved_values, obs.variable_names), paths["observations" + tag])
        save_panel(PredictorPanel(moved_draws, panel.model_names, panel.variable_names), paths["panel" + tag])
    paths["out_dir"], paths["out_dir2"] = str(root / "out"), str(root / "out2")
    return paths


def config_text(runner: str, settings: dict) -> str:
    """A config of every key in settings, each in its KEYS section."""
    method = "dtvw" if runner == "gridsearch" else runner
    sections: dict = {}
    for section, key, *_ in KEYS:
        if settings.get(key) is not None:
            value = settings[key].replace("RUNNER_METHOD", method)
            sections.setdefault(section or method, []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n\n" for name, lines in sections.items())


def outcome(tmp_path, inputs, runner: str, settings: dict, capsys, extra: str = "") -> tuple:
    """The exit code, stdout and output files' bytes of the runner on a
    config of settings, and extra text."""
    for out in (inputs["out_dir"], inputs["out_dir2"]):
        shutil.rmtree(out, ignore_errors=True)
    path = tmp_path / "keys.ini"
    path.write_text(config_text(runner, settings) + extra)
    capsys.readouterr()
    code = main(["gridsearch" if runner == "gridsearch" else "run", "--config", str(path)])
    out = settings["out_dir"]
    files = {}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return code, capsys.readouterr().out, files


@pytest.fixture(scope="module")
def base_outcomes() -> dict:
    """Each runner's outcome on the base settings, once it is first asked."""
    return {}


def base_settings(inputs) -> dict:
    return {**BASE, "observations": inputs["observations"], "panel": inputs["panel"], "out_dir": inputs["out_dir"]}


@pytest.mark.parametrize("key", [key for _, key, *_ in KEYS])
@pytest.mark.parametrize("runner", RUNNERS)
def test_a_read_key_moves_an_output_and_an_unread_key_is_ignored(
    tmp_path, monkeypatch, capsys, inputs, base_outcomes, runner, key
):
    # A key the table says the runner reads moves an output byte, or, when
    # INERT lists every value of it, moves none; a key it does not read,
    # given a value that would exit 2 if read, moves nothing, exit code
    # included.  One process: gridsearch forks no worker.
    monkeypatch.setattr(tune, "_cpus", lambda: 1)
    users = next(users for _, name, _, _, users in KEYS if name == key)
    if runner not in base_outcomes:
        base_outcomes[runner] = outcome(tmp_path, inputs, runner, base_settings(inputs), capsys)
    base = base_outcomes[runner]
    assert base[0] == 0
    if runner in users:
        changed = inputs.get(key + "2") or CHANGED.get(key)
        if key == "method":
            changed = "bma" if runner == "equal" else "equal"
        got = outcome(tmp_path, inputs, runner, {**base_settings(inputs), key: changed}, capsys)
        assert got[0] == 0
        if (key, runner) in INERT and INERT[key, runner] is None:
            assert got == base
        else:
            assert got != base
    else:
        for bad in UNREAD.get(key, ("abc",)):
            assert outcome(tmp_path, inputs, runner, {**base_settings(inputs), key: bad}, capsys) == base


@pytest.mark.parametrize("key, method", [pair for pair, positions in INERT.items() if positions is not None])
def test_inert_values_are_only_repeated_in_alphas(tmp_path, capsys, inputs, key, method):
    # moving only the listed values of the key changes no output but the
    # alphas.csv rows that repeat them
    base = outcome(tmp_path, inputs, method, base_settings(inputs), capsys)
    values = [float(v) for v in BASE[key].split(",")]
    for i in INERT[key, method]:
        values[i] += 3.0
    got = outcome(tmp_path, inputs, method, {**base_settings(inputs), key: ", ".join(map(repr, values))}, capsys)
    assert got[:2] == base[:2]
    assert {name: b for name, b in got[2].items() if name != "alphas.csv"} == {
        name: b for name, b in base[2].items() if name != "alphas.csv"
    }
    moved = {f"alpha{i}" for i in INERT[key, method]}
    rows = [line.split(",") for line in got[2]["alphas.csv"].decode().splitlines()]
    base_rows = [line.split(",") for line in base[2]["alphas.csv"].decode().splitlines()]
    assert [r for r in rows if r[1] not in moved] == [r for r in base_rows if r[1] not in moved]
    assert all(r != b for r, b in zip(rows, base_rows) if r[1] in moved)


def test_a_filter_baseline_reads_the_main_methods_section(tmp_path, capsys, inputs):
    # a tvw baseline of a dtvw run starts from [dtvw] x0_spread, and its own
    # section is never read
    settings = {**base_settings(inputs), "method": "dtvw", "baseline": "tvw"}
    base = outcome(tmp_path, inputs, "dtvw", settings, capsys)
    assert outcome(tmp_path, inputs, "dtvw", settings, capsys, extra="[tvw]\nx0_spread = 2\n") == base
    spread = outcome(tmp_path, inputs, "dtvw", {**settings, "x0_spread": "2"}, capsys)

    def tvw_rows(files):
        return [line for line in files["scores.csv"].splitlines() if line.startswith(b"tvw,")]

    assert spread[0] == 0 and tvw_rows(spread[2]) != tvw_rows(base[2])


def readme_reference() -> tuple[dict, dict]:
    """The README's key table, {key: (section, readers)}, and its inert
    list, {(key, method): value positions or None}."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    reference = text[text.index("## Configuration reference"):]
    reference = reference[: reference.index("\n## ", 1)]
    table = {}
    for line in reference.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 4:
            section = cells[1].strip("`[]")
            table[cells[0].strip("`")] = (None if section == "<method>" else section, set(re.findall(r"`(\w+)`", cells[3])))
    inert = {}
    for key, method, which in re.findall(r"^- `(\w+)` under `(\w+)`, (every value|values? [\d, and]+):", reference, re.M):
        inert[key, method] = None if which == "every value" else tuple(int(i) - 1 for i in re.findall(r"\d+", which))
    return table, inert


def test_readme_prints_the_key_table_and_the_inert_list():
    table, inert = readme_reference()
    assert table == {key: (section, set(users)) for section, key, _, _, users in KEYS}
    assert inert == INERT
