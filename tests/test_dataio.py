

import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divcast import dataio
from divcast.core import ConfigError, DataFormatError, ObservationSeries, PredictorPanel
from divcast.dataio import (
    load_config,
    load_observations,
    load_panel,
    save_observations,
    save_panel,
    write_long,
)
from divcast.dgp import SimSpec, generate
from oracles import long_tuple_rows


class TestObservationsIO:
    def test_single_variable(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t,variable,value\n1,y,0.5\n2,y,0.25\n3,y,-1.0\n")
        obs = load_observations(str(path))
        assert obs.n_steps == 3 and obs.n_vars == 1
        np.testing.assert_array_equal(obs.values[:, 0], [0.5, 0.25, -1.0])

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # spreadsheet programs save "UTF-8 with BOM"; the mark is not a
        # character of the first column's name
        path = tmp_path / "obs.csv"
        path.write_text("\ufefft,variable,value\n1,y,0.5\n2,y,0.25\n", encoding="utf-8")
        obs = load_observations(str(path))
        np.testing.assert_array_equal(obs.values[:, 0], [0.5, 0.25])
        assert obs.variable_names == ("y",)
        path.write_text("\ufefft,variable,value\n1,y,0.5\n2,y,oops\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"obs.csv:3: non-numeric value 'oops'"):
            load_observations(str(path))

    def test_interleaved_variables_order_from_first_occurrence(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "t,variable,value\n1,b,1.0\n1,a,2.0\n2,b,3.0\n2,a,4.0\n"
        )
        obs = load_observations(str(path))
        assert obs.variable_names == ("b", "a")
        np.testing.assert_array_equal(obs.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t,variable,value\n1,y,0.5\n1,y,0.6\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            load_observations(str(path))

    def test_gap_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t,variable,value\n1,y,0.5\n3,y,0.6\n")
        with pytest.raises(DataFormatError, match="contiguous"):
            load_observations(str(path))

    def test_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t,variable,value\n1,a,0.5\n1,b,1.0\n2,a,0.6\n")
        with pytest.raises(DataFormatError, match="missing"):
            load_observations(str(path))

    def test_non_numeric_names_row(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t,variable,value\n1,y,0.5\n2,y,oops\n")
        with pytest.raises(DataFormatError, match="obs.csv:3"):
            load_observations(str(path))

    def test_error_names_file_line_past_blank_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t,variable,value\n1,y,0.5\n\n2,y,oops\n")
        with pytest.raises(DataFormatError, match="obs.csv:4: non-numeric"):
            load_observations(str(path))

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t,variable,value\n1,y,0.5\n2,y\n")
        with pytest.raises(DataFormatError, match="obs.csv:3: expected 3 fields"):
            load_observations(str(path))

    def test_absurd_index_rejected_before_allocating(self, tmp_path):
        # a dense array up to t = 10**12 would need 7.28 TiB
        path = tmp_path / "obs.csv"
        path.write_text("t,variable,value\n1,y,0.5\n1000000000000,y,0.6\n")
        with pytest.raises(DataFormatError, match="obs.csv:3: t 1000000000000 is above twice the row count 2"):
            load_observations(str(path))

    def test_overflowing_index_names_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t,variable,value\n1,y,0.5\n" + "9" * 30 + ",y,0.6\n")
        with pytest.raises(DataFormatError, match="obs.csv:3: out-of-range t '9{30}'"):
            load_observations(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,var,val\n1,y,0.5\n")
        with pytest.raises(DataFormatError, match="header"):
            load_observations(str(path))

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        obs = ObservationSeries(rng.normal(size=(7, 2)) * 1e-3, ("u", "v"))
        path = str(tmp_path / "obs.csv")
        save_observations(obs, path)
        back = load_observations(path)
        np.testing.assert_array_equal(back.values, obs.values)
        assert back.variable_names == obs.variable_names


FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "pseudo_empirical")
ONE_CHUNK = 1 << 30

# Observations with blank lines between records; {bad} is the fifth record,
# on file line 8.
BLANK_LINED_OBS = "t,variable,value\n1,a,0.1\n\n1,b,0.2\n2,a,0.3\n\n\n{bad}\n3,a,0.5\n3,b,0.6\n"


class TestChunkBoundaries:
    """read_table parses in chunks of _CHUNK_ROWS rows; where the chunks
    fall must not change the arrays it returns or the lines its errors
    name."""

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @pytest.mark.parametrize(
        "name,columns", [("observations.csv", dataio.OBS_COLUMNS), ("panel.csv", dataio.PANEL_COLUMNS)]
    )
    def test_fixture_parses_as_one_chunk(self, monkeypatch, chunk, name, columns):
        path = os.path.join(FIXTURE, name)
        monkeypatch.setattr(dataio, "_CHUNK_ROWS", ONE_CHUNK)
        levels, values, present = dataio.read_table(path, columns)
        monkeypatch.setattr(dataio, "_CHUNK_ROWS", chunk)
        got_levels, got_values, got_present = dataio.read_table(path, columns)
        assert [list(level) for level in got_levels] == [list(level) for level in levels]
        assert got_values.tobytes() == values.tobytes() and got_values.shape == values.shape
        np.testing.assert_array_equal(got_present, present)

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @pytest.mark.parametrize(
        "bad,message",
        [
            ("2,b", "expected 3 fields"),
            ("2,b,abc", "non-numeric value 'abc'"),
            ("2,b,inf", "non-finite value 'inf'"),
            ("1,b,0.4", "duplicate entry for t=1, variable='b'"),
            ("0,b,0.4", "indices must be >= 1"),
        ],
        ids=["field_count", "non_numeric", "non_finite", "duplicate", "index_below_one"],
    )
    def test_error_names_the_same_line(self, tmp_path, monkeypatch, chunk, bad, message):
        path = tmp_path / "obs.csv"
        path.write_text(BLANK_LINED_OBS.format(bad=bad))
        errors = []
        for rows in (ONE_CHUNK, chunk):
            monkeypatch.setattr(dataio, "_CHUNK_ROWS", rows)
            with pytest.raises(DataFormatError) as err:
                dataio.read_table(str(path), dataio.OBS_COLUMNS)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert errors[1] == f"{path}:8: {message}"


class TestPanelIO:
    def test_minimal_accepted(self, tmp_path):
        path = tmp_path / "panel.csv"
        rows = ["t,model,variable,horizon,draw,value"]
        for t in (1, 2):
            for m in ("a", "b"):
                rows.append(f"{t},{m},y,1,1,0.5")
        path.write_text("\n".join(rows) + "\n")
        panel = load_panel(str(path))
        assert panel.draws.shape == (2, 2, 1, 1, 1)
        assert panel.model_names == ("a", "b")
        assert panel.variable_names == ("y",)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "panel.csv"
        rows = ["\ufefft,model,variable,horizon,draw,value"]
        rows += [f"{t},{m},y,1,{d},{t + d / 10}" for t in (1, 2) for m in ("a", "b") for d in (1, 2)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        panel = load_panel(str(path))
        assert panel.draws.shape == (2, 2, 1, 1, 2)
        np.testing.assert_array_equal(panel.draws[1, 0, 0, 0], [2.1, 2.2])

    def test_missing_draw_names_cell(self, tmp_path):
        path = tmp_path / "panel.csv"
        rows = ["t,model,variable,horizon,draw,value"]
        for t in (1, 2):
            for m in ("a", "b"):
                for d in (1, 2):
                    if (t, m, d) == (2, "b", 2):
                        continue
                    rows.append(f"{t},{m},y,1,{d},0.5")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match=r"model=b.*draw=2"):
            load_panel(str(path))

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(
            "t,model,variable,horizon,draw,value\n1,a,y,1,1,0.5\n1,a,y,1,1,0.6\n"
        )
        with pytest.raises(DataFormatError, match="duplicate"):
            load_panel(str(path))

    def test_round_trip_with_dgp(self, tmp_path):
        spec = SimSpec(design="nonlinear_incomplete", T=6, seed=3, n_pred_draws=3, horizons=2)
        obs, panel = generate(spec)
        path = str(tmp_path / "panel.csv")
        save_panel(panel, path, obs.variable_names)
        back = load_panel(path)
        np.testing.assert_array_equal(back.draws, panel.draws)
        assert back.model_names == panel.model_names

    def test_round_trip_names_needing_quotes(self, tmp_path):
        rng = np.random.default_rng(5)
        panel = PredictorPanel(rng.normal(size=(3, 2, 2, 2, 2)), ('a,"b', "c"), ('x,"y', "z"))
        path = str(tmp_path / "panel.csv")
        save_panel(panel, path)
        back = load_panel(path)
        np.testing.assert_array_equal(back.draws, panel.draws)
        assert back.model_names == panel.model_names
        assert back.variable_names == panel.variable_names


NAMES = st.one_of(
    st.sampled_from(["", " lead", "a,b", 'q"uote', "cr\r", "lf\n", "crlf\r\n", '",\r\n ']),
    st.text(alphabet=' ,"\r\nab\u00e9', max_size=4),
)
VALUES = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, 0.1]), st.floats())


@st.composite
def long_blocks(draw):
    """One to three blocks over the same number (1..5) of label axes, each
    axis an index range or a tuple of names, with one to three value arrays,
    each either C-ordered in the labels' shape or, as the draws block is, a
    transposed view without the unit axes."""
    n_axes = draw(st.integers(1, 5))
    n_values = draw(st.integers(1, 3))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        labels = []
        for _ in range(n_axes):
            size = draw(st.integers(1, 3))
            if draw(st.booleans()):
                labels.append(range(1, size + 1))
            else:
                labels.append(tuple(draw(st.lists(NAMES, min_size=size, max_size=size))))
        shape = tuple(len(axis) for axis in labels)
        n = int(np.prod(shape))
        values = []
        for _ in range(n_values):
            flat = np.array(draw(st.lists(VALUES, min_size=n, max_size=n)))
            if draw(st.booleans()):
                values.append(flat.reshape(shape))
            else:
                values.append(flat.reshape([size for size in reversed(shape) if size > 1]).T)
        blocks.append((labels, *values))
    return blocks


class TestWriteLong:
    @settings(max_examples=300, deadline=None)
    @given(blocks=long_blocks())
    @example(
        blocks=[
            ([("",), ("", "a,b", 'q"', " lead", "cr\r\nlf")], np.array([[np.nan, np.inf, -np.inf, -0.0, 5e-324]])),
        ],
    )
    @example(
        blocks=[
            (
                [range(1, 3), ("",), ("x", ""), (" y",), range(1, 2)],
                np.full((2, 1, 2, 1, 1), -0.0),
                np.full((2, 1, 2, 1, 1), 5e-324),
            ),
            (
                [range(4, 5), ('"',), ("",), (",",), range(1, 3)],
                np.array([np.nan, -np.inf]).reshape(1, 1, 1, 1, 2),
                np.zeros((1, 1, 1, 1, 2)),
            ),
        ],
    )
    @example(
        blocks=[
            # (S, J, L) draws as written: (S, L, J) transposed, labels (S, 1, L, J)
            ([range(1, 3), (3,), ("x", "y"), range(1, 4)], np.arange(12.0).reshape(2, 3, 2).transpose(0, 2, 1)),
        ],
    )
    def test_matches_csv_writerows(self, blocks):
        header = [f"c{j}" for j in range(len(blocks[0]))]
        with tempfile.TemporaryDirectory() as tmp:
            expected, got = os.path.join(tmp, "expected.csv"), os.path.join(tmp, "got.csv")
            with open(expected, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for block in blocks:
                    writer.writerows(long_tuple_rows(*block))
            write_long(got, header, blocks)
            with open(expected, "rb") as fa, open(got, "rb") as fb:
                assert fb.read() == fa.read()

    @pytest.mark.parametrize("n_values", [2, 3, 6])
    def test_value_count_must_match_label_cells(self, tmp_path, n_values):
        with pytest.raises(ValueError):
            write_long(str(tmp_path / "t.csv"), ["a", "b", "c"], [([range(1, 3), range(1, 3)], np.zeros(n_values))])


class TestConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_text(text)
        return str(path)

    BASE = (
        "[data]\nobservations = obs.csv\npanel = panel.csv\n\n"
        "[run]\nmethod = dtvw\nhorizons = 1,3\nn_particles = 200\n"
        "ess_threshold = 0.5\nseed = 7\nbaseline = M1\nout_dir = out\n\n"
        "[noise]\nsigma_x = 0.3\nsigma_alpha = 0.1\n\n"
        "[dtvw]\nalpha0 = 0, 10, 8.5\nx0_spread = 0\n\n"
        "[bma_roll]\nwindow = 24\n\n"
        "[gridsearch]\nstage1 = -10, 10, 2\nstage2_step = 0.5\neval_draws = 10\n"
    )

    def test_full_parse(self, tmp_path):
        cfg, grid = load_config(self.write(tmp_path, self.BASE))
        assert cfg.method == "dtvw"
        assert cfg.horizons == (1, 3)
        assert cfg.alpha0 == (0.0, 10.0, 8.5)
        assert cfg.sigma_x == 0.3 and cfg.sigma_alpha == 0.1
        assert cfg.baseline == "M1"
        assert grid is None  # only a search reads [gridsearch]
        _, grid = load_config(self.write(tmp_path, self.BASE), search=True)
        assert grid.stage2_step == 0.5 and grid.stage1 == ((-10.0, 10.0, 2.0),) * 2

    def test_byte_order_mark_before_the_first_section(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("\ufeff" + self.BASE, encoding="utf-8")
        cfg, _ = load_config(str(path))
        assert cfg.method == "dtvw" and cfg.observations == "obs.csv"

    def test_stage2_bounds(self, tmp_path):
        text = self.BASE + "stage2_bounds = 1, 8, 3, 10\n"
        _, grid = load_config(self.write(tmp_path, text), search=True)
        assert grid.stage2_bounds == ((1.0, 8.0), (3.0, 10.0))

    def test_method_section_switch(self, tmp_path):
        cfg, _ = load_config(self.write(tmp_path, self.BASE), {"method": "bma_roll"})
        assert cfg.method == "bma_roll" and cfg.window == 24

    def test_flag_overrides_win(self, tmp_path):
        cfg, _ = load_config(self.write(tmp_path, self.BASE), {"seed": 99, "n_particles": 11})
        assert cfg.seed == 99 and cfg.n_particles == 11

    def test_unknown_method_rejected(self, tmp_path):
        bad = self.BASE.replace("method = dtvw", "method = stacking")
        with pytest.raises(ConfigError, match="stacking"):
            load_config(self.write(tmp_path, bad))

    def test_bma_roll_needs_window(self, tmp_path):
        text = (
            "[data]\nobservations = o\npanel = p\n\n[run]\nmethod = bma_roll\n"
        )
        with pytest.raises(ConfigError, match="window"):
            load_config(self.write(tmp_path, text))

    def test_baseline_window_from_bma_roll_section(self, tmp_path):
        text = self.BASE.replace("baseline = M1", "baseline = bma_roll")
        cfg, _ = load_config(self.write(tmp_path, text))
        assert cfg.method == "dtvw" and cfg.baseline == "bma_roll" and cfg.window == 24

    def test_bad_value_names_section_and_key(self, tmp_path):
        bad = self.BASE.replace("sigma_x = 0.3", "sigma_x = wide")
        with pytest.raises(ConfigError, match=r"\[noise\] sigma_x"):
            load_config(self.write(tmp_path, bad))

    def test_missing_data_section(self, tmp_path):
        with pytest.raises(ConfigError, match="observations"):
            load_config(self.write(tmp_path, "[run]\nmethod = equal\n"))

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_config("/nonexistent/run.ini")
