import csv
import io
import json
import math
import os

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optosteer import ConfigError, InvalidInput, NonPhysicalState
from optosteer.cli import (
    FORMATS,
    MAX_GRID_POINTS,
    MODES,
    PhysicalBlock,
    ReducedBlock,
    RunConfig,
    main,
    parse_config,
    render_config,
    run,
)
from optosteer.model import thermal_occupation
from optosteer.scenario import PANEL_PARAMS

REDUCED_DOC = """
[reduced]
c1 = 15
c2 = 35
nth1 = 0.5
nth2 = 1
r = 1
gamma_hz = 140

[run]
mode = sweep
grid_points = 11

[output]
format = csv
"""

PHYSICAL_DOC = """
[physical]
cavity_freq1_hz = 5.26e14
cavity_freq2_hz = 5.26e14
laser_freq1_hz = 2.82e14
laser_freq2_hz = 2.82e14
length1_m = 25e-3
length2_m = 25e-3
kappa1_hz = 215e3
kappa2_hz = 215e3
power1_w = 5e-3
power2_w = 11e-3
mass1_kg = 1.45e-7
mass2_kg = 1.45e-7
mech_freq_hz = 947e3
gamma_hz = 140
r = 1
nth1 = 0.5
nth2 = 1

[run]
mode = regime
"""


def run_to_strings(cfg):
    out, err = io.StringIO(), io.StringIO()
    code = run(cfg, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def main_with_doc(tmp_path, capsys, doc):
    """Exit status, stdout and stderr of the CLI run on a config document."""
    path = tmp_path / "cfg.ini"
    path.write_text(doc)
    code = main(["--config", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def with_mode(doc, mode):
    run_lines = f"mode = {mode}" + ("\ngamma_t = 0.5" if mode == "eval" else "")
    return doc.replace("mode = regime", run_lines).replace("mode = sweep", run_lines)


class TestParseConfig:
    def test_reduced_document(self):
        cfg = parse_config(REDUCED_DOC)
        assert cfg.reduced == ReducedBlock(15.0, 35.0, 0.5, 1.0, 1.0, 140.0)
        assert cfg.physical is None
        assert cfg.mode == "sweep"
        assert cfg.grid_points == 11
        rp = cfg.reduced.to_params()
        assert rp.gamma == pytest.approx(2 * math.pi * 140.0, rel=1e-15)

    def test_physical_document(self):
        cfg = parse_config(PHYSICAL_DOC)
        p = cfg.physical.to_params()
        assert p.arm1.kappa == pytest.approx(2 * math.pi * 215e3, rel=1e-15)
        assert p.arm2.power == 11e-3

    def test_empty_document_lists_missing_keys(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("[reduced]\nc1 = 15\n")
        missing = [p for p in excinfo.value.problems if "missing" in p]
        assert len(missing) == 5
        assert any("[reduced] gamma_hz" in p for p in missing)

    def test_both_blocks_rejected(self):
        doc = REDUCED_DOC + "\n[physical]\nr = 1\n"
        with pytest.raises(ConfigError) as excinfo:
            parse_config(doc)
        assert any("exclusive blocks" in p for p in excinfo.value.problems)

    def test_unknown_key_rejected(self):
        doc = REDUCED_DOC.replace("mode = sweep", "mode = sweep\ntypo_key = 3")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(doc)
        assert any("typo_key" in p for p in excinfo.value.problems)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(REDUCED_DOC + "\n[extra]\nx = 1\n")

    def test_bad_number_reported_with_path(self):
        doc = REDUCED_DOC.replace("c1 = 15", "c1 = fifteen")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(doc)
        assert any("[reduced] c1" in p for p in excinfo.value.problems)

    def test_out_of_range_values_rejected(self):
        doc = REDUCED_DOC.replace("grid_points = 11", "grid_points = 1")
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_out_of_range_block_values_are_config_errors(self):
        doc = REDUCED_DOC.replace("c1 = 15", "c1 = -5")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(doc)
        assert any("[reduced]" in p for p in excinfo.value.problems)

    def test_malformed_document(self):
        with pytest.raises(ConfigError):
            parse_config("not an ini document")

    @pytest.mark.parametrize("line", [
        "mode = eval\ngamma_t = nan",
        "mode = sweep\ngrid_stop = inf",
        "mode = sweep\ngrid_start = nan",
        "mode = sweep\nepsilon = inf",
        "mode = sweep\nepsilon = nan",
    ])
    def test_non_finite_run_values_exit_one(self, tmp_path, capsys, line):
        path = tmp_path / "cfg.ini"
        path.write_text(REDUCED_DOC.replace("mode = sweep", line))
        assert main(["--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err
        assert "Warning" not in captured.err

    def test_non_finite_epsilon_flag_exits_one(self, capsys):
        assert main(["--mode", "figure", "--panel", "2a", "--epsilon", "inf"]) == 1
        assert "epsilon" in capsys.readouterr().err

    def test_grid_points_bounded(self):
        # checked when the config is built, before any grid exists
        assert RunConfig(grid_points=MAX_GRID_POINTS).grid_points == MAX_GRID_POINTS
        with pytest.raises(ConfigError):
            RunConfig(grid_points=MAX_GRID_POINTS + 1)
        doc = REDUCED_DOC.replace("grid_points = 11", "grid_points = 1000000000000")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(doc)
        assert any("grid_points" in p for p in excinfo.value.problems)

    @pytest.mark.parametrize("mode", ["sweep", "eval", "regime"])
    @pytest.mark.parametrize("line", ["nth1 = nan", "temp1_k = nan"])
    def test_non_finite_physical_occupation_exits_one(self, tmp_path, capsys,
                                                      mode, line):
        doc = with_mode(PHYSICAL_DOC.replace("nth1 = 0.5", line), mode)
        code, out, err = main_with_doc(tmp_path, capsys, doc)
        assert (code, out) == (1, "")
        assert "must be finite" in err

    @pytest.mark.parametrize("block", ["reduced", "physical"])
    def test_squeezing_whose_noise_moment_overflows_exits_one(self, tmp_path,
                                                              capsys, block):
        doc = REDUCED_DOC if block == "reduced" else with_mode(PHYSICAL_DOC, "sweep")
        doc = doc.replace("r = 1", "r = 400")
        code, out, err = main_with_doc(tmp_path, capsys, doc)
        assert (code, out) == (1, "")
        assert f"[{block}]" in err and "too large" in err


class TestRegimeGate:
    """A [physical] block whose regime check fails is refused in every
    computing mode; regime mode still reports it."""

    DOC = PHYSICAL_DOC.replace("power1_w = 5e-3", "power1_w = 5")

    @pytest.mark.parametrize("mode", ["sweep", "eval", "stationary"])
    def test_failing_regime_is_a_config_error(self, tmp_path, capsys, mode):
        code, out, err = main_with_doc(tmp_path, capsys, with_mode(self.DOC, mode))
        assert (code, out) == (1, "")
        assert "validity regime" in err and "weak_coupling_1" in err

    def test_regime_mode_reports_failure(self, tmp_path, capsys):
        code, out, err = main_with_doc(tmp_path, capsys, self.DOC)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "overall,,fail"

    def test_passing_regime_still_runs(self, tmp_path, capsys):
        code, out, _ = main_with_doc(tmp_path, capsys, with_mode(PHYSICAL_DOC, "eval"))
        assert code == 0 and out.startswith("gamma_t,")


class TestPrecisionLimit:
    """States whose measures double precision cannot resolve exit 2 with no
    data, never a traceback or a nan row."""

    DOC = """
[reduced]
c1 = 24.208324507649493
c2 = 20.7809039848931
nth1 = 0
nth2 = 0
r = 28.262588609210297
gamma_hz = 1

[run]
mode = sweep
grid_start = 0
grid_stop = 1.1952715755823119e-08
grid_points = 2
"""

    def test_sweep_exits_two(self, tmp_path, capsys):
        code, out, err = main_with_doc(tmp_path, capsys, self.DOC)
        assert (code, out) == (2, "")
        assert "double precision" in err

    @pytest.mark.parametrize("r", [90, 130, 178])
    @pytest.mark.parametrize("mode", ["sweep", "eval", "stationary"])
    def test_huge_squeezing_exits_two(self, tmp_path, capsys, r, mode):
        doc = with_mode(REDUCED_DOC.replace("r = 1", f"r = {r}"), mode)
        code, out, err = main_with_doc(tmp_path, capsys, doc)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err


class TestRenderRoundTrip:
    def test_reduced_round_trip(self):
        cfg = parse_config(REDUCED_DOC)
        assert parse_config(render_config(cfg)) == cfg

    def test_physical_round_trip(self):
        cfg = parse_config(PHYSICAL_DOC)
        assert parse_config(render_config(cfg)) == cfg

    def test_round_trip_with_every_optional_field(self):
        cfg = RunConfig(
            mode="eval",
            reduced=ReducedBlock(1.25, 2.5, 0.125, 0.0625, 0.3, 141.7),
            grid_start=0.25,
            grid_stop=4.5,
            grid_points=321,
            epsilon=2e-8,
            gamma_t=0.125,
            panel="2a",
            out_format="json",
            out_path="result.json",
        )
        assert parse_config(render_config(cfg)) == cfg

    def test_awkward_floats_survive(self):
        cfg = RunConfig(
            mode="sweep",
            reduced=ReducedBlock(1 / 3, 2 / 7, 0.1, 0.2, 1.1, 139.97),
        )
        assert parse_config(render_config(cfg)) == cfg


# Finite floats over the whole double range, subnormals and awkward
# mantissas included; the bounds keep 2*pi*value and sinh(r)**2 finite.
NONNEGATIVE = st.floats(min_value=0.0, max_value=1e300)
POSITIVE = st.floats(min_value=5e-324, max_value=1e300)
SQUEEZING = st.floats(min_value=0.0, max_value=355.0)


@st.composite
def physical_blocks(draw):
    fields = {name: draw(POSITIVE) for name in (
        "cavity_freq1_hz", "cavity_freq2_hz", "laser_freq1_hz", "laser_freq2_hz",
        "length1_m", "length2_m", "kappa1_hz", "kappa2_hz", "mass1_kg", "mass2_kg",
        "mech_freq_hz", "gamma_hz")}
    fields.update(power1_w=draw(NONNEGATIVE), power2_w=draw(NONNEGATIVE),
                  r=draw(SQUEEZING))
    for j in (1, 2):
        # each arm's bath: an occupation, a temperature, or both in agreement
        given = draw(st.sampled_from(["nth", "temp", "both"]))
        if given != "temp":
            fields[f"nth{j}"] = draw(NONNEGATIVE)
        if given != "nth":
            fields[f"temp{j}_k"] = t = draw(NONNEGATIVE)
        if given == "both":
            try:
                n = thermal_occupation(t, 2 * math.pi * fields["mech_freq_hz"])
            except InvalidInput:  # occupation beyond a double: not a valid block
                assume(False)
            fields[f"nth{j}"] = n
    return PhysicalBlock(**fields)


@st.composite
def run_configs(draw):
    optional = lambda strategy: st.none() | strategy  # noqa: E731
    block = draw(st.sampled_from(["reduced", "physical", None]))
    start = draw(st.floats(min_value=0.0, max_value=1e299))
    path = st.text("abXY09._-/ #;%=:", max_size=20).map(str.strip)
    return RunConfig(
        mode=draw(optional(st.sampled_from(MODES))),
        physical=draw(physical_blocks()) if block == "physical" else None,
        reduced=ReducedBlock(*(draw(NONNEGATIVE) for _ in range(4)),
                             draw(SQUEEZING), draw(POSITIVE))
        if block == "reduced" else None,
        grid_start=start,
        grid_stop=draw(st.floats(min_value=start, max_value=1e300, exclude_min=True)),
        grid_points=draw(st.integers(2, MAX_GRID_POINTS)),
        epsilon=draw(POSITIVE),
        gamma_t=draw(optional(NONNEGATIVE)),
        panel=draw(optional(st.sampled_from(list(PANEL_PARAMS)))),
        out_format=draw(st.sampled_from(FORMATS)),
        out_path=draw(optional(path)),
    )


class TestRenderPropertyRoundTrip:
    @settings(max_examples=300, deadline=None, database=None)
    @given(run_configs())
    def test_parse_inverts_render(self, cfg):
        assert parse_config(render_config(cfg)) == cfg


class TestRunModes:
    def test_sweep_csv_shape_and_purity(self):
        cfg = parse_config(REDUCED_DOC)
        code, out, err = run_to_strings(cfg)
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "gamma_t,g_ab,g_ba,g_delta,e2"
        assert len(lines) == 12
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 11
        for row in rows:
            for field in ("gamma_t", "g_ab", "g_ba", "g_delta", "e2"):
                float(row[field])  # parseable numbers only

    def test_eval_at_time_zero_is_all_zero(self):
        doc = REDUCED_DOC.replace("mode = sweep", "mode = eval\ngamma_t = 0")
        code, out, _ = run_to_strings(parse_config(doc))
        assert code == 0
        assert out.splitlines()[1] == "0,0,0,0,0"

    def test_eval_known_point(self):
        doc = REDUCED_DOC.replace("mode = sweep", "mode = eval\ngamma_t = 0.2")
        _, out, _ = run_to_strings(parse_config(doc))
        row = out.splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(0.0820275988, abs=1e-9)
        assert float(row[4]) == pytest.approx(0.2450891339, abs=1e-9)

    def test_json_output(self):
        doc = REDUCED_DOC.replace("format = csv", "format = json")
        code, out, _ = run_to_strings(parse_config(doc))
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 11
        assert set(payload[0]) == {"gamma_t", "g_ab", "g_ba", "g_delta", "e2"}

    def test_figure_panel(self):
        cfg = RunConfig(mode="figure", panel="2a")
        code, out, err = run_to_strings(cfg)
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 1002

    def test_stationary_mode(self):
        doc = REDUCED_DOC.replace("mode = sweep", "mode = stationary")
        code, out, _ = run_to_strings(parse_config(doc))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "v11,v33,v13,g_ab,g_ba,g_delta,e2"
        v11 = float(lines[1].split(",")[0])
        assert v11 == pytest.approx(1.8260292302, abs=1e-9)

    def test_regime_mode(self):
        code, out, _ = run_to_strings(parse_config(PHYSICAL_DOC))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "check,ratio,status"
        table = {row.split(",")[0]: row.split(",") for row in lines[1:]}
        assert table["sideband_resolution_1"][2] == "warn"
        assert float(table["sideband_resolution_1"][1]) == pytest.approx(
            947.0 / 215.0, rel=1e-12
        )
        assert table["overall"][2] == "warn"

    def test_regime_requires_physical_block(self):
        doc = REDUCED_DOC.replace("mode = sweep", "mode = regime")
        code, out, err = run_to_strings(parse_config(doc))
        assert code == 1
        assert out == ""
        assert "physical" in err

    def test_twelve_significant_digits(self):
        doc = REDUCED_DOC.replace("mode = sweep", "mode = eval\ngamma_t = 0.2")
        _, out, _ = run_to_strings(parse_config(doc))
        cell = out.splitlines()[1].split(",")[4]
        assert len(cell.replace("-", "").replace(".", "").lstrip("0")) == 12

    def test_output_file(self, tmp_path):
        target = tmp_path / "data.csv"
        cfg = RunConfig(mode="figure", panel="3a", out_path=str(target))
        code, out, _ = run_to_strings(cfg)
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("gamma_t,")
        assert "\r" not in text


class TestExitCodes:
    def test_success_is_zero(self):
        assert run_to_strings(RunConfig(mode="figure", panel="2a"))[0] == 0

    def test_config_error_is_one(self):
        code, out, err = run_to_strings(RunConfig())
        assert code == 1 and out == "" and "mode" in err

    def test_missing_parameter_block_is_one(self):
        code, _, err = run_to_strings(RunConfig(mode="sweep"))
        assert code == 1
        assert "block" in err

    def test_computational_error_is_two(self, monkeypatch):
        import optosteer.cli as cli_module

        def explode(*args, **kwargs):
            raise NonPhysicalState("injected fault")

        monkeypatch.setattr(cli_module, "sweep_time", explode)
        cfg = parse_config(REDUCED_DOC)
        code, out, err = run_to_strings(cfg)
        assert code == 2
        assert out == ""
        assert "injected fault" in err

    def test_bad_flag_is_one(self, capsys):
        assert main(["--mode", "warp"]) == 1
        assert "config error" in capsys.readouterr().err


class TestMain:
    def test_figure_via_flags(self, capsys):
        assert main(["--mode", "figure", "--panel", "2a"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("gamma_t,")
        assert len(out.splitlines()) == 1002

    def test_flags_override_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text(REDUCED_DOC)
        assert main(["--config", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 11

    def test_missing_config_file(self, capsys):
        assert main(["--config", "/nonexistent/path.ini"]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_unknown_panel_is_config_error(self, capsys):
        assert main(["--mode", "figure", "--panel", "7q"]) == 1
        assert "panel" in capsys.readouterr().err

    def test_epsilon_flag(self, capsys):
        # a huge epsilon suppresses every classification, data unchanged
        assert main(["--mode", "figure", "--panel", "2a", "--epsilon", "10"]) == 0
        first = capsys.readouterr().out
        assert main(["--mode", "figure", "--panel", "2a"]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestOutputFile:
    """--out is written only once the whole output is computed, and replaces
    the file as a whole; an unwritable output is a configuration error."""

    def test_failed_run_leaves_the_old_file(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        target.write_text("old contents\n")
        doc = with_mode(REDUCED_DOC.replace("r = 1", "r = 200"), "eval")
        code, out, err = main_with_doc(tmp_path, capsys, doc + f"path = {target}\n")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert target.read_text() == "old contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini", "out.csv"]

    def test_file_holds_the_stdout_bytes_and_keeps_its_mode(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        target.write_text("old contents\n")
        target.chmod(0o640)
        argv = ["--mode", "figure", "--panel", "3b", "--format", "json"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert main([*argv, "--out", str(target)]) == 0
        assert capsys.readouterr() == ("", "")
        assert target.read_bytes() == stdout.encode()
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_new_file_gets_the_default_mode(self, tmp_path, capsys):
        umask = os.umask(0)
        os.umask(umask)
        target = tmp_path / "new.csv"
        assert main(["--mode", "figure", "--panel", "2a", "--out", str(target)]) == 0
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_symlink_target_is_written(self, tmp_path, capsys):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old contents\n")
        link.symlink_to(real)
        assert main(["--mode", "figure", "--panel", "2a", "--out", str(link)]) == 0
        assert link.is_symlink() and real.read_text().startswith("gamma_t,")

    def test_missing_directory_is_a_config_error(self, tmp_path, capsys):
        target = tmp_path / "nodir" / "x.csv"
        assert main(["--mode", "figure", "--panel", "2a", "--out", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: cannot write output")
        assert len(captured.err.splitlines()) == 1
        assert not target.parent.exists()

    def test_undecodable_config_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_bytes("[run]\nmode = figure\npanel = 2a\n# café\n".encode("latin-1"))
        assert main(["--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: cannot read config")
        assert len(captured.err.splitlines()) == 1


class TestConfigChecks:
    """Each RunConfig check and mode requirement, driven through main."""

    def test_unknown_mode(self, tmp_path, capsys):
        code, out, err = main_with_doc(
            tmp_path, capsys, REDUCED_DOC.replace("mode = sweep", "mode = bogus"))
        assert (code, out) == (1, "")
        assert "config error: [run] mode: must be one of" in err

    def test_both_blocks(self, tmp_path, capsys):
        doc = PHYSICAL_DOC + REDUCED_DOC.replace("[run]\nmode = sweep\n", "")
        code, out, err = main_with_doc(tmp_path, capsys, doc)
        assert (code, out) == (1, "")
        assert "exclusive blocks" in err
        cfg = parse_config(REDUCED_DOC)
        with pytest.raises(ConfigError, match="exclusive blocks"):
            RunConfig(physical=parse_config(PHYSICAL_DOC).physical, reduced=cfg.reduced)

    def test_bad_output_format(self, tmp_path, capsys):
        code, out, err = main_with_doc(
            tmp_path, capsys, REDUCED_DOC.replace("format = csv", "format = xml"))
        assert (code, out) == (1, "")
        assert "[output] format: must be csv or json" in err

    def test_regime_mode_as_json(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text(PHYSICAL_DOC)
        assert main(["--config", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"threshold", "warn_floor", "checks", "overall"}
        checks = {c["check"]: c for c in payload["checks"]}
        assert checks["sideband_resolution_1"]["status"] == "warn"
        assert checks["sideband_resolution_1"]["ratio"] == float(f"{947.0 / 215.0:.12g}")
        assert payload["overall"] == "warn"

    def test_figure_mode_needs_a_panel(self, capsys):
        assert main(["--mode", "figure"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[run] panel: required for figure mode" in captured.err

    def test_eval_mode_needs_gamma_t(self, tmp_path, capsys):
        code, out, err = main_with_doc(
            tmp_path, capsys, REDUCED_DOC.replace("mode = sweep", "mode = eval"))
        assert (code, out) == (1, "")
        assert "[run] gamma_t: required for eval mode" in err

    def test_occupation_from_temperature_alone(self, tmp_path, capsys):
        temps = (2e-4, 3e-4)
        omega_m = 2.0 * math.pi * 947e3
        by_temp = with_mode(PHYSICAL_DOC, "eval").replace(
            "nth1 = 0.5\nnth2 = 1", f"temp1_k = {temps[0]}\ntemp2_k = {temps[1]}")
        by_nth = with_mode(PHYSICAL_DOC, "eval").replace(
            "nth1 = 0.5\nnth2 = 1",
            "\n".join(f"nth{j} = {thermal_occupation(t, omega_m)!r}"
                      for j, t in enumerate(temps, 1)))
        assert 0.1 < thermal_occupation(temps[0], omega_m) < 10.0
        code, out, err = main_with_doc(tmp_path, capsys, by_temp)
        assert (code, err) == (0, "") and out.startswith("gamma_t,")
        assert main_with_doc(tmp_path, capsys, by_nth) == (0, out, "")
