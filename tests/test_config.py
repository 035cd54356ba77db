"""Scenario configuration schema: bundled files, violations and fuzzing."""

import configparser
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridstudy
from gridstudy.harness import _load_data
from gridstudy.loadability import DEFAULT_LAMBDA_MAX, DEFAULT_STEP
from gridstudy.powerflow import DEFAULT_BASE_MVA
from gridstudy.scenarioconfig import (
    ConfigError,
    scenario_from_config,
)
from gridstudy.timeseries import ZoneWeights
from tests.conftest import config_path


class TestBundledConfigs:
    def test_scenario4_table_values(self):
        cfg = scenario_from_config(config_path(4))
        assert cfg.uptake == "medium"

    @pytest.mark.parametrize("scenario", [1, 2, 3, 4, 5])
    def test_all_bundled_parse(self, scenario):
        cfg = scenario_from_config(config_path(scenario))
        assert cfg.scenario_id == scenario
        assert len(cfg.fleet) == 14
        assert len(cfg.interconnectors) == 4
        assert (cfg.replacement is None) == (scenario == 1)
        for spec in cfg.batteries.values():
            assert spec.soc_min_mwh < spec.soc_max_mwh
        for cap in cfg.pv_capacity_mw.values():
            assert cap >= 0

    def test_srmc_table_rows_survive(self):
        cfg = scenario_from_config(config_path(1))
        srmc = {g.name: g.srmc for g in cfg.fleet}
        assert srmc["YPS_3"] == 21.88
        assert srmc["TPS_4"] == 73.84
        assert srmc["BPS_2"] == 28.45

    def test_interstate_limits(self):
        cfg = scenario_from_config(config_path(1))
        lines = {l.name: (l.forward_limit_mw, l.reverse_limit_mw) for l in cfg.interconnectors}
        assert lines["NSW-QLD"] == (600.0, -1000.0)
        assert lines["VIC-SA"] == (500.0, -500.0)

    def test_zone_weights_parsed(self):
        cfg = scenario_from_config(config_path(4))
        assert cfg.zone_weights == {"NSW": ZoneWeights({"nsw_load_n": 0.55, "nsw_load_s": 0.45})}

    def test_loadability_defaults_come_from_the_sweep(self, tmp_path, scenario4_text):
        def fn(p):
            for key in ("step", "lambda_max", "base_mva"):
                p.remove_option("loadability", key)
        opts = scenario_from_config(mutate(scenario4_text, tmp_path, fn)).loadability
        assert (opts.step, opts.lambda_max, opts.base_mva) == (DEFAULT_STEP, DEFAULT_LAMBDA_MAX,
                                                              DEFAULT_BASE_MVA)

    def test_hash_is_stable(self):
        want = hashlib.sha256(config_path(1).read_bytes()).hexdigest()
        assert scenario_from_config(config_path(1)).sha256 == want
        assert scenario_from_config(config_path(1)).sha256 == want

    def test_scenario1_fleet_is_its_generator_sections(self):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(config_path(1))
        sections = [name.split(" ", 1)[1] for name in parser.sections()
                    if name.startswith("generator ")]
        assert len(sections) == 14
        assert [g.name for g in scenario_from_config(config_path(1)).fleet] == sections

    def test_scenario2_swaps_units(self):
        """The [generator] units that stay, in file order, then the wind farm and the CSP pair."""
        cfg = scenario_from_config(config_path(2))
        names = [g.name for g in cfg.fleet]
        assert {"NPS_5", "SPS_4", "GPS_4"}.isdisjoint(names)
        assert names[-3:] == ["WF_5", "CSP_4A", "CSP_4B"]
        wind = cfg.fleet[-3]
        assert wind.gtype == "wind" and wind.capacity_mw == 3000.0 and wind.region == "SA"
        csps = [g for g in cfg.fleet if g.gtype == "csp"]
        assert [g.zone for g in csps] == ["NQ", "CQ"]
        assert all(g.capacity_mw == 4500.0 and g.region == "QLD" for g in csps)

    @pytest.mark.parametrize("scenario", [1, 2, 3, 4, 5])
    def test_fleet_and_availabilities_agree(self, data_dir, scenario):
        """Unit names are unique, and the renewable units are the ones with availabilities."""
        cfg = scenario_from_config(config_path(scenario))
        names = [g.name for g in cfg.fleet]
        assert len(set(names)) == len(names)
        availabilities = _load_data(cfg, data_dir, 2, {}).availabilities
        assert {g.name for g in cfg.fleet if g.is_renewable} == set(availabilities)


def mutate(base_text, tmp_path, fn, name="mut.ini"):
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(base_text)
    fn(parser)
    out = tmp_path / name
    with out.open("w") as fh:
        parser.write(fh)
    return out


@pytest.fixture()
def scenario4_text():
    return config_path(4).read_text()


class TestViolations:
    def test_missing_uptake(self, tmp_path, scenario4_text):
        path = mutate(scenario4_text, tmp_path, lambda p: p.remove_option("scenario", "uptake"))
        with pytest.raises(ConfigError, match="uptake"):
            scenario_from_config(path)

    def test_battery_min_equals_max(self, tmp_path, scenario4_text):
        def fn(p):
            p.set("battery QLD", "soc_min_mwh", "6400")
        path = mutate(scenario4_text, tmp_path, fn)
        with pytest.raises(ConfigError, match="min < max"):
            scenario_from_config(path)

    def test_unknown_key_rejected(self, tmp_path, scenario4_text):
        def fn(p):
            p.set("scenario", "surprise", "1")
        path = mutate(scenario4_text, tmp_path, fn)
        with pytest.raises(ConfigError, match="unknown key 'surprise'"):
            scenario_from_config(path)

    def test_run_seed_of_an_old_config_is_one_unknown_key(self, tmp_path, scenario4_text):
        path = mutate(scenario4_text, tmp_path, lambda p: p.set("scenario", "seed", "11"))
        with pytest.raises(ConfigError) as err:
            scenario_from_config(path)
        assert str(err.value).splitlines()[1:] == ["  [scenario] unknown key 'seed'"]

    def test_predictor_section_of_an_old_config_is_one_unknown_section(self, tmp_path,
                                                                        scenario4_text):
        """Ridge regression is the one price model, so no config selects it."""
        def fn(p):
            p.add_section("predictor")
            p.set("predictor", "kind", "ridge-linear")
        path = mutate(scenario4_text, tmp_path, fn)
        with pytest.raises(ConfigError) as err:
            scenario_from_config(path)
        assert str(err.value).splitlines()[1:] == ["  unknown section [predictor]"]

    def test_unknown_section_rejected(self, tmp_path, scenario4_text):
        def fn(p):
            p.add_section("mystery")
            p.set("mystery", "a", "1")
            p.add_section("pv NEM")  # whole-market sections are not part of the schema
            p.set("pv NEM", "capacity_mw", "7500")
        path = mutate(scenario4_text, tmp_path, fn)
        with pytest.raises(ConfigError, match=r"unknown section \[mystery\]") as err:
            scenario_from_config(path)
        assert "battery/pv section names unknown region 'NEM'" in str(err.value)

    def test_scenario1_with_replacement_rejected(self, tmp_path):
        text = config_path(1).read_text() + (
            "\n[replacement]\nremove = NPS_5\nwind_name = W\nwind_region = SA\n"
            "wind_zone = NSA\nwind_capacity_mw = 100\ncsp_names = C1\ncsp_region = QLD\n"
            "csp_zones = NQ\ncsp_capacity_mw = 100\n")
        path = tmp_path / "s1r.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="scenario 1.*not allowed"):
            scenario_from_config(path)

    def test_missing_schema_version(self, tmp_path, scenario4_text):
        path = mutate(scenario4_text, tmp_path,
                      lambda p: p.remove_option("scenario", "schema_version"))
        with pytest.raises(ConfigError, match="schema_version"):
            scenario_from_config(path)

    def test_uptake_scenario_requires_batteries(self, tmp_path, scenario4_text):
        path = mutate(scenario4_text, tmp_path, lambda p: p.remove_section("battery VIC"))
        with pytest.raises(ConfigError, match=r"missing \[battery VIC\]"):
            scenario_from_config(path)

    @pytest.mark.parametrize("fn, unit", [
        (lambda p: p.set("replacement", "remove", "NPS_5,GHOST_9"), "GHOST_9"),
        (lambda p: p.remove_section("generator NPS_5"), "NPS_5"),
    ], ids=["unknown-name", "section-deleted"])
    def test_removing_unknown_unit_rejected(self, tmp_path, scenario4_text, fn, unit):
        path = mutate(scenario4_text, tmp_path, fn)
        with pytest.raises(ConfigError) as err:
            scenario_from_config(path)
        assert str(err.value).splitlines()[1:] == [f"  [replacement] removes unknown unit {unit!r}"]

    @pytest.mark.parametrize("key,value,clash", [("wind_name", "BPS_2", "BPS_2"),
                                                 ("csp_names", "CSP_4A,CSP_4A", "CSP_4A"),
                                                 ("csp_names", "WF_5,CSP_4B", "WF_5")])
    def test_replacement_unit_name_clash_rejected(self, tmp_path, scenario4_text, key, value,
                                                  clash):
        """A unit named twice would have one output in the dispatch and two in the fleet."""
        path = mutate(scenario4_text, tmp_path, lambda p: p.set("replacement", key, value))
        with pytest.raises(ConfigError) as err:
            scenario_from_config(path)
        assert str(err.value).splitlines()[1:] == [
            f"  [replacement] unit name {clash!r} is already in the fleet"]

    def test_removed_unit_name_is_reusable(self, tmp_path, scenario4_text):
        path = mutate(scenario4_text, tmp_path, lambda p: p.set("replacement", "wind_name", "NPS_5"))
        fleet = scenario_from_config(path).fleet
        assert [(g.name, g.gtype) for g in fleet if g.name == "NPS_5"] == [("NPS_5", "wind")]

    @pytest.mark.parametrize("key,units", [("wind_region", "WF_5"), ("csp_region", "CSP_4A/CSP_4B")])
    def test_replacement_region_outside_the_region_lists(self, tmp_path, scenario4_text, key,
                                                         units):
        """Such a unit used to fail the dispatch on a bare KeyError."""
        path = mutate(scenario4_text, tmp_path, lambda p: p.set("replacement", key, "TAS"))
        with pytest.raises(ConfigError) as err:
            scenario_from_config(path)
        assert str(err.value).splitlines()[1:] == [
            f"  [replacement] {units} region 'TAS' not in the region lists"]

    @pytest.mark.parametrize("key,value,region", [("transit", "SH,SA", "SA"),
                                                  ("demand", "QLD,NSW,QLD,VIC,SA", "QLD")])
    def test_region_listed_twice_rejected(self, tmp_path, scenario4_text, key, value, region):
        """A transit region's zero series would replace the demand region's load."""
        path = mutate(scenario4_text, tmp_path, lambda p: p.set("regions", key, value))
        with pytest.raises(ConfigError) as err:
            scenario_from_config(path)
        assert str(err.value).splitlines()[1:] == [
            f"  [regions] region {region!r} is listed more than once"]

    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_config_is_one_error(self, tmp_path, scenario4_text, kind):
        path = tmp_path / "scenario.ini"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(scenario4_text.encode() + b"; \xff\n")
        with pytest.raises(ConfigError) as err:
            scenario_from_config(path)
        [line] = str(err.value).splitlines()
        assert line.startswith(f"{path}: cannot read the scenario config: ")

    def test_parse_error_names_the_file(self, tmp_path, scenario4_text):
        """As a plain path, twice: once as the config's name, once as the parser's source."""
        path = tmp_path / "scenario.ini"
        path.write_text(scenario4_text + "\n[scenario]\nid = 4\n")
        with pytest.raises(ConfigError, match="already exists") as err:
            scenario_from_config(path)
        assert str(err.value).startswith(f"{path}: While reading from {str(path)!r}")

    @pytest.mark.parametrize("gtype", ["wind", "csp", "utility_pv"])
    def test_renewable_generator_section_rejected(self, tmp_path, scenario4_text, gtype):
        """Only the replacement's units get availability series."""
        def fn(p):
            p.add_section("generator WX")
            for key, value in (("type", gtype), ("zone", "NSA"), ("region", "SA"),
                               ("capacity_mw", "500"), ("srmc", "0")):
                p.set("generator WX", key, value)
        path = mutate(scenario4_text, tmp_path, fn)
        with pytest.raises(ConfigError, match=rf"\[generator WX\] type '{gtype}'"):
            scenario_from_config(path)

    @pytest.mark.parametrize("region, weights, why", [
        ("SH", {"sh_gen": "1.0"}, "'SH' is not a demand region"),
        ("TAS", {"tas_load": "1.0"}, "'TAS' is not a demand region"),
        ("QLD", {"qld_load": "0.9"}, "sum to 0.9"),
        ("NSW", {"nsw_load_n": "1.5", "nsw_load_s": "-0.5"}, "must be finite and >= 0"),
        ("NSW", {"nsw_load_n": "nan", "nsw_load_s": "1.0"}, "nsw_load_n: not a finite number"),
        ("VIC", {}, "at least one zone"),
    ])
    def test_bad_zone_weights_rejected(self, tmp_path, scenario4_text, region, weights, why):
        """A split the loadability stage cannot use fails when the config is parsed."""
        def fn(p):
            name = f"zone_weights {region}"
            if not p.has_section(name):
                p.add_section(name)
            for bus in list(p[name]):
                p.remove_option(name, bus)
            for bus, share in weights.items():
                p.set(name, bus, share)
        path = mutate(scenario4_text, tmp_path, fn)
        with pytest.raises(ConfigError, match=rf"\[zone_weights {region}\] .*{why}"):
            scenario_from_config(path)

    def test_every_violation_is_reported_once(self, tmp_path, scenario4_text):
        """A value that is not a number hides no other violation, and a key
        that failed to read adds no follow-on errors."""
        def fn(p):
            p.set("loadability", "step", "abc")
            p.remove_option("scenario", "uptake")
            p.set("generator TPS_4", "capacity_mw", "abc")
            p.set("battery VIC", "soc_max_mwh", p.get("battery VIC", "soc_min_mwh"))
        with pytest.raises(ConfigError) as err:
            scenario_from_config(mutate(scenario4_text, tmp_path, fn))
        lines = str(err.value).splitlines()[1:]
        assert len(lines) == 4, lines
        for name in ("step: not a number: 'abc'", "missing required key 'uptake'",
                     "[generator TPS_4] capacity_mw: not a number: 'abc'",
                     "[battery VIC] SOC window [800.0, 800.0]"):
            assert sum(name in line for line in lines) == 1, (name, lines)

    @pytest.mark.parametrize("section,key,value,why", [
        ("loadability", "lambda_max", "0.5", "lambda_max must be >= 1, got 0.5"),
        ("loadability", "region", "", "region must name a region"),
        ("battery QLD", "charge_rate_mw", "-5", "battery rate window [-1800.0, -5.0] must straddle 0"),
        ("battery SA", "discharge_rate_mw", "5", "battery rate window [5.0, 400.0] must straddle 0"),
    ])
    def test_value_that_fails_after_dispatch_is_one_error(self, tmp_path, scenario4_text,
                                                          section, key, value, why):
        path = mutate(scenario4_text, tmp_path, lambda p: p.set(section, key, value))
        with pytest.raises(ConfigError) as err:
            scenario_from_config(path)
        assert str(err.value).splitlines()[1:] == [f"  [{section}] {why}"]

    @pytest.mark.parametrize("key,value,why", [
        ("step", "0", "step must be positive, got 0.0"),
        ("step", "1e-17", "step must be large enough that 1 + step > 1, got 1e-17"),
        ("step", "5e-324", "step must be large enough that 1 + step > 1, got 5e-324"),
        ("lambda_max", "1e300", "step must give at most 2**62 steps up to lambda_max 1e+300, "
                                "got 0.02"),
        ("lambda_max", "0.99", "lambda_max must be >= 1, got 0.99"),
        ("participation", "qld_gen:0.7,qld_csp:0.5", "participation factors sum to 1.2, expected 1"),
        ("participation", "qld_gen:1.5,qld_csp:-0.5", "participation factor for 'qld_csp' is negative"),
    ])
    def test_sweep_options_fail_with_the_sweeps_own_message(self, tmp_path, scenario4_text,
                                                            key, value, why):
        path = mutate(scenario4_text, tmp_path, lambda p: p.set("loadability", key, value))
        with pytest.raises(ConfigError) as err:
            scenario_from_config(path)
        assert str(err.value).splitlines()[1:] == [f"  [loadability] {why}"]

    @pytest.mark.parametrize("section,key,value,what", [
        ("pv QLD", "capacity_mw", "nan", "capacity_mw"),
        ("replacement", "csp_capacity_mw", "inf", "csp_capacity_mw"),
        ("loadability", "step", "nan", "step"),
        ("generator TPS_4", "srmc", "inf", "srmc"),
        ("loadability", "participation", "qld_gen:nan,qld_csp:0.5", "participation"),
        ("zone_weights NSW", "nsw_load_n", "-inf", "nsw_load_n"),
    ])
    def test_non_finite_number_is_one_error(self, tmp_path, scenario4_text, section, key, value,
                                            what):
        path = mutate(scenario4_text, tmp_path, lambda p: p.set(section, key, value))
        with pytest.raises(ConfigError) as err:
            scenario_from_config(path)
        bad = value.split(":")[1].split(",")[0] if ":" in value else value
        assert str(err.value).splitlines()[1:] == [f"  [{section}] {what}: not a finite number: "
                                                   f"{bad!r}"]

    def test_messages_do_not_depend_on_the_hash_seed(self, tmp_path, scenario4_text):
        path = mutate(scenario4_text, tmp_path, lambda p: p.set("scenario", "uptake", "none"))
        code = ("import sys\n"
                "from gridstudy.scenarioconfig import ConfigError, scenario_from_config\n"
                "try:\n    scenario_from_config(sys.argv[1])\n"
                "except ConfigError as exc:\n    print(exc)\n")
        src = str(Path(gridstudy.__file__).resolve().parent.parent)
        outputs = {subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                                  text=True, check=True,
                                  env={**os.environ, "PYTHONPATH": src,
                                       "PYTHONHASHSEED": str(seed)}).stdout
                   for seed in range(1, 5)}
        assert len(outputs) == 1
        assert outputs.pop().count("uptake none forbids") == 4

    @pytest.mark.parametrize("scenario,key", [(2, "wind.XX"), (2, "solar.NSA"), (2, "pv.QLD"),
                                              (1, "wind.NSA"), (1, "pv.QLD")])
    def test_data_entry_the_scenario_does_not_read(self, tmp_path, scenario, key):
        """Only the traces ``[replacement]`` names, and PV files under uptake, are read."""
        path = mutate(config_path(scenario).read_text(), tmp_path,
                      lambda p: p.set("data", key, "no_such_file.csv"))
        with pytest.raises(ConfigError) as err:
            scenario_from_config(path)
        assert str(err.value).splitlines()[1:] == [f"  [data] unknown file entry {key!r}"]

    def test_missing_data_entry(self, tmp_path, scenario4_text):
        path = mutate(scenario4_text, tmp_path, lambda p: p.remove_option("data", "bus"))
        with pytest.raises(ConfigError, match="missing file entry 'bus'"):
            scenario_from_config(path)


class TestFuzz:
    BREAKERS = [
        ("scenario", "id", "9"),
        ("scenario", "id", "zero"),
        ("scenario", "uptake", "maximal"),
        ("scenario", "schema_version", "7"),
        ("battery NSW", "soc_max_mwh", "-5"),
        ("pv SA", "capacity_mw", "-1"),
        ("generator TPS_4", "srmc", "-3"),
        ("generator TPS_4", "capacity_mw", "abc"),
        ("interconnector NSW-QLD", "forward_mw", "-600"),
        ("loadability", "step", "0"),
        ("loadability", "base_mva", "0"),
    ]

    @pytest.mark.parametrize("section,key,value", BREAKERS)
    def test_every_injected_violation_is_rejected(self, tmp_path, scenario4_text,
                                                  section, key, value):
        def fn(p):
            p.set(section, key, value)
        path = mutate(scenario4_text, tmp_path, fn, name=f"{section}_{key}.ini")
        with pytest.raises(ConfigError):
            scenario_from_config(path)

    def test_random_key_deletions_never_crash_unvalidated(self, tmp_path, scenario4_text):
        """Deleting any single required key yields a ConfigError, never an
        accepted config that breaks invariants downstream."""
        rng = np.random.default_rng(0)
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        parser.read_string(scenario4_text)
        entries = [(s, k) for s in parser.sections() for k in parser.options(s)]
        for idx in rng.choice(len(entries), size=20, replace=False):
            section, key = entries[int(idx)]
            path = mutate(scenario4_text, tmp_path,
                          lambda p: p.remove_option(section, key), name=f"del{idx}.ini")
            try:
                cfg = scenario_from_config(path)
            except ConfigError:
                continue
            # optional key removed: the config must still satisfy invariants
            assert 1 <= cfg.scenario_id <= 5
            for spec in cfg.batteries.values():
                assert spec.soc_min_mwh < spec.soc_max_mwh
