import json

import numpy as np
import pytest

from twostage import cli
from twostage.cli import (ConfigError, ExperimentConfig, build_regions,
                          emit_report, load_points_csv, load_features_csv,
                          load_report_json, main, parse_config_file,
                          run_experiment)
from twostage.core import evaluate_solution, solution_from_sets
from twostage.greedy import replacement_greedy
from twostage.objectives import Point

from conftest import modular_family


class TestLoadPoints:
    def test_direct_parse(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("40.75,-73.99\n40.76,-73.98\n")
        ground = load_points_csv(p)
        assert ground.n == 2
        assert ground.payload[0] == Point(40.75, -73.99)

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("lat,lon\n1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        assert load_points_csv(p).n == 3

    def test_malformed_row_names_its_line(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("1.0,2.0\nabc,1.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_points_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("")
        with pytest.raises(ValueError):
            load_points_csv(p)


class TestLoadFeatures:
    def test_class_membership_is_one_based_consistent(self, tmp_path):
        # one boat, one bird, one person under the usual 20-class labelling:
        # counts at classes 2, 4, and 14 (1-based)
        vec = [0] * 20
        for cls in (2, 4, 14):
            vec[cls - 1] = 1
        p = tmp_path / "feat.csv"
        p.write_text(",".join(str(v) for v in vec) + "\n")
        _, omegas = load_features_csv(p, 20)
        members_of = [i + 1 for i in range(20) if 0 in omegas[i]]
        assert members_of == [2, 4, 14]

    def test_all_zero_row_in_no_class(self, tmp_path):
        p = tmp_path / "feat.csv"
        p.write_text("0,0,0\n1,0,2\n")
        ground, omegas = load_features_csv(p, 3)
        assert ground.n == 2
        assert all(0 not in omega for omega in omegas)

    def test_shape(self, tmp_path):
        p = tmp_path / "feat.csv"
        p.write_text("\n".join("1,0,1" for _ in range(5)) + "\n")
        ground, omegas = load_features_csv(p, 3)
        assert ground.n == 5
        assert len(omegas) == 3

    def test_wrong_arity(self, tmp_path):
        p = tmp_path / "feat.csv"
        p.write_text("1,2\n")
        with pytest.raises(ValueError, match="line 1"):
            load_features_csv(p, 3)

    def test_negative_entry(self, tmp_path):
        p = tmp_path / "feat.csv"
        p.write_text("1,0,3\n1,-2,0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_features_csv(p, 3)


class TestBuildRegions:
    def _ground(self, coords):
        from twostage.core import GroundSet
        pts = tuple(Point(float(x), float(y)) for x, y in coords)
        return GroundSet(len(pts), pts)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        ground = self._ground(rng.uniform(0, 0.05, (50, 2)))
        a = build_regions(ground, 4, radius=0.01, cap=5, seed=3)
        b = build_regions(ground, 4, radius=0.01, cap=5, seed=3)
        assert a == b

    def test_degenerate_cap(self):
        rng = np.random.default_rng(1)
        ground = self._ground(rng.uniform(0, 0.01, (20, 2)))
        regions = build_regions(ground, 3, radius=10.0, cap=1, seed=0)
        assert all(len(r.members) == 1 for r in regions)

    def test_saturated_sampling(self):
        rng = np.random.default_rng(2)
        ground = self._ground(rng.uniform(0, 0.001, (100, 2)))
        regions = build_regions(ground, 3, radius=1.0, cap=10, seed=0)
        assert all(len(r.members) == 10 for r in regions)

    def test_exhausted_retries(self):
        ground = self._ground([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError, match="radius"):
            build_regions(ground, 1, radius=1e-9, cap=3, seed=0,
                          max_retries=20)


class TestRunExperiment:
    def test_greedy_matches_oracle_on_worked_instance(self, worked_instance):
        config = ExperimentConfig(objective="modular", n=3, m=2,
                                  ells=(2,), ks=(1,),
                                  algorithms=("greedy", "oracle"))
        rows = run_experiment(config, family=worked_instance)
        by_name = {r.algorithm: r for r in rows}
        assert by_name["greedy"].value == by_name["oracle"].value == 3.0

    def test_peak_storage_non_increasing_in_epsilon(self):
        config = ExperimentConfig(objective="coverage", n=30, m=3, seed=4,
                                  ells=(4,), ks=(2,),
                                  epsilons=(0.1, 0.5, 1.0),
                                  algorithms=("streaming",))
        rows = sorted(run_experiment(config), key=lambda r: r.epsilon)
        peaks = [r.peak_stored for r in rows]
        assert peaks == sorted(peaks, reverse=True)

    def test_empty_sweep_fails_before_work(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(ells=()))

    def test_infeasible_oracle_is_skipped_not_fatal(self):
        config = ExperimentConfig(objective="modular", n=20, m=2,
                                  ells=(5,), ks=(2,), oracle_budget=10,
                                  algorithms=("oracle", "greedy"))
        rows = run_experiment(config)
        by_name = {r.algorithm: r for r in rows}
        assert by_name["oracle"].skipped
        assert not by_name["greedy"].skipped

    def test_algorithms_run_once_per_axes_they_read(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return replacement_greedy(*args, **kwargs)

        monkeypatch.setattr(cli, "replacement_greedy", counting)
        config = ExperimentConfig(objective="coverage", n=12, m=3, seed=1,
                                  ells=(3,), ks=(2,), epsilons=(0.5, 1.0),
                                  machines=(1, 4), algorithms=("greedy",))
        rows = run_experiment(config)
        assert len(calls) == 1
        assert [(r.epsilon, r.M) for r in rows] == \
            [(0.5, 1), (0.5, 4), (1.0, 1), (1.0, 4)]
        assert len({r.evals for r in rows}) == 1 and rows[0].evals > 0
        assert len({(r.value, r.summary, r.per_function) for r in rows}) == 1

    def test_row_values_reproducible_from_sets(self):
        config = ExperimentConfig(objective="coverage", n=12, m=3, seed=1,
                                  ells=(3,), ks=(2,), machines=(2,),
                                  algorithms=("greedy", "streaming",
                                              "distributed", "fast"))
        from twostage.cli import _build_family
        rows = run_experiment(config)
        F = _build_family(config)
        for r in rows:
            sol = solution_from_sets(F, r.summary, r.per_function, r.ell, r.k)
            assert r.value == pytest.approx(evaluate_solution(F, sol), abs=1e-9)


class TestEmitReport:
    def _rows(self):
        config = ExperimentConfig(objective="modular", n=6, m=2, ells=(2,),
                                  ks=(1,), algorithms=("greedy",),
                                  timing=False)
        return run_experiment(config)

    def test_csv_shape(self, tmp_path):
        rows = self._rows()
        out = tmp_path / "r.csv"
        emit_report(rows, out, "csv")
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == "algorithm,ell,k,epsilon,M,seed,value,seconds,evals,peak_stored"

    def test_json_round_trips(self, tmp_path):
        rows = self._rows()
        out = tmp_path / "r.json"
        emit_report(rows, out, "json")
        assert load_report_json(out) == rows

    def test_solution_arrays_sorted(self, tmp_path):
        rows = self._rows()
        out = tmp_path / "r.json"
        emit_report(rows, out, "json")
        data = json.loads(out.read_text())
        for obj in data:
            assert obj["summary"] == sorted(obj["summary"])

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path / "r.csv", "csv")

    def test_pipeline_is_byte_deterministic_without_timing(self, tmp_path):
        config = ExperimentConfig(objective="coverage", n=12, m=2, seed=9,
                                  ells=(3,), ks=(2,), machines=(2,),
                                  algorithms=("greedy", "streaming", "fast"),
                                  timing=False)
        blobs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            emit_report(run_experiment(config), out, "json")
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestConfigFile:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# desk-scale sweep\n"
            "objective = coverage\n"
            "n = 12\n"
            "m = 3\n"
            "ells = 2, 3\n"
            "ks = 1\n"
            "algorithms = greedy, streaming\n"
            "timing = false\n")
        config = parse_config_file(cfg)
        assert config.objective == "coverage"
        assert config.ells == (2, 3)
        assert config.timing is False

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("flux_capacitor = 1\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg)

    def test_misspelt_boolean_names_its_line(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n = 12\ntiming = flase\n")
        with pytest.raises(ConfigError, match="line 2.*'flase'"):
            parse_config_file(cfg)

    @pytest.mark.parametrize("word, expected", [
        ("1", True), ("TRUE", True), ("Yes", True),
        ("0", False), ("False", False), ("nO", False)])
    def test_boolean_spellings(self, tmp_path, word, expected):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"timing = {word}\n")
        assert parse_config_file(cfg).timing is expected


class TestMain:
    def test_run_round_trip(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "report"
        cfg.write_text(
            "objective = modular\nn = 8\nm = 2\nells = 2\nks = 1\n"
            "algorithms = greedy, oracle\ntiming = false\n"
            f"output = {out}\n")
        assert main(["run", str(cfg)]) == 0
        rows = load_report_json(f"{out}.json")
        by_name = {r.algorithm: r for r in rows}
        assert by_name["greedy"].value <= by_name["oracle"].value + 1e-9
        assert (tmp_path / "report.csv").exists()

    def test_gen_synthetic_then_run(self, tmp_path):
        pts = tmp_path / "pts.csv"
        assert main(["gen-synthetic", "--kind", "points", "--n", "60",
                     "--seed", "1", "--out", str(pts)]) == 0
        out = tmp_path / "fac"
        assert main(["run", "--objective", "facility-csv",
                     "--dataset", str(pts), "--m", "3", "--ell", "3",
                     "--k", "2", "--radius", "0.05",
                     "--algorithms", "greedy,streaming", "--no-timing",
                     "--output", str(out)]) == 0
        rows = load_report_json(f"{out}.json")
        assert len(rows) == 2

    def test_oracle_subcommand(self, capsys):
        assert main(["oracle", "--objective", "modular", "--n", "6",
                     "--m", "2", "--ell", "2", "--k", "1"]) == 0
        assert "opt_value=" in capsys.readouterr().out

    def test_errors_exit_nonzero(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.cfg")]) == 1
        assert "error:" in capsys.readouterr().err
