import hashlib
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from twostage import cli
from twostage.cli import (ConfigError, ExperimentConfig, build_regions,
                          emit_report, load_points_csv, load_features_csv,
                          load_report_json, main, parse_config_file,
                          run_experiment)
from twostage.core import evaluate_solution, solution_from_sets
from twostage.distributed import distributed_fast
from twostage.greedy import replacement_greedy
from twostage.objectives import Point, exemplar_family, make_synthetic
from twostage.streaming import InstanceBudgetError, ThresholdManager

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

    @pytest.mark.parametrize("coordinate", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_names_its_line(self, tmp_path, coordinate):
        p = tmp_path / "pts.csv"
        p.write_text(f"lat,lon\n1.0,2.0\n3.0,{coordinate}\n")
        with pytest.raises(ValueError, match="line 3: non-finite coordinate"):
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

    def test_members_follow_the_positive_count_rule(self, tmp_path):
        # an all-zero row (0 and 4), a row in three classes, one in all four
        rows = [[0, 0, 0, 0], [2, 0, 1, 3], [0, 1, 0, 0], [1, 1, 1, 1],
                [0, 0, 0, 0]]
        p = tmp_path / "feat.csv"
        p.write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
        _, omegas = load_features_csv(p, 4)
        assert omegas == [[e for e, r in enumerate(rows) if r[i] > 0]
                          for i in range(4)]
        assert all(type(e) is int for omega in omegas for e in omega)

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

    @pytest.mark.parametrize("entry", ["x", "1.5", ""])
    def test_non_integer_entry_names_its_line(self, tmp_path, entry):
        p = tmp_path / "feat.csv"
        p.write_text(f"1,0,3\n1,{entry},0\n")
        with pytest.raises(ValueError, match="line 2: non-integer entry"):
            load_features_csv(p, 3)


@pytest.mark.parametrize("load, good, bad", [
    (load_points_csv, "1.0,2.0", "1.0,2.0,3.0"),
    (lambda path: load_features_csv(path, 3)[0], "1,0,2", "1,0"),
], ids=["points", "features"])
def test_loaders_skip_blank_lines_and_name_bad_ones(tmp_path, load, good, bad):
    p = tmp_path / "data.csv"
    p.write_text(f"\n{good}\n  \n{good}\n\n")
    assert load(p).n == 2
    p.write_text(f"{good}\n\n{bad}\n")
    with pytest.raises(ValueError, match="line 3: expected"):
        load(p)
    p.write_text("\n \n")
    with pytest.raises(ValueError, match="no data rows"):
        load(p)


def test_points_header_only_has_no_data_rows(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("Lat, Lon\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_points_csv(p)


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
            build_regions(ground, 1, radius=1e-9, cap=3, seed=0)

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
    def test_non_positive_radius_fails_before_any_draw(self, radius):
        ground = self._ground([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError, match="radius > 0"):
            build_regions(ground, 1, radius=radius, cap=3, seed=0)


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

    def test_nan_epsilon_fails_before_work(self):
        with pytest.raises(ConfigError, match="epsilon"):
            run_experiment(ExperimentConfig(epsilons=(0.5, float("nan"))))

    @pytest.mark.parametrize("field, value, message", [
        ("objective", "foo", "unknown objective 'foo'"),
        ("algorithms", ("greedy", "bogus"), "unknown algorithm 'bogus'"),
        ("formats", ("csv", "xml"), "unknown report format 'xml'"),
    ])
    def test_unknown_name_fails_before_any_family_is_built(
            self, monkeypatch, field, value, message):
        def build(config):
            raise AssertionError("built a family")

        monkeypatch.setattr(cli, "_build_family", build)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_experiment(ExperimentConfig(**{field: value}))

    @pytest.mark.parametrize("epsilon", [float("inf"), 1e308])
    def test_overflowing_epsilon_fails_before_any_family_is_built(
            self, monkeypatch, epsilon):
        def build(config):
            raise AssertionError("built a family")

        monkeypatch.setattr(cli, "_build_family", build)
        with pytest.raises(ConfigError, match="epsilon"):
            run_experiment(ExperimentConfig(epsilons=(0.5, epsilon)))

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

    @pytest.mark.parametrize("algorithm", ["streaming", "fast"])
    def test_alpha_reaches_the_solver(self, algorithm):
        # at alpha=50 both solvers keep less than at the default alpha=1
        config = ExperimentConfig(objective="coverage", n=30, m=3, seed=0,
                                  ells=(4,), ks=(2,), epsilons=(0.5,),
                                  machines=(2,), alpha=50.0,
                                  algorithms=(algorithm,))
        [row] = run_experiment(config)
        F = make_synthetic("coverage", 30, 3, 0)
        before = F.evals
        if algorithm == "streaming":
            mgr = ThresholdManager(F, 0.5, 4, 2, alpha=50.0)
            order = list(range(30))
            np.random.default_rng(0).shuffle(order)
            mgr.run(order)
            sol = mgr.best_solution()
        else:
            sol = distributed_fast(F, 2, 0.5, 4, 2, 0, alpha=50.0)
        assert (row.value, row.evals) == (sol.value, F.evals - before)
        assert row.summary == tuple(sorted(sol.summary))
        assert row.value != run_experiment(replace(config, alpha=1.0))[0].value

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
    def test_bad_alpha_fails_before_any_family_is_built(self, monkeypatch,
                                                         alpha):
        def build(config):
            raise AssertionError("built a family")

        monkeypatch.setattr(cli, "_build_family", build)
        with pytest.raises(ConfigError, match="alpha"):
            run_experiment(ExperimentConfig(alpha=alpha))

    def test_infinite_alpha_fails_before_any_family_is_built(
            self, monkeypatch):
        def build(config):
            raise AssertionError("built a family")

        monkeypatch.setattr(cli, "_build_family", build)
        with pytest.raises(ConfigError, match="alpha must be positive and "
                                             "finite, got inf"):
            run_experiment(ExperimentConfig(alpha=float("inf")))

    @pytest.mark.parametrize("ells, ks", [((2,), (3,)), ((2, 3), (4, 5)),
                                          ((1, 2), (3,))])
    def test_sweep_without_a_feasible_budget_fails_before_any_family_is_built(
            self, monkeypatch, ells, ks):
        def build(config):
            raise AssertionError("built a family")

        monkeypatch.setattr(cli, "_build_family", build)
        message = (f"per-function budget k={','.join(map(str, ks))} "
                   f"cannot exceed ell={','.join(map(str, ells))}")
        with pytest.raises(ConfigError, match=message):
            run_experiment(ExperimentConfig(ells=ells, ks=ks))

    @pytest.mark.parametrize("objective, m, class_count, epsilon, ell", [
        ("facility", 5, 20, 1e-6, 10),
        # m is the class count: 80 classes times 5015 instances times
        # ell=25 is above MAX_INSTANCE_SLOTS; m=3 would be below it
        ("exemplar-csv", 3, 80, 1e-3, 25)])
    @pytest.mark.parametrize("algorithm", ["streaming", "fast"])
    def test_oversized_grid_fails_before_any_family_is_built(
            self, monkeypatch, objective, m, class_count, epsilon, ell,
            algorithm):
        def build(config):
            raise AssertionError("built a family")

        monkeypatch.setattr(cli, "_build_family", build)
        config = ExperimentConfig(
            objective=objective, dataset="features.csv", m=m,
            class_count=class_count, ells=(2, ell), ks=(3,),
            epsilons=(0.5, epsilon), algorithms=("greedy", algorithm))
        with pytest.raises(InstanceBudgetError) as exc:
            ThresholdManager(make_synthetic("modular", 2, class_count
                                            if objective == "exemplar-csv"
                                            else m, 0), epsilon, ell, 3)
        with pytest.raises(ConfigError) as got:
            run_experiment(config)
        assert str(got.value) == str(exc.value)
        # without a threshold grid in the sweep the same epsilon is fine
        replace(config, algorithms=("greedy", "distributed")).validate()

    def test_sweep_with_one_feasible_budget_runs_it_alone(self):
        config = ExperimentConfig(objective="modular", n=10, m=2, ells=(2, 3),
                                  ks=(3,), algorithms=("greedy",))
        assert [(r.ell, r.k) for r in run_experiment(config)] == [(3, 3)]

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

    def test_rejects_an_unknown_format_without_writing(self, tmp_path):
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            emit_report(self._rows(), tmp_path / "r.xml", "xml")
        assert list(tmp_path.iterdir()) == []

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

    def test_line_without_equals_names_its_line(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# sweep\nn = 12\nell 3\n")
        with pytest.raises(ConfigError, match="line 3: expected key = value"):
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

    def test_key_given_twice_names_both_lines(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n = 12\nm = 3\n\nn = 14\n")
        with pytest.raises(ConfigError, match="line 4: key 'n'.*line 1"):
            parse_config_file(cfg)

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_oracle_budget_below_one_is_an_error(self, tmp_path, capsys,
                                                 budget):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "report"
        cfg.write_text(f"algorithms = oracle\noracle_budget = {budget}\n"
                       f"output = {out}\n")
        assert main(["run", str(cfg)]) == 1
        assert "oracle_budget" in capsys.readouterr().err
        assert not list(tmp_path.glob("report.*"))


# Each config field's file value, its flag and the value both must give.
SPELLINGS = {
    "objective": ("--objective", "coverage", "coverage"),
    "dataset": ("--dataset", "feat.csv", "feat.csv"),
    "class_count": ("--class-count", "7", 7),
    "n": ("--n", "12", 12),
    "m": ("--m", "4", 4),
    "ells": ("--ell", "2,5", (2, 5)),
    "ks": ("--k", "1,3", (1, 3)),
    "epsilons": ("--epsilon", "0.25,1", (0.25, 1.0)),
    "machines": ("--machines", "1,4", (1, 4)),
    "alpha": ("--alpha", "0.5", 0.5),
    "seed": ("--seed", "9", 9),
    "radius": ("--radius", "0.02", 0.02),
    "cap": ("--cap", "3", 3),
    "algorithms": ("--algorithms", "fast,oracle", ("fast", "oracle")),
    "oracle_budget": ("--oracle-budget", "1000", 1000),
    "output": ("--output", "out/sweep", "out/sweep"),
    "formats": ("--format", "json", ("json",)),
}


@pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)
                                  if f.name != "timing"])
def test_every_config_key_has_a_flag(tmp_path, name):
    flag, text, value = SPELLINGS[name]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{name} = {text}\n")
    args = cli.build_parser().parse_args(["run", flag, text])
    expected = replace(ExperimentConfig(), **{name: value})
    assert expected != ExperimentConfig()
    assert parse_config_file(cfg) == expected
    assert cli._apply_overrides(ExperimentConfig(), args) == expected


def test_bad_flag_value_is_named_by_its_type(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--ell", "3,x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--ell" in err and "int list" in err and "<lambda>" not in err


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

    @pytest.mark.parametrize("n,classes,seed,sha256", [
        (160, 20, 7,
         "4c4cb255f3e5223aeb25ca37a89b96df867b023dae000f99decd8dd176a15ed1"),
        # two of the 20 columns draw no member and get one assigned
        (3, 20, 3,
         "97c0e1f71144a6010997b287fb597c3c955b2cec07e2a0944cdf627261a3eb2f"),
    ])
    def test_gen_synthetic_features_file_is_pinned(self, tmp_path, n, classes,
                                                   seed, sha256):
        out = tmp_path / "feat.csv"
        assert main(["gen-synthetic", "--kind", "features", "--n", str(n),
                     "--class-count", str(classes), "--seed", str(seed),
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
        ground, omegas = load_features_csv(out, classes)
        assert ground.n == n
        assert all(omegas)

    @pytest.mark.parametrize("flags, named", [
        (["--kind", "points", "--n", "0"], "--n"),
        (["--kind", "points", "--n", "-3"], "--n"),
        (["--kind", "features", "--n", "0"], "--n"),
        (["--kind", "features", "--n", "4", "--class-count", "0"],
         "--class-count"),
    ])
    def test_gen_synthetic_refuses_empty_data(self, tmp_path, capsys, flags,
                                              named):
        out = tmp_path / "data.csv"
        assert main(["gen-synthetic", *flags, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {named} must be at least 1")
        assert not out.exists()

    @pytest.mark.parametrize("extra, csv_sha256, json_sha256", [
        ([], "ce72c65ccebe76a405c5985f23755b692b6684a8c9dcdd1aea74764f932fe7cc",
         "ff9cc5baa259f4ae60e1d05610d50c4d9d39cad920ce4d87703c86ecc0b2dada"),
        # four oracle runs exceed this budget and are written as skipped rows
        (["--oracle-budget", "20000"],
         "e26063c36a26afb5a392f98a22c1defd981b45b1c5985f18c6167c99ffb210cb",
         "d15e4a72b8e7d2b7ae1aa5cc717bf9bd2ebda1fb09962267d0e2dc9df8c72a48"),
    ], ids=["all-run", "oracle-skips"])
    def test_sweep_report_bytes_are_pinned(self, tmp_path, extra, csv_sha256,
                                           json_sha256):
        out = tmp_path / "report"
        assert main(["run", "--objective", "coverage", "--n", "14",
                     "--m", "3", "--ell", "3,4", "--k", "1,2",
                     "--epsilon", "0.5,1.0", "--machines", "1,3",
                     "--algorithms", "greedy,streaming,distributed,fast,oracle",
                     "--no-timing", "--output", str(out), *extra]) == 0
        for fmt, sha256 in (("csv", csv_sha256), ("json", json_sha256)):
            blob = (tmp_path / f"report.{fmt}").read_bytes()
            assert hashlib.sha256(blob).hexdigest() == sha256

    def test_oracle_subcommand(self, capsys):
        assert main(["oracle", "--objective", "modular", "--n", "6",
                     "--m", "2", "--ell", "2", "--k", "1"]) == 0
        assert "opt_value=" in capsys.readouterr().out

    @pytest.mark.parametrize("ell,k", [("3,2", "2,1"), ("3", "2,1"),
                                        ("3,2", "1")])
    def test_oracle_refuses_a_sweep(self, capsys, monkeypatch, ell, k):
        def unbuilt(config):
            raise AssertionError("family built for a refused sweep")
        monkeypatch.setattr(cli, "_build_family", unbuilt)
        assert main(["oracle", "--objective", "modular", "--n", "6",
                     "--m", "2", "--ell", ell, "--k", k]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: oracle solves one (ell, k), "
                                f"got ell={ell} and k={k}\n")

    def test_oracle_prints_one_optimum(self, capsys):
        assert main(["oracle", "--objective", "modular", "--n", "6",
                     "--m", "2", "--ell", "3", "--k", "2"]) == 0
        assert capsys.readouterr().out == (
            "opt_value=1.7384758971936471\nsummary=[3, 4, 5]\n"
            "T[0]=[4, 5]\nT[1]=[3, 4]\n")

    def test_oracle_budgets_above_n(self, capsys):
        assert main(["oracle", "--objective", "modular", "--n", "5",
                     "--m", "2", "--ell", "2000", "--k", "2000"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("opt_value=")
        assert "summary=[0, 1, 2, 3, 4]\n" in out

    def test_oracle_refuses_k_above_ell(self, capsys):
        assert main(["oracle", "--objective", "modular", "--n", "5",
                     "--m", "2", "--ell", "2", "--k", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: per-function budget k=3 cannot exceed ell=2\n")

    @pytest.mark.parametrize("epsilon", ["inf", "1e308"])
    def test_run_refuses_an_overflowing_epsilon(self, capsys, epsilon):
        assert main(["run", "--objective", "modular", "--n", "5", "--m", "2",
                     "--epsilon", epsilon, "--algorithms", "streaming"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: epsilon must be positive")
        assert "Traceback" not in captured.err

    def test_run_refuses_an_infinite_alpha(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(["run", "--objective", "modular", "--n", "10", "--m", "2",
                     "--alpha", "inf", "--algorithms", "streaming",
                     "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: alpha must be positive and finite, "
                                "got inf\n")
        assert list(tmp_path.iterdir()) == []

    def test_run_refuses_k_above_every_ell(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(["run", "--objective", "modular", "--n", "10", "--m", "2",
                     "--ell", "2", "--k", "3", "--algorithms", "greedy",
                     "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: per-function budget k=3 cannot exceed ell=2\n")
        assert list(tmp_path.iterdir()) == []

    def test_run_refuses_an_oversized_grid_before_greedy(
            self, monkeypatch, tmp_path, capsys):
        def greedy(*args, **kwargs):
            raise AssertionError("ran greedy")

        monkeypatch.setattr(cli, "replacement_greedy", greedy)
        out = tmp_path / "report"
        assert main(["run", "--objective", "facility", "--n", "1500",
                     "--m", "5", "--ell", "10", "--k", "3",
                     "--epsilon", "1e-6", "--algorithms", "greedy,streaming",
                     "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: epsilon=1e-06 allows 4094348 threshold instances; times "
            "m=5 and ell=10 that is 204717400 slots, above the limit of "
            "10000000\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_negative_seed_is_refused_before_any_family_is_built(
            self, monkeypatch, tmp_path, capsys, command):
        # unchecked, greedy ran and streaming's shuffle then failed with
        # numpy's "expected non-negative integer", which names no key
        def unbuilt(config):
            raise AssertionError("family built for a refused config")
        monkeypatch.setattr(cli, "_build_family", unbuilt)
        data = tmp_path / "features.csv"
        data.write_text("1,0,2,1\n0,1,1,2\n2,2,0,1\n")
        assert main([command, "--objective", "exemplar-csv",
                     "--dataset", str(data), "--class-count", "4",
                     "--seed", "-1", "--ell", "4", "--k", "2",
                     "--algorithms", "greedy,streaming",
                     "--output", str(tmp_path / "report")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == [data]

    def test_unknown_objective_is_refused_before_any_family_is_built(
            self, monkeypatch, tmp_path, capsys):
        def unbuilt(config):
            raise AssertionError("family built for a refused config")
        monkeypatch.setattr(cli, "_build_family", unbuilt)
        assert main(["run", "--objective", "foo",
                     "--output", str(tmp_path / "report")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown objective 'foo'\n"
        assert list(tmp_path.iterdir()) == []

    def test_gen_synthetic_refuses_a_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "pts.csv"
        assert main(["gen-synthetic", "--kind", "points", "--n", "5",
                     "--seed", "-1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    def test_exemplar_csv_run_equals_its_family(self, tmp_path):
        data = tmp_path / "features.csv"
        assert main(["gen-synthetic", "--kind", "features", "--n", "40",
                     "--class-count", "4", "--seed", "2",
                     "--out", str(data)]) == 0
        out = tmp_path / "report"
        assert main(["run", "--objective", "exemplar-csv",
                     "--dataset", str(data), "--class-count", "4",
                     "--ell", "4", "--k", "2", "--machines", "2",
                     "--algorithms", "greedy,streaming,distributed,fast",
                     "--no-timing", "--output", str(out)]) == 0
        config = ExperimentConfig(
            objective="exemplar-csv", dataset=str(data), class_count=4,
            ells=(4,), ks=(2,), machines=(2,),
            algorithms=("greedy", "streaming", "distributed", "fast"),
            timing=False)
        vectors = np.loadtxt(data, delimiter=",", ndmin=2)
        assert load_report_json(f"{out}.json") == run_experiment(
            config, family=exemplar_family(vectors, 4))

    def test_oracle_validates_its_config(self, capsys):
        assert main(["oracle", "--objective", "exemplar-csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dataset" in err
        assert "Traceback" not in err

    def test_errors_exit_nonzero(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.cfg")]) == 1
        assert "error:" in capsys.readouterr().err
