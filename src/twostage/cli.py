"""Data ingestion, experiment orchestration, and reporting.

The CLI exposes three subcommands:

* ``run``    — execute the sweep described by a flat key=value config file
* ``oracle`` — brute-force a small instance and print the optimum
* ``gen-synthetic`` — write a synthetic points/features CSV for later runs

Reports are emitted as CSV (fixed column order) and/or JSON (same fields
plus the solution sets as sorted id arrays).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from itertools import product
from pathlib import Path
from typing import Sequence

import numpy as np

from . import oracle as oracle_mod
from .core import GroundSet, ObjectiveFamily, _check_alpha, _check_seed
from .distributed import distributed_fast, replacement_distributed
from .greedy import replacement_greedy
from .objectives import (Point, Region, exemplar_family, facility_family,
                         make_synthetic)
from .streaming import ThresholdManager, _check_epsilon, _check_grid

OBJECTIVES = ("modular", "coverage", "facility", "facility-csv",
              "exemplar-csv")
ALGORITHMS = ("greedy", "streaming", "distributed", "fast", "oracle")
# The sweep axes each algorithm reads besides (ell, k); the others it ignores.
AXES_READ = {"greedy": (), "streaming": ("epsilon",), "distributed": ("M",),
             "fast": ("epsilon", "M"), "oracle": ()}
CSV_COLUMNS = ("algorithm", "ell", "k", "epsilon", "M", "seed", "value",
               "seconds", "evals", "peak_stored")
# A skipped run writes these columns empty.
_RESULT_COLUMNS = frozenset(CSV_COLUMNS[CSV_COLUMNS.index("value"):])


# Centers build_regions draws for one region before it gives up.
REGION_RETRIES = 100


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    objective: str = "modular"        # one of OBJECTIVES
    dataset: str | None = None
    class_count: int = 20
    n: int = 50
    m: int = 3
    ells: tuple = (3,)
    ks: tuple = (2,)
    epsilons: tuple = (0.5,)
    machines: tuple = (2,)
    alpha: float = 1.0
    seed: int = 0
    radius: float = 0.009             # about 1 km in coordinate degrees
    cap: int = 10
    algorithms: tuple = ("greedy", "streaming")
    oracle_budget: int = oracle_mod.DEFAULT_BUDGET
    output: str = "report"
    formats: tuple = ("csv", "json")
    timing: bool = True               # off -> seconds written as 0 for reproducible reports

    def validate(self):
        for name in ("ells", "ks", "epsilons", "machines", "algorithms"):
            if not getattr(self, name):
                raise ConfigError(f"sweep axis {name!r} is empty")
        for v in (*self.ells, *self.ks, *self.machines, self.oracle_budget):
            if v < 1:
                raise ConfigError("ell, k, M and oracle_budget must be >= 1")
        if min(self.ks) > max(self.ells):  # then no (ell, k) has k <= ell
            raise ConfigError(
                f"per-function budget k={','.join(map(str, self.ks))} "
                f"cannot exceed ell={','.join(map(str, self.ells))}")
        try:
            _check_seed(self.seed)
            for e in self.epsilons:
                _check_epsilon(e, max(self.ells))
            _check_alpha(self.alpha)
            if {"streaming", "fast"} & set(self.algorithms):
                # the largest ell that some k fits has the largest grid
                ell = max(e for e in self.ells if e >= min(self.ks))
                m = (self.class_count if self.objective == "exemplar-csv"
                     else self.m)
                for e in self.epsilons:
                    _check_grid(e, m, ell)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"unknown objective {self.objective!r}")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {a!r}")
        for f in self.formats:
            if f not in ("csv", "json"):
                raise ConfigError(f"unknown report format {f!r}")
        if self.objective.endswith("-csv") and not self.dataset:
            raise ConfigError(f"objective {self.objective!r} needs a dataset path")


@dataclass
class ReportRow:
    algorithm: str
    ell: int
    k: int
    epsilon: float
    M: int
    seed: int
    value: float
    seconds: float
    evals: int
    peak_stored: int
    summary: tuple = ()
    per_function: tuple = ()
    skipped: bool = False

    def to_jsonable(self) -> dict:
        """The fields in declaration order, which is the JSON key order."""
        return asdict(self)

    @classmethod
    def from_jsonable(cls, obj: dict) -> "ReportRow":
        return cls(**{f.name: _tuples(obj[f.name]) for f in fields(cls)})


def _tuples(value):
    """``value`` with its JSON arrays, nested ones too, turned into tuples."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


# ---------------------------------------------------------------------------
# ingestion

def _csv_lines(path, columns: int, header: str | None = None) -> list:
    """(line number, fields) of each data line of ``path``, skipping blank
    lines and a first line that reads ``header`` once lowercased and unspaced.
    Raises ValueError naming a line of another width, or on no data line."""
    lines = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or ln == 1 and line.lower().replace(" ", "") == header:
                continue
            parts = line.split(",")
            if len(parts) != columns:
                raise ValueError(f"{path}: line {ln}: expected {columns} "
                                 f"columns, got {len(parts)}")
            lines.append((ln, parts))
    if not lines:
        raise ValueError(f"{path}: no data rows")
    return lines


def load_points_csv(path) -> GroundSet:
    """Read lat,lon rows into a point ground set; ids follow row order."""
    points = []
    for ln, parts in _csv_lines(path, 2, header="lat,lon"):
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"{path}: line {ln}: cannot parse "
                             f"{','.join(parts)!r} as two floats") from None
        if not (np.isfinite(x) and np.isfinite(y)):
            raise ValueError(f"{path}: line {ln}: non-finite coordinate")
        points.append(Point(x, y))
    return GroundSet(len(points), tuple(points))


def load_features_csv(path, class_count: int):
    """Read per-element class-count vectors; returns (ground, per-class members).

    Element e belongs to class i's member list when its vector has a positive
    count at position i.
    """
    rows = []
    for ln, parts in _csv_lines(path, class_count):
        try:
            vec = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"{path}: line {ln}: non-integer entry") from None
        if any(v < 0 for v in vec):
            raise ValueError(f"{path}: line {ln}: negative count")
        rows.append(vec)
    vectors = np.array(rows, dtype=float)
    omegas = [np.flatnonzero(vectors[:, i] > 0).tolist()
              for i in range(class_count)]
    return GroundSet(len(rows), vectors), omegas


def build_regions(points: GroundSet, m: int, radius: float, cap: int,
                  seed: int) -> list:
    """m seeded demand regions, each up to ``cap`` points within ``radius`` of a
    uniformly drawn center."""
    if m < 1 or not radius > 0 or cap < 1:
        raise ValueError("need m >= 1, radius > 0, cap >= 1")
    pts = points.payload
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    rng = np.random.default_rng(seed)
    regions = []
    for _ in range(m):
        for _attempt in range(REGION_RETRIES):
            center = Point(float(rng.uniform(min(xs), max(xs))),
                           float(rng.uniform(min(ys), max(ys))))
            near = [e for e, p in enumerate(pts)
                    if abs(p.x - center.x) + abs(p.y - center.y) <= radius]
            if near:
                take = min(cap, len(near))
                chosen = sorted(int(c) for c in
                                rng.choice(len(near), size=take, replace=False))
                regions.append(Region(tuple(pts[near[c]] for c in chosen)))
                break
        else:
            raise ValueError(
                f"no points within radius {radius} of {REGION_RETRIES} sampled "
                "centers; try a larger radius")
    return regions


# ---------------------------------------------------------------------------
# experiment orchestration

def _build_family(config: ExperimentConfig) -> ObjectiveFamily:
    if config.objective in ("modular", "coverage", "facility"):
        return make_synthetic(config.objective, config.n, config.m, config.seed)
    if config.objective == "facility-csv":
        ground = load_points_csv(config.dataset)
        regions = build_regions(ground, config.m, config.radius, config.cap,
                                config.seed)
        return facility_family(ground.payload, regions)
    # exemplar-csv: validate() admits no other objective
    ground, _ = load_features_csv(config.dataset, config.class_count)
    return exemplar_family(ground.payload, config.class_count)


def _run_algorithm(name: str, F: ObjectiveFamily, ell: int, k: int,
                   epsilon: float, M: int, config: ExperimentConfig):
    """Returns (solution, peak_stored); the oracle raises OracleBudgetError
    when the instance is above ``config.oracle_budget``."""
    if name == "greedy":
        return replacement_greedy(F, F.ground.elements(), ell, k), 0
    if name == "streaming":
        mgr = ThresholdManager(F, epsilon, ell, k, alpha=config.alpha)
        order = list(F.ground.elements())
        np.random.default_rng(config.seed).shuffle(order)
        mgr.run(order)
        return mgr.best_solution(), mgr.peak_stored
    if name == "distributed":
        return replacement_distributed(F, M, ell, k, config.seed), 0
    if name == "fast":
        return distributed_fast(F, M, epsilon, ell, k, config.seed,
                                alpha=config.alpha), 0
    # oracle: validate() admits no other algorithm
    return oracle_mod.brute_force_opt(
        F, ell, k, max_evaluations=config.oracle_budget), 0


def run_experiment(config: ExperimentConfig,
                   family: ObjectiveFamily | None = None) -> list:
    """Execute the config's sweep; ``family`` overrides dataset construction.

    Each algorithm runs once per distinct ``(ell, k)`` and value of the axes
    it reads (``AXES_READ``); the sweep points that differ only in axes it
    ignores get a copy of that run's row.
    """
    config.validate()
    F = family if family is not None else _build_family(config)
    rows = []
    runs = {}  # (algorithm, ell, k, values of the axes it reads) -> row
    for ell, k, epsilon, M in product(config.ells, config.ks,
                                      config.epsilons, config.machines):
        if k > ell:
            continue
        point = {"epsilon": epsilon, "M": M}
        for name in config.algorithms:
            key = (name, ell, k, *(point[a] for a in AXES_READ[name]))
            if key in runs:
                rows.append(replace(runs[key], epsilon=epsilon, M=M))
                continue
            evals_before = F.evals
            start = time.perf_counter()
            try:
                sol, peak = _run_algorithm(name, F, ell, k, epsilon, M, config)
            except oracle_mod.OracleBudgetError:
                row = ReportRow(name, ell, k, epsilon, M, config.seed,
                                0.0, 0.0, 0, 0, skipped=True)
            else:
                seconds = time.perf_counter() - start if config.timing else 0.0
                row = ReportRow(
                    name, ell, k, epsilon, M, config.seed, sol.value, seconds,
                    F.evals - evals_before, peak,
                    summary=tuple(sorted(sol.summary)),
                    per_function=tuple(tuple(sorted(t))
                                       for t in sol.per_function))
            runs[key] = row
            rows.append(row)
    rows.sort(key=lambda r: (r.algorithm, r.ell, r.k, r.epsilon, r.M))
    return rows


def emit_report(rows: Sequence[ReportRow], path, fmt: str):
    if not rows:
        raise ValueError("no rows to report")
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in rows:
                writer.writerow(["" if r.skipped and c in _RESULT_COLUMNS
                                 else getattr(r, c) for c in CSV_COLUMNS])
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump([r.to_jsonable() for r in rows], fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def load_report_json(path) -> list:
    with open(path) as fh:
        return [ReportRow.from_jsonable(obj) for obj in json.load(fh)]


# ---------------------------------------------------------------------------
# config files and argument parsing

def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/0, true/false or yes/no, got {text!r}")


def _field_parser(default):
    """The parser of a config field's value, read off the field's default; a
    tuple default makes a comma-separated list of its first element's type."""
    if isinstance(default, tuple):
        parse = _field_parser(default[0])

        def parse_list(text: str) -> tuple:
            return tuple(parse(p.strip()) for p in text.split(","))
        parse_list.__name__ = f"{parse.__name__} list"  # argparse reports it
        return parse_list
    if isinstance(default, bool):
        return _parse_bool
    return str if default is None else type(default)


_PARSERS = {f.name: _field_parser(f.default) for f in fields(ExperimentConfig)}
# Flags are --field-name, --no-field-name for booleans, or these singulars.
_FLAGS = {"ells": "--ell", "ks": "--k", "epsilons": "--epsilon",
          "formats": "--format"}


def parse_config_file(path) -> ExperimentConfig:
    """Flat ``key = value`` lines; list fields take comma-separated values."""
    values, line_of = {}, {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {ln}: expected key = value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _PARSERS:
                raise ConfigError(f"{path}: line {ln}: unknown key {key!r}")
            if key in line_of:
                raise ConfigError(f"{path}: line {ln}: key {key!r} is already "
                                  f"set on line {line_of[key]}")
            line_of[key] = ln
            try:
                values[key] = _PARSERS[key](val)
            except ValueError as exc:
                raise ConfigError(f"{path}: line {ln}: {exc}") from exc
    return ExperimentConfig(**values)


def _apply_overrides(config: ExperimentConfig,
                     args: argparse.Namespace) -> ExperimentConfig:
    return replace(config, **{name: getattr(args, name) for name in _PARSERS
                              if getattr(args, name) is not None})


def _add_override_flags(p: argparse.ArgumentParser):
    for name, parse in _PARSERS.items():
        flag = _FLAGS.get(name, "--" + name.replace("_", "-"))
        if parse is _parse_bool:
            p.add_argument("--no-" + flag[2:], dest=name,
                           action="store_const", const=False)
        else:
            p.add_argument(flag, dest=name, type=parse)


def _cmd_run(args) -> int:
    config = parse_config_file(args.config) if args.config else ExperimentConfig()
    config = _apply_overrides(config, args)
    rows = run_experiment(config)
    for fmt in config.formats:
        out = Path(f"{config.output}.{fmt}")
        emit_report(rows, out, fmt)
        print(f"wrote {out}")
    return 0


def _cmd_oracle(args) -> int:
    config = _apply_overrides(ExperimentConfig(), args)
    config.validate()
    if len(config.ells) > 1 or len(config.ks) > 1:
        raise ConfigError(
            "oracle solves one (ell, k), got ell="
            f"{','.join(map(str, config.ells))} and k="
            f"{','.join(map(str, config.ks))}")
    F = _build_family(config)
    ell, k = config.ells[0], config.ks[0]
    res = oracle_mod.brute_force_opt(F, ell, k,
                                     max_evaluations=config.oracle_budget)
    print(f"opt_value={res.value!r}")
    print(f"summary={sorted(res.summary)}")
    for i, t in enumerate(res.per_function):
        print(f"T[{i}]={sorted(t)}")
    return 0


def _cmd_gen_synthetic(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be at least 1, got {args.n}")
    if args.kind == "features" and args.class_count < 1:
        raise ConfigError(
            f"--class-count must be at least 1, got {args.class_count}")
    _check_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    out = Path(args.out)
    if args.kind == "points":
        coords = rng.uniform(0.0, 0.03, size=(args.n, 2))
        lines = ["lat,lon"] + [f"{float(x)!r},{float(y)!r}" for x, y in coords]
    else:
        counts = rng.integers(0, 3, size=(args.n, args.class_count))
        # guarantee every class has at least one member
        for i in range(args.class_count):
            if not counts[:, i].any():
                counts[int(rng.integers(args.n)), i] = 1
        lines = [",".join(map(str, row)) for row in counts.tolist()]
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twostage",
        description="Two-stage submodular maximization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the sweep described by a config file")
    p_run.add_argument("config", nargs="?", help="flat key=value config file")
    _add_override_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="brute-force a small instance")
    _add_override_flags(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_gen = sub.add_parser("gen-synthetic", help="write a synthetic CSV dataset")
    p_gen.add_argument("--kind", choices=("points", "features"), default="points")
    p_gen.add_argument("--n", type=int, default=100)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--class-count", dest="class_count", type=int, default=20)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen_synthetic)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, oracle_mod.OracleBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
