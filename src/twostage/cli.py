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
from dataclasses import dataclass, fields, replace
from itertools import product
from pathlib import Path
from typing import Sequence

import numpy as np

from . import oracle as oracle_mod
from .core import GroundSet, ObjectiveFamily
from .distributed import distributed_fast, replacement_distributed
from .greedy import replacement_greedy
from .objectives import (Point, Region, exemplar_family, facility_family,
                         make_synthetic)
from .streaming import ThresholdManager

ALGORITHMS = ("greedy", "streaming", "distributed", "fast", "oracle")
# The sweep axes each algorithm reads besides (ell, k); the others it ignores.
AXES_READ = {"greedy": (), "streaming": ("epsilon",), "distributed": ("M",),
             "fast": ("epsilon", "M"), "oracle": ()}
CSV_COLUMNS = ("algorithm", "ell", "k", "epsilon", "M", "seed", "value",
               "seconds", "evals", "peak_stored")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    objective: str = "modular"        # modular | coverage | facility | facility-csv | exemplar-csv
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
        for v in (*self.ells, *self.ks, *self.machines):
            if v < 1:
                raise ConfigError("budgets and machine counts must be >= 1")
        for e in self.epsilons:
            if e <= 0:
                raise ConfigError("epsilon must be positive")
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
        return {
            "algorithm": self.algorithm, "ell": self.ell, "k": self.k,
            "epsilon": self.epsilon, "M": self.M, "seed": self.seed,
            "value": self.value, "seconds": self.seconds,
            "evals": self.evals, "peak_stored": self.peak_stored,
            "summary": list(self.summary),
            "per_function": [list(t) for t in self.per_function],
            "skipped": self.skipped,
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "ReportRow":
        return cls(obj["algorithm"], obj["ell"], obj["k"], obj["epsilon"],
                   obj["M"], obj["seed"], obj["value"], obj["seconds"],
                   obj["evals"], obj["peak_stored"],
                   tuple(obj["summary"]),
                   tuple(tuple(t) for t in obj["per_function"]),
                   obj["skipped"])


# ---------------------------------------------------------------------------
# ingestion

def load_points_csv(path) -> GroundSet:
    """Read lat,lon rows into a point ground set; ids follow row order."""
    points = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if ln == 1 and line.lower().replace(" ", "") == "lat,lon":
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {ln}: expected two columns")
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(f"{path}: line {ln}: cannot parse {line!r} "
                                 "as two floats") from None
            if not (np.isfinite(x) and np.isfinite(y)):
                raise ValueError(f"{path}: line {ln}: non-finite coordinate")
            points.append(Point(x, y))
    if not points:
        raise ValueError(f"{path}: no data rows")
    return GroundSet(len(points), tuple(points))


def load_features_csv(path, class_count: int):
    """Read per-element class-count vectors; returns (ground, per-class members).

    Element e belongs to class i's member list when its vector has a positive
    count at position i.
    """
    rows = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != class_count:
                raise ValueError(f"{path}: line {ln}: expected {class_count} "
                                 f"columns, got {len(parts)}")
            try:
                vec = [int(p) for p in parts]
            except ValueError:
                raise ValueError(f"{path}: line {ln}: non-integer entry") from None
            if any(v < 0 for v in vec):
                raise ValueError(f"{path}: line {ln}: negative count")
            rows.append(vec)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    vectors = np.array(rows, dtype=float)
    omegas = [[e for e in range(len(rows)) if vectors[e, i] > 0]
              for i in range(class_count)]
    return GroundSet(len(rows), vectors), omegas


def build_regions(points: GroundSet, m: int, radius: float, cap: int,
                  seed: int, max_retries: int = 100) -> list:
    """m seeded demand regions, each up to ``cap`` points within ``radius`` of a
    uniformly drawn center."""
    if m < 1 or radius <= 0 or cap < 1:
        raise ValueError("need m >= 1, radius > 0, cap >= 1")
    pts = points.payload
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    rng = np.random.default_rng(seed)
    regions = []
    for _ in range(m):
        for _attempt in range(max_retries):
            center = Point(float(rng.uniform(min(xs), max(xs))),
                           float(rng.uniform(min(ys), max(ys))))
            near = [e for e, p in enumerate(pts)
                    if abs(p.x - center.x) + abs(p.y - center.y) <= radius]
            if near:
                take = min(cap, len(near))
                chosen = sorted(int(c) for c in
                                rng.choice(len(near), size=take, replace=False))
                regions.append(Region(tuple(pts[near[c]] for c in chosen),
                                      center=center))
                break
        else:
            raise ValueError(
                f"no points within radius {radius} of {max_retries} sampled "
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
    if config.objective == "exemplar-csv":
        ground, _ = load_features_csv(config.dataset, config.class_count)
        return exemplar_family(ground.payload, config.class_count)
    raise ConfigError(f"unknown objective {config.objective!r}")


def _run_algorithm(name: str, F: ObjectiveFamily, ell: int, k: int,
                   epsilon: float, M: int, seed: int,
                   oracle_budget: int):
    """Returns (solution-or-None, peak_stored, skipped)."""
    ids = list(F.ground.elements())
    if name == "greedy":
        return replacement_greedy(F, ids, ell, k), 0, False
    if name == "streaming":
        mgr = ThresholdManager(F, epsilon, ell, k)
        order = list(ids)
        np.random.default_rng(seed).shuffle(order)
        mgr.run(order)
        return mgr.best_solution(), mgr.peak_stored, False
    if name == "distributed":
        return replacement_distributed(F, M, ell, k, seed), 0, False
    if name == "fast":
        return distributed_fast(F, M, epsilon, ell, k, seed), 0, False
    if name == "oracle":
        work = oracle_mod.estimate_work(F.ground.n, ell, k, F.m)
        if work > oracle_budget:
            return None, 0, True
        return oracle_mod.brute_force_opt(
            F, ids, ell, k, max_evaluations=oracle_budget), 0, False
    raise ConfigError(f"unknown algorithm {name!r}")


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
            sol, peak, skipped = _run_algorithm(
                name, F, ell, k, epsilon, M, config.seed, config.oracle_budget)
            seconds = time.perf_counter() - start if config.timing else 0.0
            if skipped:
                row = ReportRow(name, ell, k, epsilon, M, config.seed,
                                0.0, 0.0, 0, 0, skipped=True)
            else:
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
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in rows:
                if r.skipped:
                    writer.writerow([r.algorithm, r.ell, r.k, r.epsilon, r.M,
                                     r.seed, "", "", "", ""])
                else:
                    writer.writerow([r.algorithm, r.ell, r.k, r.epsilon, r.M,
                                     r.seed, repr(r.value), repr(r.seconds),
                                     r.evals, r.peak_stored])
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


_LIST_FIELDS = {
    "ells": int, "ks": int, "epsilons": float, "machines": int,
    "algorithms": str, "formats": str,
}
_SCALAR_FIELDS = {
    "objective": str, "dataset": str, "class_count": int, "n": int, "m": int,
    "alpha": float, "seed": int, "radius": float, "cap": int,
    "oracle_budget": int, "output": str,
    "timing": _parse_bool,
}


def parse_config_file(path) -> ExperimentConfig:
    """Flat ``key = value`` lines; list fields take comma-separated values."""
    values = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {ln}: expected key = value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            try:
                if key in _LIST_FIELDS:
                    conv = _LIST_FIELDS[key]
                    values[key] = tuple(conv(p.strip()) for p in val.split(","))
                elif key in _SCALAR_FIELDS:
                    values[key] = _SCALAR_FIELDS[key](val)
                else:
                    raise ConfigError(f"unknown key {key!r}")
            except ValueError as exc:
                raise ConfigError(f"{path}: line {ln}: {exc}") from exc
    return ExperimentConfig(**values)


def _apply_overrides(config: ExperimentConfig,
                     args: argparse.Namespace) -> ExperimentConfig:
    updates = {}
    for f in fields(ExperimentConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            updates[f.name] = val
    if getattr(args, "no_timing", False):
        updates["timing"] = False
    return replace(config, **updates)


def _add_override_flags(p: argparse.ArgumentParser):
    p.add_argument("--objective")
    p.add_argument("--dataset")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--radius", type=float)
    p.add_argument("--cap", type=int)
    p.add_argument("--class-count", dest="class_count", type=int)
    p.add_argument("--oracle-budget", dest="oracle_budget", type=int)
    p.add_argument("--output")
    p.add_argument("--ell", dest="ells",
                   type=lambda s: tuple(int(x) for x in s.split(",")))
    p.add_argument("--k", dest="ks",
                   type=lambda s: tuple(int(x) for x in s.split(",")))
    p.add_argument("--epsilon", dest="epsilons",
                   type=lambda s: tuple(float(x) for x in s.split(",")))
    p.add_argument("--machines", dest="machines",
                   type=lambda s: tuple(int(x) for x in s.split(",")))
    p.add_argument("--algorithms",
                   type=lambda s: tuple(s.split(",")))
    p.add_argument("--format", dest="formats",
                   type=lambda s: tuple(s.split(",")))
    p.add_argument("--no-timing", action="store_true")


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
    F = _build_family(config)
    ell, k = config.ells[0], config.ks[0]
    res = oracle_mod.brute_force_opt(F, None, ell, k,
                                     max_evaluations=config.oracle_budget)
    print(f"opt_value={res.value!r}")
    print(f"summary={sorted(res.summary)}")
    for i, t in enumerate(res.per_function):
        print(f"T[{i}]={sorted(t)}")
    return 0


def _cmd_gen_synthetic(args) -> int:
    rng = np.random.default_rng(args.seed)
    out = Path(args.out)
    if args.kind == "points":
        coords = rng.uniform(0.0, 0.03, size=(args.n, 2))
        lines = ["lat,lon"] + [f"{float(x)!r},{float(y)!r}" for x, y in coords]
    elif args.kind == "features":
        counts = rng.integers(0, 3, size=(args.n, args.class_count))
        # guarantee every class has at least one member
        for i in range(args.class_count):
            if not counts[:, i].any():
                counts[int(rng.integers(args.n)), i] = 1
        lines = [",".join(str(v) for v in row) for row in counts]
    else:
        raise ConfigError(f"unknown kind {args.kind!r}")
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
    except (ConfigError, ValueError, OSError,
            oracle_mod.OracleBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
