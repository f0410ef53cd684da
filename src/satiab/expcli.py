"""Experiment harness: JSON scenario configs, sweep runners, CSV/SVG output.

Configs use the measurement units of the scenario tables (dBm, dBi, MHz,
km, degrees); everything is converted to linear SI units on load. Sweep
outputs are deterministic: a fixed config and seed reproduce the output
files byte for byte, because each sweep row derives its own swarm seed
from the base seed and the row's position in the sweep grid.

Every command runs on arrays: the run's points make one ScenarioBatch, each
solver (the _SOLVERS entry of its name) makes one batch call on all the
points that select it, and each SweepRow is built once, from those arrays
and their evaluate_many columns. `satiab solve` is a sweep of one point.

Only this module knows the duplex mode: batches and solvers hold each
bandwidth w in airtime hertz v = alpha_o w, an FDD row's hertz or half a TDD
row's. So build_scenarios divides the gains by 1 / alpha_o (DUPLEX_FACTORS),
a row's w_a and w_b are its solver's times it, and audit_rows divides a CSV's
by it, all exactly, alpha_o being a power of two.

Exit codes of the command-line entry point: 0 success, 1 config/validation
error (including audit mismatches), 2 I/O error or an argparse usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import operator
import os
import sys
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .allocator import PsoConfig
from .allocator import grid_oracle_many, pso_solve_many, solve_orthogonal_many
from .linkbudget import channel_gain, db_to_linear, dbm_to_watts
from .ratemodel import _SLACK, CONSTRAINTS, ScenarioBatch
from .ratemodel import bandwidth_limits, evaluate_many, validate_many

__all__ = [
    "DUPLEX_FACTORS",
    "ValidationError",
    "ExperimentConfig",
    "SweepRow",
    "CSV_COLUMNS",
    "load_config",
    "build_scenarios",
    "run_single",
    "run_power_sweep",
    "run_overlap_sweep",
    "write_csv",
    "read_csv",
    "emit_plot",
    "audit_rows",
    "main",
]

OVERLAP_SWEEP_WEIGHTS = (0.05, 0.1, 0.2)
POWER_SWEEP_ALTITUDES_KM = (600.0, 1200.0)
# 1 / alpha_o of each mode: FDD sends full-time over half the band, TDD half-time over all of it, so
# in both alpha_o x alpha_1 = 1/2, and a TDD row is its FDD row at half the gains, or at half power.
DUPLEX_FACTORS = {"FDD": 1.0, "TDD": 2.0}
_AIRTIME_PER_BAND_HERTZ = 0.5  # alpha_o x alpha_1 of both modes: a link's airtime hertz per band hertz


class ValidationError(Exception):
    """An input the program does not take: a config, CLI arguments or a CSV, unreadable or invalid."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: scenario table values, the swarm's size, sweep settings.

    Field names double as the JSON keys; unit suffixes carry the units.
    Any key missing from the file falls back to the default below. The
    swarm's step weights are not settable: it runs the reference's (PsoConfig).
    """

    total_bandwidth_mhz: float = 40.0
    total_power_dbm: float = 40.0
    noise_density_dbm_hz: float = -174.0
    interference_density_dbm_hz: float = -174.0
    satellite_antenna_gain_dbi: float = 36.0
    bs_antenna_gain_dbi: float = 32.8
    ue_antenna_gain_dbi: float = 0.0
    carrier_frequency_ghz: float = 2.0
    aperture_radius_m: float = 1.5
    altitude_km: float = 600.0
    boresight_ue_deg: float = 0.0
    boresight_bs_deg: float = 0.8
    overlap_mhz: float = 0.0
    access_weight: float = 0.1
    duplex: str = "FDD"
    pso_population: int = PsoConfig.population_size
    pso_iterations: int = PsoConfig.max_iterations
    seed: int = 1
    solvers: tuple[str, ...] = ("exact", "pso")
    power_sweep_min_dbm: float = 40.0
    power_sweep_max_dbm: float = 50.0
    power_sweep_step_db: float = 1.0
    overlap_sweep_points: int = 11
    oracle_resolution: int = 200


_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
# The JSON values load_config takes for each field type of ExperimentConfig
# (bool is not a number here): a test, the conversion, and what the error
# says a value must be.
_JSON_TYPES = {
    "float": (lambda v: type(v) in (int, float), float, "a number"),
    "int": (lambda v: type(v) is int, int, "an integer"),
    "str": (lambda v: type(v) is str, str, "a string"),
    "tuple[str, ...]": (lambda v: type(v) is list and all(type(s) is str for s in v), tuple,
                        "a list of strings"),
}
# The solvers, by the names that configs, CSVs and --solvers take, each as a batch
# call: (config, batch, swarm seeds) -> arrays of allocations, iterations and
# converged flags. The calls look their solvers up in this module when they
# run, so a function patched in here sees them.
_SOLVERS = {
    "exact": lambda cfg, batch, seeds: solve_orthogonal_many(batch),
    "pso": lambda cfg, batch, seeds: pso_solve_many(
        batch, PsoConfig(cfg.pso_population, cfg.pso_iterations), seeds),
    "oracle": lambda cfg, batch, seeds: grid_oracle_many(batch, cfg.oracle_resolution),
}
# Transmit powers accepted, in dBm (0.1 pW to 10 MW): wide enough for any
# satellite, and far inside the range where dbm_to_watts stays finite and
# positive.
POWER_DBM_LIMITS = (-100.0, 100.0)
# Most points a power sweep may have (0.1 dB steps over 200 dB).
_MAX_POWER_SWEEP_POINTS = 2001
# Most particle-steps (pso rows x population x iterations) a run may ask of
# the swarm: about 2.5 minutes at some 150 ns a step.
_MAX_PARTICLE_STEPS = 10**9
# Closed ranges of the numeric entries, in the units of their keys. Each is
# wide enough for any satellite link and tight enough that dbm_to_watts,
# db_to_linear and channel_gain stay finite and positive: a batch's gain
# stays within about 1e-78 .. 1e43, so p gain never underflows and every
# link's rate at the whole budget is positive, however small. The sizes are
# capped so that no solve asks for gigabytes, and memory is bounded per chunk,
# not per run: run_pso holds four (4, S, N) arrays (swarm, velocity, term and
# local), a scenario row per particle and a draw block (_ROW_DRAWS, _BLOCK_DRAWS)
# for at most max(population, _SWARM_PARTICLES) particles, and an oracle of
# resolution r searches each scenario's r grid columns once, in chunks of at
# most max(r, _GRID_BLOCK) columns, so its cap bounds time, not memory.
_RANGES = {
    "total_bandwidth_mhz": (0.001, 1e5),
    "access_weight": (1e-6, 1.0),
    "pso_population": (3, 1000),
    "pso_iterations": (1, 10_000),
    "overlap_sweep_points": (2, 1001),
    "oracle_resolution": (10, 2000),
    "total_power_dbm": POWER_DBM_LIMITS,
    "power_sweep_min_dbm": POWER_DBM_LIMITS,
    "power_sweep_max_dbm": POWER_DBM_LIMITS,
    "noise_density_dbm_hz": (-250.0, -50.0),
    "interference_density_dbm_hz": (-250.0, -50.0),
    "satellite_antenna_gain_dbi": (-50.0, 100.0),
    "bs_antenna_gain_dbi": (-50.0, 100.0),
    "ue_antenna_gain_dbi": (-50.0, 100.0),
    "carrier_frequency_ghz": (0.01, 1000.0),
    "aperture_radius_m": (0.01, 100.0),
    "altitude_km": (1.0, 1e5),
}


def _config_problems(cfg: ExperimentConfig) -> list[str]:
    non_finite = [
        name for name in _CONFIG_FIELDS
        if isinstance(getattr(cfg, name), float) and not math.isfinite(getattr(cfg, name))
    ]
    if non_finite:
        return [f"{name} must be finite, got {getattr(cfg, name)!r}" for name in non_finite]
    problems = [
        f"{name}={getattr(cfg, name):g} must lie in [{lo:g}, {hi:g}]"
        for name, (lo, hi) in _RANGES.items()
        if not lo <= getattr(cfg, name) <= hi
    ]
    if not 0.0 <= cfg.overlap_mhz <= cfg.total_bandwidth_mhz:
        problems.append(
            f"overlap_mhz={cfg.overlap_mhz:g} must lie in [0, total_bandwidth_mhz="
            f"{cfg.total_bandwidth_mhz:g}]"
        )
    if cfg.duplex not in (duplexes := _CELL_CHOICES["duplex"]):
        problems.append(f"duplex must be {' or '.join(duplexes)}, got {cfg.duplex!r}")
    for name in ("boresight_ue_deg", "boresight_bs_deg"):
        if not abs(getattr(cfg, name)) < 90.0:
            problems.append(f"{name} must satisfy |angle| < 90")
    if cfg.seed < 0:
        problems.append("seed must be nonnegative")
    if not cfg.solvers:
        problems.append("at least one solver must be selected")
    unknown = sorted(set(cfg.solvers) - _SOLVERS.keys())
    if unknown:  # as reprs, so that a name holding a newline keeps the message on one line
        problems.append(f"unknown solvers: {', '.join(map(repr, unknown))}")
    repeated = sorted(name for name, count in Counter(cfg.solvers).items() if count > 1 and name in _SOLVERS)
    if repeated:
        problems.append(f"repeated solvers: {', '.join(repeated)}")
    if "exact" in cfg.solvers and cfg.overlap_mhz > 0.0:
        problems.append("the exact solver is only selectable when overlap_mhz = 0")
    if cfg.power_sweep_step_db <= 0.0:
        problems.append("power_sweep_step_db must be positive")
    elif _power_steps(cfg) >= _MAX_POWER_SWEEP_POINTS:
        problems.append(f"power_sweep_step_db={cfg.power_sweep_step_db:g} gives a power sweep of "
                        f"more than {_MAX_POWER_SWEEP_POINTS} points")
    if cfg.power_sweep_max_dbm < cfg.power_sweep_min_dbm:
        problems.append(f"power_sweep_max_dbm={cfg.power_sweep_max_dbm:g} must be at least "
                        f"power_sweep_min_dbm={cfg.power_sweep_min_dbm:g}")
    return problems


def load_config(path: str) -> ExperimentConfig:
    """Load an experiment config from a JSON file.

    Missing keys take the defaults, and each key's value must have the JSON
    type of its ExperimentConfig annotation. Unknown keys, keys given twice,
    values of the wrong type and invariant violations raise ValidationError,
    and so does JSON that does not parse, naming the file and the problem's
    location where the parser gives one.
    """
    def unique_keys(pairs):
        if len(values := dict(pairs)) < len(pairs):  # then count each distinct key once: linear time
            twice = sorted(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
            raise ValidationError(f"{path}: key given twice: {', '.join(map(repr, twice))}")
        return values

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.loads(fh.read(), object_pairs_hook=unique_keys)
    except json.JSONDecodeError as err:
        raise ValidationError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    # a byte that is not UTF-8 (decoded with the whole file, so its position is the file's),
    # an integer past int's digit limit, or deep nesting
    except (ValueError, RecursionError) as err:
        raise ValidationError(f"{path}: {err}") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: top-level JSON value must be an object")

    problems = []
    values = {}
    for key, value in raw.items():
        known = _CONFIG_FIELDS.get(key)
        if known is None:
            problems.append(f"unknown key {key!r}")
            continue
        accepts, convert, kind = _JSON_TYPES[known.type]
        if not accepts(value):
            problems.append(f"{key} must be {kind}")
        else:
            values[key] = convert(value)
    if problems:
        raise ValidationError(f"{path}: " + "; ".join(problems))

    cfg = ExperimentConfig(**values)
    problems = _config_problems(cfg)
    if problems:
        raise ValidationError(f"{path}: " + "; ".join(problems))
    return cfg


def build_scenarios(cfg: ExperimentConfig, points) -> ScenarioBatch:
    """Turn a run's points into a batch of linear-unit scenarios, one row per point.

    A point is (power_dbm, overlap_mhz, duplex, altitude_km, access_weight),
    the SweepRow columns CSV_COLUMNS[2:7], and points any iterable of them;
    every other value comes from cfg: bandwidths in airtime hertz, each gain the channel
    gain over the density noise plus interference in W/Hz times 1 / alpha_o (DUPLEX_FACTORS).
    Each distinct altitude's gains, for both modes, and power's watts are computed once, when
    a point first needs them, so a bad one raises at the first point that has one: at its
    altitude, then its power, then a duplex other than FDD or TDD.
    The watts stay scalar dbm_to_watts calls: numpy's vector power differs
    from Python's 10.0 ** x in the last bit on some inputs, which would change
    CSV bytes. The batch then raises the first of its conditions that any row
    fails: of two bad points, the one whose condition the batch checks first
    raises, which need not be the first bad point.
    """
    sat_gain = db_to_linear(cfg.satellite_antenna_gain_dbi)
    aperture, frequency = cfg.aperture_radius_m, cfg.carrier_frequency_ghz * 1e9
    nodes = [(db_to_linear(gain_dbi), math.radians(angle_deg)) for gain_dbi, angle_deg in (
        (cfg.ue_antenna_gain_dbi, cfg.boresight_ue_deg), (cfg.bs_antenna_gain_dbi, cfg.boresight_bs_deg))]
    hertz = 1e6 * _AIRTIME_PER_BAND_HERTZ  # a link's airtime hertz per MHz of the band, in both modes
    density = dbm_to_watts(cfg.noise_density_dbm_hz) + dbm_to_watts(cfg.interference_density_dbm_hz)
    gains, watts = {}, {}  # of each altitude_km, then duplex, and of each power_dbm
    rows = []
    for power_dbm, overlap_mhz, duplex, altitude_km, access_weight in points:
        if altitude_km not in gains:
            betas = [channel_gain(sat_gain, gain, angle, altitude_km * 1e3, aperture, frequency)
                     for gain, angle in nodes]
            gains[altitude_km] = {mode: [beta / (density * factor) for beta in betas]
                                  for mode, factor in DUPLEX_FACTORS.items()}
        if power_dbm not in watts:
            watts[power_dbm] = dbm_to_watts(power_dbm)
        if duplex not in DUPLEX_FACTORS:
            raise ValueError(f"duplex must be {' or '.join(DUPLEX_FACTORS)}, got {duplex!r}")
        # the ScenarioBatch columns, in order
        rows.append((watts[power_dbm], cfg.total_bandwidth_mhz * hertz, overlap_mhz * hertz,
                     access_weight, *gains[altitude_km][duplex]))
    columns = np.array(rows, dtype=float).reshape(-1, len(dataclasses.fields(ScenarioBatch))).T
    return ScenarioBatch(*(column.reshape(-1, 1) for column in columns.copy()))


# Aliases of the batch calls, unexported, which nothing calls: the span tracer of bench/spans.py
# wraps these names in this module. ROADMAP item 15 deletes them along with the tracer.
build_scenario, evaluate, validate = build_scenarios, evaluate_many, validate_many
solve_orthogonal, pso_solve, grid_oracle = solve_orthogonal_many, pso_solve_many, grid_oracle_many


class SweepRow(NamedTuple):
    """One solver run inside a sweep: its CSV cells, in column order."""

    sweep: str  # "power" | "overlap" | "single"
    sweep_value: float  # dBm for power sweeps, w_o/W for overlap sweeps
    power_dbm: float
    overlap_mhz: float
    duplex: str
    altitude_km: float
    access_weight: float
    solver: str
    zeta_mbps: float
    rate_access_mbps: float
    rate_backhaul_mbps: float
    throughput_mbps: float
    p_ue_w: float
    p_bs_w: float
    w_a_hz: float
    w_b_hz: float
    converged: bool


CSV_COLUMNS = SweepRow._fields
# The CSV format: each text column's cells, in column order; the others are %.9g floats.
_CELL_CHOICES = {"sweep": ("power", "overlap", "single"), "duplex": tuple(DUPLEX_FACTORS),
                 "solver": tuple(_SOLVERS), "converged": ("true", "false")}
_TEXT_CELLS = [(CSV_COLUMNS.index(name), name, choices) for name, choices in _CELL_CHOICES.items()]
# The float cells of a row end with the rate columns of evaluate_many, in
# Mbps, and then the allocation (p_ue, p_bs, w_a, w_b).
_FLOAT_INDICES = [i for i, name in enumerate(CSV_COLUMNS) if name not in _CELL_CHOICES]
_float_cells = operator.itemgetter(*_FLOAT_INDICES)
# The CSV header, and the CSV line of a row: every cell but the last, converged, then its text.
_CSV_HEADER = ",".join(CSV_COLUMNS) + "\r\n"
_CSV_LINE = ",".join("%s" if name in _CELL_CHOICES else "%.9g" for name in CSV_COLUMNS) + "\r\n"
_config_point = operator.attrgetter("total_power_dbm", *CSV_COLUMNS[3:7])
_row_sort_key = operator.attrgetter("sweep_value", "duplex", "altitude_km", "access_weight", "solver")


def _hertz_per_airtime(duplexes) -> np.ndarray:
    """The (k, 1) column of the DUPLEX_FACTORS entries of k duplex names: hertz per airtime hertz."""
    return np.array([DUPLEX_FACTORS[duplex] for duplex in duplexes]).reshape(-1, 1)


def _row_seed(base_seed: int, row_index: int) -> int:
    # Stable per-row seed so sweep points can run in any order.
    return (base_seed * 1_000_003 + row_index) % 2**63


def _run_sweep(cfg: ExperimentConfig, points) -> list[SweepRow]:
    """Solve every sweep point with its solvers and return the sorted rows.

    points yields (fields, solvers, seed) per point, fields being the
    SweepRow values before the solver name, so fields[2:] is the point that
    build_scenarios takes, and seed the point's swarm seed. Each solver name
    is a key of _SOLVERS, looked up once: its entry makes one batch call, and
    one evaluate_many call, on the rows of the batch that select it, or on
    the batch itself if every point does. A row does not depend on the others.
    A run asking the swarm for more than _MAX_PARTICLE_STEPS raises before any solve.
    """
    points = list(points)
    jobs: dict[str, list[int]] = {}
    for index, (_, solvers, _) in enumerate(points):
        for solver in solvers:
            jobs.setdefault(solver, []).append(index)
    pso_rows = len(jobs.get("pso", ()))
    if (steps := pso_rows * cfg.pso_population * cfg.pso_iterations) > _MAX_PARTICLE_STEPS:
        raise ValidationError(f"{pso_rows} pso rows x pso_population={cfg.pso_population} x pso_iterations="
                              f"{cfg.pso_iterations} = {steps} particle-steps, more than {_MAX_PARTICLE_STEPS}")
    batch = build_scenarios(cfg, [fields[2:] for fields, _, _ in points])
    hertz = _hertz_per_airtime(fields[4] for fields, _, _ in points)
    rows = []
    for solver, indices in jobs.items():
        scns = batch if len(indices) == len(points) else batch.take(indices)
        alloc, _, converged = _SOLVERS[solver](cfg, scns, [points[i][2] for i in indices])
        cells = np.hstack((evaluate_many(scns, alloc) / 1e6, alloc[:, :2], alloc[:, 2:] * hertz[indices]))
        rows += [SweepRow._make((*points[i][0], solver, *row, done))
                 for i, row, done in zip(indices, cells.tolist(), converged.tolist())]
    rows.sort(key=_row_sort_key)
    return rows


def run_single(cfg: ExperimentConfig) -> list[SweepRow]:
    """Run every selected solver once on the configured scenario: a sweep
    of one point, whose swarm seed is cfg.seed."""
    fields = ("single", cfg.total_power_dbm, *_config_point(cfg))
    return _run_sweep(cfg, [(fields, cfg.solvers, cfg.seed)])


def _power_steps(cfg: ExperimentConfig) -> float:
    # Steps of the power sweep after its first point; the 1e-9 absorbs
    # rounding, and the grid takes the floor.
    return (cfg.power_sweep_max_dbm - cfg.power_sweep_min_dbm) / cfg.power_sweep_step_db + 1e-9


def _power_grid(cfg: ExperimentConfig) -> list[float]:
    count = int(math.floor(_power_steps(cfg))) + 1
    return [cfg.power_sweep_min_dbm + k * cfg.power_sweep_step_db for k in range(count)]


def run_power_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Throughput versus transmit power, for both duplex modes and both
    reference altitudes, with no bandwidth overlap.
    """
    if cfg.overlap_mhz != 0.0:
        raise ValidationError("the power sweep requires overlap_mhz = 0")

    def points():
        grid = itertools.product(_power_grid(cfg), _CELL_CHOICES["duplex"], POWER_SWEEP_ALTITUDES_KM)
        for row_index, (power_dbm, duplex, altitude_km) in enumerate(grid):
            fields = ("power", power_dbm, power_dbm, 0.0, duplex, altitude_km, cfg.access_weight)
            yield fields, cfg.solvers, _row_seed(cfg.seed, row_index)

    return _run_sweep(cfg, points())


def run_overlap_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Throughput versus overlap fraction w_o/W for three access weights
    and both duplex modes, solved by the swarm; the exact solver is added
    at zero overlap as a cross-check.
    """
    if "pso" not in cfg.solvers:
        raise ValidationError("the overlap sweep requires the pso solver")
    count = cfg.overlap_sweep_points
    fractions = [i / (count - 1) for i in range(count)]
    sweep_solvers = tuple(s for s in cfg.solvers if s != "exact")

    def points():
        grid = itertools.product(fractions, OVERLAP_SWEEP_WEIGHTS, _CELL_CHOICES["duplex"])
        for row_index, (fraction, access_weight, duplex) in enumerate(grid):
            fields = ("overlap", fraction, cfg.total_power_dbm, fraction * cfg.total_bandwidth_mhz,
                      duplex, cfg.altitude_km, access_weight)
            solvers = sweep_solvers if fraction > 0.0 else sweep_solvers + ("exact",)
            yield fields, solvers, _row_seed(cfg.seed, row_index)

    return _run_sweep(cfg, points())


def write_csv(rows: list[SweepRow], path: str) -> None:
    """Write sweep rows as RFC-4180 CSV (CRLF lines, fixed column order,
    floats at 9 significant digits, converged as true or false), one %
    format per line. Deterministic byte output. Text cells are written as
    they are: the sweep, duplex and solver names need no quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_CSV_HEADER)
        fh.writelines([_CSV_LINE % (*row[:-1], "true" if row.converged else "false") for row in rows])


def read_csv(path: str) -> list[SweepRow]:
    """Read rows written by :func:`write_csv`, as its exact inverse: after the
    _CSV_HEADER line, a line is read only if it is the _CSV_LINE of the row it
    parses to, so quoted cells, other line endings and blank lines are errors."""
    rows = []
    limit = csv.field_size_limit()  # the longest cell, as the csv module takes it
    with open(path, "rb") as fh:
        try:
            if fh.readline().decode() != _CSV_HEADER:  # bytes.decode is UTF-8
                raise ValidationError(f"{path}: unexpected CSV header")
            for number, line in enumerate(map(bytes.decode, fh), 2):
                cells = line.removesuffix("\r\n").split(",")
                if len(line) > limit and max(map(len, cells)) > limit:
                    raise ValidationError(f"{path}:{number}: field larger than field limit ({limit})")
                if len(cells) != len(CSV_COLUMNS):
                    raise ValidationError(f"{path}:{number}: expected {len(CSV_COLUMNS)} cells")
                for i, name, choices in _TEXT_CELLS:
                    if (text := cells[i]) not in choices:
                        raise ValidationError(f"{path}:{number}: {name} must be one of {', '.join(choices)}, "
                                              f"got {text!r}")
                for i in _FLOAT_INDICES:
                    try:
                        cells[i] = float(text := cells[i])
                    except ValueError:
                        raise ValidationError(f"{path}:{number}: {CSV_COLUMNS[i]} must be a number, "
                                              f"got {text!r}") from None
                if (written := _CSV_LINE % tuple(cells)) != line:  # name the first cell that differs
                    name, want, got = next(diff for diff in zip(CSV_COLUMNS, written.split(","),
                                                                line.split(",")) if diff[1] != diff[2])
                    raise ValidationError(f"{path}:{number}: {name} must be written {want!r}, got {got!r}")
                rows.append(SweepRow(*cells[:-1], cells[-1] == "true"))
        except UnicodeDecodeError as err:  # of one line, as no UTF-8 character holds a newline byte
            raise ValidationError(f"{path}: not UTF-8 text ({err.reason})") from None
    return rows


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b",
    "#e377c2", "#17becf", "#bcbd22", "#7f7f7f", "#aec7e8", "#ff9896",
)


def _series_label(key, varying) -> str:
    duplex, altitude_km, access_weight, solver = key
    parts = [duplex]
    if "altitude" in varying:
        parts.append(f"{altitude_km:g} km")
    if "eps" in varying:
        parts.append(f"eps={access_weight:g}")
    parts.append(solver)
    return " ".join(parts)


def _ticks(lo: float, hi: float) -> list[float]:
    # six evenly spaced axis ticks from lo to hi (emit_plot keeps hi > lo)
    return [lo + (hi - lo) * i / 5 for i in range(6)]


def emit_plot(rows: list[SweepRow], path: str) -> None:
    """Render the sweep as a self-contained SVG line chart.

    One polyline per (duplex, altitude, access weight, solver) series,
    throughput in Mbps on the y axis; the x axis is the sweep variable
    (transmit power in dBm, or overlap fraction spanning [0, 1]). A series'
    coordinates are two arrays, by the formulas of the ticks.
    """
    series: dict[tuple, list[tuple[float, float]]] = {}
    for row in rows:
        if math.isnan(row.throughput_mbps):
            continue
        key = (row.duplex, row.altitude_km, row.access_weight, row.solver)
        series.setdefault(key, []).append((row.sweep_value, row.throughput_mbps))
    if not series:
        raise ValueError("cannot plot a table with no finite throughput")
    for points in series.values():
        points.sort()

    varying = set()
    if len({k[1] for k in series}) > 1:
        varying.add("altitude")
    if len({k[2] for k in series}) > 1:
        varying.add("eps")

    if rows[0].sweep == "overlap":
        x_lo, x_hi = 0.0, 1.0
        x_label = "Bandwidth overlap fraction w_o/W"
    else:
        xs = [x for pts in series.values() for x, _ in pts]
        x_lo, x_hi = min(xs), max(xs)
        if x_hi <= x_lo:
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
        x_label = "Transmit power (dBm)"  # a single row's sweep_value is its power too
    y_label = "Throughput (Mbps)"
    ys = [y for pts in series.values() for _, y in pts]
    y_lo, y_hi = 0.0, max(ys) * 1.05
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    width, height = 760, 460
    left, right, top, bottom = 80, 240, 24, 56
    plot_w = width - left - right
    plot_h = height - top - bottom

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(
            f'<line x1="{px:.2f}" y1="{top + plot_h:.2f}" x2="{px:.2f}" '
            f'y2="{top + plot_h + 5:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{top + plot_h + 20:.2f}" font-size="12" '
            f'text-anchor="middle">{tick:g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(
            f'<line x1="{left - 5:.2f}" y1="{py:.2f}" x2="{left:.2f}" y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 8:.2f}" y="{py + 4:.2f}" font-size="12" '
            f'text-anchor="end">{tick:.4g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 12}" font-size="14" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{top + plot_h / 2:.2f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.2f})">{y_label}</text>'
    )

    legend_x = left + plot_w + 16
    legend_y = top + 12
    for index, key in enumerate(sorted(series)):
        color = _PALETTE[index % len(_PALETTE)]
        xs, ys = np.array(series[key], dtype=float).T
        points = " ".join(map("%.2f,%.2f".__mod__, zip(sx(xs).tolist(), sy(ys).tolist())))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>'
        )
        ly = legend_y + index * 18
        parts.append(
            f'<line x1="{legend_x}" y1="{ly - 4}" x2="{legend_x + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 28}" y="{ly}" font-size="12">{_series_label(key, varying)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


_AUDIT_TOL = 1e-6  # relative tolerance between a recorded rate and its re-evaluation


def audit_rows(cfg: ExperimentConfig, rows: list[SweepRow]) -> list[str]:
    """Re-validate and re-evaluate every row's allocation.

    Returns one message per discrepancy, in row order. A row whose point
    lies outside the config's ranges (power_dbm, altitude_km and
    access_weight those of their _RANGES keys, overlap_mhz [0, the config's
    total_bandwidth_mhz as a %.9g cell]; NaN and inf lie outside) gets one
    message per such cell and nothing else. Of the other rows, one that
    holds a non-finite value is a problem if marked converged, and a
    skipped solver failure if not. The rest are checked as arrays, w_a and
    w_b times alpha_o, by one build_scenarios (which reads an
    overlap_mhz above the bandwidth, a full overlap rounded up, as the
    bandwidth), validate_many (constraints 1a-1d) and, on the feasible rows,
    evaluate_many call, whose rates must match the recorded ones within the
    relative tolerance _AUDIT_TOL. A row that passes must also spend both
    budgets, p_ue + p_bs >= P and w_a + w_b >= alpha_1 (W + w_o), within
    validate_many's relative slack. A row whose sweep_value is not its power_dbm
    (in an overlap row, overlap_mhz / total_bandwidth_mhz to 1e-8) gets that as
    its first message.
    """
    cells = np.array([_float_cells(row) for row in rows], dtype=float).reshape(-1, len(_FLOAT_INDICES))
    point = cells[:, 1:5]  # power_dbm, overlap_mhz, altitude_km, access_weight
    band = cfg.total_bandwidth_mhz
    limits = np.array([_RANGES["total_power_dbm"], (0.0, float(f"{band:.9g}")), _RANGES["altitude_km"],
                       _RANGES["access_weight"]])
    outside = ~((limits[:, 0] <= point) & (point <= limits[:, 1]))
    checked = ~outside.any(axis=1) & np.isfinite(cells).all(axis=1)
    index = np.flatnonzero(checked).tolist()
    batch = build_scenarios(cfg, [(rows[i][2], min(rows[i][3], band), *rows[i][4:7]) for i in index])
    recorded, alloc = cells[checked, -8:-4], cells[checked, -4:]
    alloc[:, 2:] /= _hertz_per_airtime(rows[i].duplex for i in index)
    violated = validate_many(batch, alloc)
    feasible = ~violated.any(axis=1)
    want = np.zeros_like(recorded)
    want[feasible] = evaluate_many(batch if feasible.all() else batch.take(feasible), alloc[feasible]) / 1e6
    off = feasible[:, None] & (np.abs(recorded - want) > _AUDIT_TOL * np.maximum(np.abs(want), 1e-12))
    spent = alloc[:, 0::2] + alloc[:, 1::2]  # p_ue + p_bs and w_a + w_b
    budgets = np.hstack((batch.total_power, bandwidth_limits(batch)[0]))
    unspent = (feasible & ~off.any(axis=1))[:, None] & (spent < (1.0 - _SLACK) * budgets)

    problems = {}
    for i, j in np.argwhere(outside).tolist():
        (lo, hi), name = limits[j].tolist(), _float_cells(CSV_COLUMNS)[1 + j]
        message = f"row {i}: {name}={point[i, j]:.9g} must lie in [{lo:.9g}, {hi:.9g}]"
        problems.setdefault(i, []).append(message)
    problems |= {i: [f"row {i}: marked converged but holds a non-finite value"]
                 for i in np.flatnonzero(~checked).tolist() if rows[i].converged and i not in problems}
    for k in np.flatnonzero(~feasible | off.any(axis=1) | unspent.any(axis=1)).tolist():
        i = index[k]
        if not feasible[k]:
            names = [name for name, bad in zip(CONSTRAINTS, violated[k]) if bad]
            problems[i] = [f"row {i}: allocation violates {', '.join(names)}"]
        elif unspent[k].any():
            names = [name for name, bad in zip(("power", "bandwidth"), unspent[k]) if bad]
            problems[i] = [f"row {i}: allocation leaves budget unspent: {', '.join(names)}"]
        else:
            problems[i] = [f"row {i}: {name} recorded {got:.9g} but re-evaluates to {value:.9g}"
                           for name, got, value, bad in zip(CSV_COLUMNS[8:12], recorded[k].tolist(),
                                                            want[k].tolist(), off[k]) if bad]
    overlap = np.array([row.sweep == "overlap" for row in rows], dtype=bool)
    swept = np.where(overlap, cells[:, 2] / band, cells[:, 1])
    # |sweep_value - swept| <= 1e-8 |swept| on an overlap row, == on the others; a NaN fails both. The rows
    # outside are not compared: only theirs can have an infinite swept, which np.isclose passed if equal.
    near = np.flatnonzero(~outside.any(axis=1))
    close = np.abs(cells[near, 0] - swept[near]) <= 1e-8 * overlap[near] * np.abs(swept[near])
    for i in near[~close].tolist():
        name = "overlap_mhz/total_bandwidth_mhz" if overlap[i] else "power_dbm"
        problems.setdefault(i, []).insert(0, f"row {i}: sweep_value={cells[i, 0]:g} != "
                                             f"{name}={swept[i]:g}")
    return [message for i in sorted(problems) for message in problems[i]]


def _print_rows(rows: list[SweepRow], stream) -> None:
    headers = ("solver", "duplex", "alt_km", "eps", "zeta_mbps", "throughput_mbps")
    print("  ".join(f"{h:>15}" for h in headers), file=stream)
    for row in rows:
        cells = (
            row.solver, row.duplex, f"{row.altitude_km:g}", f"{row.access_weight:g}",
            f"{row.zeta_mbps:.4f}", f"{row.throughput_mbps:.4f}",
        )
        print("  ".join(f"{c:>15}" for c in cells), file=stream)


def _effective_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config is not None else ExperimentConfig()
    updates = {"seed": cfg.seed if args.seed is None else args.seed}
    if args.solvers is not None:
        updates["solvers"] = tuple(s.strip() for s in args.solvers.split(",") if s.strip())
    cfg = dataclasses.replace(cfg, **updates)
    problems = _config_problems(cfg)
    if problems:
        raise ValidationError("; ".join(problems))
    return cfg


def _cmd_solve(args) -> int:
    rows = run_single(_effective_config(args))
    os.makedirs(args.out, exist_ok=True)
    write_csv(rows, os.path.join(args.out, "solve.csv"))
    _print_rows(rows, sys.stdout)
    return 0


def _cmd_sweep(args) -> int:
    rows = args.run(_effective_config(args))
    os.makedirs(args.out, exist_ok=True)
    write_csv(rows, os.path.join(args.out, f"{args.stem}.csv"))
    emit_plot(rows, os.path.join(args.out, f"{args.stem}.svg"))
    print(f"wrote {len(rows)} rows to {args.out}/{args.stem}.csv")
    return 0


def _cmd_audit(args) -> int:
    cfg = load_config(args.config) if args.config is not None else ExperimentConfig()
    rows = read_csv(args.csv)
    if not rows:
        raise ValidationError(f"{args.csv}: no rows to audit")
    problems = audit_rows(cfg, rows)
    if problems:
        for message in problems:
            print(message, file=sys.stderr)
        print(f"audit failed: {len(problems)} problem(s) in {len(rows)} row(s)", file=sys.stderr)
        return 1
    print(f"audit ok: {len(rows)} row(s)")
    return 0


# The commands: (help, handler and its defaults, whether it takes the run options).
_COMMANDS = {
    "solve": ("run the selected solvers on one scenario", {"handler": _cmd_solve}, True),
    "sweep-power": ("throughput vs transmit power",
                    {"handler": _cmd_sweep, "run": run_power_sweep, "stem": "power_sweep"}, True),
    "sweep-overlap": ("throughput vs bandwidth overlap",
                      {"handler": _cmd_sweep, "run": run_overlap_sweep, "stem": "overlap_sweep"}, True),
    "audit": ("re-validate a previously written sweep CSV", {"handler": _cmd_audit}, False),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """parser with the arguments and defaults of the command name."""
    _, defaults, runs = _COMMANDS[name]
    parser.add_argument("--config", help="path to a JSON config file")
    if runs:
        parser.add_argument("--seed", type=int, help="override the RNG seed")
        parser.add_argument("--out", default="out", help="output directory")
        parser.add_argument("--solvers", help=f"comma-separated subset of {','.join(_SOLVERS)}")
    else:
        parser.add_argument("--csv", required=True, help="CSV file to audit")
    parser.set_defaults(**defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    # The command named first parses the rest with its own parser, as the whole parser's subparser
    # would; any other argv, or an argument left over, goes through the whole parser and its usage.
    argv = sys.argv[1:] if argv is None else argv
    args, rest = None, argv
    if argv and argv[0] in _COMMANDS:
        parser = _add_command(argparse.ArgumentParser(prog=f"satiab {argv[0]}"), argv[0])
        args, rest = parser.parse_known_args(argv[1:])
    if args is None or rest:
        parser = argparse.ArgumentParser(prog="satiab",
                                         description="Satellite access/backhaul allocation experiments")
        sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
        for name, (text, _, _) in _COMMANDS.items():
            _add_command(sub.add_parser(name, help=text), name)
        args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValidationError, ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
