"""Experiment harness: JSON scenario configs, sweep runners, CSV/SVG output.

Configs use the measurement units of the scenario tables (dBm, dBi, MHz,
km, degrees); everything is converted to linear SI units on load. Sweep
outputs are deterministic: a fixed config and seed reproduce the output
files byte for byte, because each sweep row derives its own swarm seed
from the base seed and the row's position in the sweep grid.

Exit codes of the command-line entry point: 0 success, 1 config/validation
error (including audit mismatches), 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

from .allocator import (
    Infeasible,
    PsoConfig,
    SolveResult,
    grid_oracle,
    pso_solve,
    pso_solve_many,
    solve_orthogonal,
)
from .linkbudget import (
    GroundNodeParams,
    SatelliteParams,
    channel_gain,
    db_to_linear,
    dbm_to_watts,
    slant_distance,
)
from .ratemodel import Allocation, DuplexMode, ScenarioParams, evaluate, validate

__all__ = [
    "ParseError",
    "ValidationError",
    "ExperimentConfig",
    "SweepRow",
    "CSV_COLUMNS",
    "load_config",
    "write_config",
    "build_scenario",
    "run_single",
    "run_power_sweep",
    "run_overlap_sweep",
    "write_csv",
    "read_csv",
    "emit_plot",
    "audit_rows",
    "main",
]

SEED_ENV_VAR = "SAT_IAB_SEED"

OVERLAP_SWEEP_WEIGHTS = (0.05, 0.1, 0.2)
POWER_SWEEP_ALTITUDES_KM = (600.0, 1200.0)


class ParseError(Exception):
    """The config file is not valid JSON."""


class ValidationError(Exception):
    """The config (or CLI arguments) violate an invariant."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: scenario table values, swarm settings, sweep settings.

    Field names double as the JSON keys; unit suffixes carry the units.
    Any key missing from the file falls back to the default below.
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
    pso_population: int = 50
    pso_iterations: int = 200
    pso_inertia_weight: float = 0.01
    pso_learning_factor_1: float = 2.0
    pso_learning_factor_2: float = 2.0
    seed: int = 1
    solvers: tuple[str, ...] = ("exact", "pso")
    output_dir: str = "out"
    power_sweep_min_dbm: float = 40.0
    power_sweep_max_dbm: float = 50.0
    power_sweep_step_db: float = 1.0
    overlap_sweep_points: int = 11
    oracle_resolution: int = 200


_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
_INT_FIELDS = {"pso_population", "pso_iterations", "seed", "overlap_sweep_points", "oracle_resolution"}
_KNOWN_SOLVERS = ("exact", "oracle", "pso")
# Transmit powers accepted, in dBm (0.1 pW to 10 MW): wide enough for any
# satellite, and far inside the range where dbm_to_watts stays finite and
# positive.
POWER_DBM_LIMITS = (-100.0, 100.0)


@dataclass(frozen=True)
class _NonFiniteLiteral:
    """A NaN or Infinity token in a config file, kept so that the error
    can name the key it was given for."""

    text: str


def _config_problems(cfg: ExperimentConfig) -> list[str]:
    non_finite = [
        name for name in _CONFIG_FIELDS
        if isinstance(getattr(cfg, name), float) and not math.isfinite(getattr(cfg, name))
    ]
    if non_finite:
        return [f"{name} must be finite, got {getattr(cfg, name)!r}" for name in non_finite]
    problems = []
    lo_dbm, hi_dbm = POWER_DBM_LIMITS
    for name in ("total_power_dbm", "power_sweep_min_dbm", "power_sweep_max_dbm"):
        if not lo_dbm <= getattr(cfg, name) <= hi_dbm:
            problems.append(f"{name}={getattr(cfg, name):g} must lie in [{lo_dbm:g}, {hi_dbm:g}] dBm")
    if cfg.total_bandwidth_mhz <= 0.0:
        problems.append("total_bandwidth_mhz must be positive")
    if not 0.0 <= cfg.overlap_mhz <= cfg.total_bandwidth_mhz:
        problems.append(
            f"overlap_mhz={cfg.overlap_mhz:g} must lie in [0, total_bandwidth_mhz="
            f"{cfg.total_bandwidth_mhz:g}]"
        )
    if not 0.0 < cfg.access_weight <= 1.0:
        problems.append("access_weight must lie in (0, 1]")
    if cfg.duplex not in ("FDD", "TDD"):
        problems.append(f"duplex must be FDD or TDD, got {cfg.duplex!r}")
    if cfg.carrier_frequency_ghz <= 0.0:
        problems.append("carrier_frequency_ghz must be positive")
    if cfg.aperture_radius_m <= 0.0:
        problems.append("aperture_radius_m must be positive")
    if cfg.altitude_km <= 0.0:
        problems.append("altitude_km must be positive")
    for name in ("boresight_ue_deg", "boresight_bs_deg"):
        if not abs(getattr(cfg, name)) < 90.0:
            problems.append(f"{name} must satisfy |angle| < 90")
    if cfg.pso_population < 3:
        problems.append("pso_population must be >= 3")
    if cfg.pso_iterations < 1:
        problems.append("pso_iterations must be >= 1")
    if cfg.pso_inertia_weight < 0.0:
        problems.append("pso_inertia_weight must be nonnegative")
    if cfg.pso_learning_factor_1 <= 0.0 or cfg.pso_learning_factor_2 <= 0.0:
        problems.append("pso learning factors must be positive")
    if cfg.seed < 0:
        problems.append("seed must be nonnegative")
    if not cfg.solvers:
        problems.append("at least one solver must be selected")
    unknown = sorted(set(cfg.solvers) - set(_KNOWN_SOLVERS))
    if unknown:
        problems.append(f"unknown solvers: {', '.join(unknown)}")
    if "exact" in cfg.solvers and cfg.overlap_mhz > 0.0:
        problems.append("the exact solver is only selectable when overlap_mhz = 0")
    if cfg.power_sweep_step_db <= 0.0:
        problems.append("power_sweep_step_db must be positive")
    if cfg.power_sweep_max_dbm < cfg.power_sweep_min_dbm:
        problems.append("power sweep range is empty (max < min)")
    if cfg.overlap_sweep_points < 2:
        problems.append("overlap_sweep_points must be >= 2")
    if cfg.oracle_resolution < 10:
        problems.append("oracle_resolution must be >= 10")
    return problems


def load_config(path: str) -> ExperimentConfig:
    """Load an experiment config from a JSON file.

    Missing keys take the defaults; unknown keys and invariant violations
    raise ValidationError, malformed JSON raises ParseError with the
    location of the problem.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text, parse_constant=_NonFiniteLiteral)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top-level JSON value must be an object")

    problems = []
    values = {}
    for key, value in raw.items():
        known = _CONFIG_FIELDS.get(key)
        if known is None:
            problems.append(f"unknown key {key!r}")
            continue
        if key == "solvers":
            if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
                problems.append("solvers must be a list of strings")
                continue
            values[key] = tuple(value)
        elif key == "duplex" or key == "output_dir":
            if not isinstance(value, str):
                problems.append(f"{key} must be a string")
                continue
            values[key] = value
        elif key in _INT_FIELDS:
            if isinstance(value, bool) or not isinstance(value, int):
                problems.append(f"{key} must be an integer")
                continue
            values[key] = value
        elif isinstance(value, _NonFiniteLiteral):
            problems.append(f"{key} must be finite, got {value.text}")
        else:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                problems.append(f"{key} must be a number")
                continue
            values[key] = float(value)
    if problems:
        raise ValidationError(f"{path}: " + "; ".join(problems))

    cfg = ExperimentConfig(**values)
    problems = _config_problems(cfg)
    if problems:
        raise ValidationError(f"{path}: " + "; ".join(problems))
    return cfg


def write_config(cfg: ExperimentConfig, path: str) -> None:
    """Write a config back to JSON; load_config inverts this exactly."""
    payload = dataclasses.asdict(cfg)
    payload["solvers"] = list(cfg.solvers)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_scenario(
    cfg: ExperimentConfig,
    *,
    power_dbm: float | None = None,
    duplex: str | None = None,
    altitude_km: float | None = None,
    overlap_mhz: float | None = None,
    access_weight: float | None = None,
) -> ScenarioParams:
    """Turn config table values into a linear-unit scenario.

    Keyword overrides exist for the sweep runners, which vary one or two
    table entries at a time while keeping the rest of the config.
    """
    power_dbm = cfg.total_power_dbm if power_dbm is None else power_dbm
    duplex = cfg.duplex if duplex is None else duplex
    altitude_km = cfg.altitude_km if altitude_km is None else altitude_km
    overlap_mhz = cfg.overlap_mhz if overlap_mhz is None else overlap_mhz
    access_weight = cfg.access_weight if access_weight is None else access_weight

    altitude_m = altitude_km * 1e3
    sat = SatelliteParams(
        antenna_gain=db_to_linear(cfg.satellite_antenna_gain_dbi),
        aperture_radius=cfg.aperture_radius_m,
        carrier_frequency=cfg.carrier_frequency_ghz * 1e9,
        altitude=altitude_m,
    )
    ue = GroundNodeParams(
        antenna_gain=db_to_linear(cfg.ue_antenna_gain_dbi),
        boresight_angle=math.radians(cfg.boresight_ue_deg),
        slant_distance=slant_distance(altitude_m, math.radians(cfg.boresight_ue_deg)),
    )
    bs = GroundNodeParams(
        antenna_gain=db_to_linear(cfg.bs_antenna_gain_dbi),
        boresight_angle=math.radians(cfg.boresight_bs_deg),
        slant_distance=slant_distance(altitude_m, math.radians(cfg.boresight_bs_deg)),
    )
    return ScenarioParams(
        total_power=dbm_to_watts(power_dbm),
        total_bandwidth=cfg.total_bandwidth_mhz * 1e6,
        overlap_bandwidth=overlap_mhz * 1e6,
        noise_density=dbm_to_watts(cfg.noise_density_dbm_hz),
        interference_density=dbm_to_watts(cfg.interference_density_dbm_hz),
        access_weight=access_weight,
        duplex=DuplexMode[duplex],
        beta_ue=channel_gain(sat, ue),
        beta_bs=channel_gain(sat, bs),
    )


@dataclass(frozen=True)
class SweepRow:
    """One solver run inside a sweep, flattened for CSV output."""

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


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))

def _row_sort_key(row: "SweepRow"):
    return (row.sweep_value, row.duplex, row.altitude_km, row.access_weight, row.solver)


def _pso_config(cfg: ExperimentConfig, rng_seed: int) -> PsoConfig:
    return PsoConfig(
        population_size=cfg.pso_population,
        max_iterations=cfg.pso_iterations,
        learning_factor_1=cfg.pso_learning_factor_1,
        learning_factor_2=cfg.pso_learning_factor_2,
        inertia_weight=cfg.pso_inertia_weight,
        rng_seed=rng_seed,
    )


def _row_seed(base_seed: int, row_index: int) -> int:
    # Stable per-row seed so sweep points can run in any order.
    return (base_seed * 1_000_003 + row_index) % 2**63


def _solve_one(scn: ScenarioParams, solver: str, cfg: ExperimentConfig, rng_seed: int) -> SolveResult:
    if solver == "exact":
        return solve_orthogonal(scn)
    if solver == "pso":
        return pso_solve(scn, _pso_config(cfg, rng_seed))
    if solver == "oracle":
        return grid_oracle(scn, cfg.oracle_resolution)
    raise ValidationError(f"unknown solver {solver!r}")


def _row(
    sweep: str,
    sweep_value: float,
    power_dbm: float,
    overlap_mhz: float,
    duplex: str,
    altitude_km: float,
    access_weight: float,
    solver: str,
    result: SolveResult | None,
) -> SweepRow:
    if result is None:
        nan = math.nan
        return SweepRow(
            sweep, sweep_value, power_dbm, overlap_mhz, duplex, altitude_km,
            access_weight, solver, nan, nan, nan, nan, nan, nan, nan, nan, False,
        )
    rep = result.report
    alloc = result.allocation
    return SweepRow(
        sweep=sweep,
        sweep_value=sweep_value,
        power_dbm=power_dbm,
        overlap_mhz=overlap_mhz,
        duplex=duplex,
        altitude_km=altitude_km,
        access_weight=access_weight,
        solver=solver,
        zeta_mbps=rep.maxmin_level / 1e6,
        rate_access_mbps=rep.rate_access / 1e6,
        rate_backhaul_mbps=rep.rate_backhaul / 1e6,
        throughput_mbps=rep.throughput / 1e6,
        p_ue_w=alloc.p_ue,
        p_bs_w=alloc.p_bs,
        w_a_hz=alloc.w_a,
        w_b_hz=alloc.w_b,
        converged=result.converged,
    )


def run_single(cfg: ExperimentConfig) -> list[SweepRow]:
    """Run every selected solver once on the configured scenario."""
    scn = build_scenario(cfg)
    rows = []
    for solver in sorted(cfg.solvers):
        result = _solve_one(scn, solver, cfg, cfg.seed)
        rows.append(
            _row("single", cfg.total_power_dbm, cfg.total_power_dbm, cfg.overlap_mhz,
                 cfg.duplex, cfg.altitude_km, cfg.access_weight, solver, result)
        )
    return rows


def _power_grid(cfg: ExperimentConfig) -> list[float]:
    count = int(math.floor((cfg.power_sweep_max_dbm - cfg.power_sweep_min_dbm)
                           / cfg.power_sweep_step_db + 1e-9)) + 1
    return [cfg.power_sweep_min_dbm + k * cfg.power_sweep_step_db for k in range(count)]


def _run_sweep(cfg: ExperimentConfig, points) -> list[SweepRow]:
    """Solve every sweep point with its solvers and return the sorted rows.

    points yields (fields, scenario, solvers) per point, fields being the
    SweepRow values before the solver name. Exact and oracle rows are
    solved point by point; all swarm rows then run as one pso_solve_many
    batch, each keyed by its point's _row_seed, so a row's result does not
    depend on the others. Solver failures are recorded as NaN rows.
    """
    rows = []
    swarm_fields, swarm_scns, swarm_seeds = [], [], []
    for row_index, (fields, scn, solvers) in enumerate(points):
        for solver in solvers:
            if solver == "pso":
                swarm_fields.append(fields)
                swarm_scns.append(scn)
                swarm_seeds.append(_row_seed(cfg.seed, row_index))
                continue
            try:
                result = _solve_one(scn, solver, cfg, cfg.seed)
            except Infeasible:
                result = None
            rows.append(_row(*fields, solver, result))
    if swarm_scns:
        results = pso_solve_many(swarm_scns, _pso_config(cfg, cfg.seed), swarm_seeds)
        rows.extend(_row(*fields, "pso", result) for fields, result in zip(swarm_fields, results))
    rows.sort(key=_row_sort_key)
    return rows


def run_power_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Throughput versus transmit power, for both duplex modes and both
    reference altitudes, with no bandwidth overlap.

    Solver failures are recorded as NaN rows instead of aborting the sweep.
    """
    if cfg.overlap_mhz != 0.0:
        raise ValidationError("the power sweep requires overlap_mhz = 0")
    solvers = sorted(cfg.solvers)

    def points():
        for power_dbm in _power_grid(cfg):
            for duplex in ("FDD", "TDD"):
                for altitude_km in POWER_SWEEP_ALTITUDES_KM:
                    scn = build_scenario(
                        cfg, power_dbm=power_dbm, duplex=duplex, altitude_km=altitude_km,
                        overlap_mhz=0.0,
                    )
                    fields = ("power", power_dbm, power_dbm, 0.0, duplex, altitude_km,
                              cfg.access_weight)
                    yield fields, scn, solvers

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
    sweep_solvers = tuple(s for s in sorted(cfg.solvers) if s != "exact")

    def points():
        for fraction in fractions:
            overlap_mhz = fraction * cfg.total_bandwidth_mhz
            for access_weight in OVERLAP_SWEEP_WEIGHTS:
                for duplex in ("FDD", "TDD"):
                    scn = build_scenario(
                        cfg, duplex=duplex, overlap_mhz=overlap_mhz, access_weight=access_weight,
                    )
                    fields = ("overlap", fraction, cfg.total_power_dbm, overlap_mhz, duplex,
                              cfg.altitude_km, access_weight)
                    solvers = sweep_solvers if fraction > 0.0 else tuple(sorted(set(sweep_solvers) | {"exact"}))
                    yield fields, scn, solvers

    return _run_sweep(cfg, points())


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def write_csv(rows: list[SweepRow], path: str) -> None:
    """Write sweep rows as RFC-4180 CSV (CRLF lines, fixed column order,
    floats at 9 significant digits). Deterministic byte output."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(getattr(row, name)) for name in CSV_COLUMNS])


def read_csv(path: str) -> list[SweepRow]:
    """Read rows previously written by :func:`write_csv`."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_COLUMNS:
            raise ValidationError(f"{path}: unexpected CSV header")
        for record in reader:
            kwargs = {}
            for name in CSV_COLUMNS:
                text = record[name]
                if name in ("sweep", "duplex", "solver"):
                    kwargs[name] = text
                elif name == "converged":
                    kwargs[name] = text == "true"
                else:
                    kwargs[name] = float(text)
            rows.append(SweepRow(**kwargs))
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


def _ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def emit_plot(rows: list[SweepRow], path: str) -> None:
    """Render the sweep as a self-contained SVG line chart.

    One polyline per (duplex, altitude, access weight, solver) series,
    throughput in Mbps on the y axis; the x axis is the sweep variable
    (transmit power in dBm, or overlap fraction spanning [0, 1]).
    """
    if not rows:
        raise ValueError("cannot plot an empty table")
    sweep = rows[0].sweep

    series: dict[tuple, list[tuple[float, float]]] = {}
    for row in rows:
        if math.isnan(row.throughput_mbps):
            continue
        key = (row.duplex, row.altitude_km, row.access_weight, row.solver)
        series.setdefault(key, []).append((row.sweep_value, row.throughput_mbps))
    for points in series.values():
        points.sort()

    varying = set()
    if len({k[1] for k in series}) > 1:
        varying.add("altitude")
    if len({k[2] for k in series}) > 1:
        varying.add("eps")

    if sweep == "overlap":
        x_lo, x_hi = 0.0, 1.0
        x_label = "Bandwidth overlap fraction w_o/W"
    else:
        xs = [x for pts in series.values() for x, _ in pts]
        x_lo, x_hi = min(xs), max(xs)
        if x_hi <= x_lo:
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
        x_label = "Transmit power (dBm)" if sweep == "power" else "Sweep value"
    y_label = "Throughput (Mbps)"
    ys = [y for pts in series.values() for _, y in pts]
    y_lo, y_hi = 0.0, (max(ys) if ys else 1.0) * 1.05
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
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in series[key])
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


def audit_rows(cfg: ExperimentConfig, rows: list[SweepRow], tol: float = 1e-6) -> list[str]:
    """Re-validate and re-evaluate every row's allocation.

    Returns one message per discrepancy: infeasible allocations and rates
    that disagree with the recorded values beyond the relative tolerance.
    """
    problems = []
    for index, row in enumerate(rows):
        if math.isnan(row.throughput_mbps):
            continue
        scn = build_scenario(
            cfg,
            power_dbm=row.power_dbm,
            duplex=row.duplex,
            altitude_km=row.altitude_km,
            overlap_mhz=row.overlap_mhz,
            access_weight=row.access_weight,
        )
        alloc = Allocation(p_ue=row.p_ue_w, p_bs=row.p_bs_w, w_a=row.w_a_hz, w_b=row.w_b_hz)
        violated = validate(scn, alloc, tol)
        if violated:
            problems.append(f"row {index}: allocation violates {', '.join(violated)}")
            continue
        report = evaluate(scn, alloc)
        recorded = {
            "zeta_mbps": (row.zeta_mbps, report.maxmin_level / 1e6),
            "rate_access_mbps": (row.rate_access_mbps, report.rate_access / 1e6),
            "rate_backhaul_mbps": (row.rate_backhaul_mbps, report.rate_backhaul / 1e6),
            "throughput_mbps": (row.throughput_mbps, report.throughput / 1e6),
        }
        for name, (got, want) in recorded.items():
            scale = max(abs(want), 1e-12)
            if abs(got - want) > tol * scale:
                problems.append(
                    f"row {index}: {name} recorded {got:.9g} but re-evaluates to {want:.9g}"
                )
    return problems


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
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    seed = cfg.seed
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as err:
            raise ValidationError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from err
    if args.seed is not None:
        seed = args.seed
    updates = {"seed": seed}
    if args.out is not None:
        updates["output_dir"] = args.out
    if getattr(args, "solvers", None) is not None:
        updates["solvers"] = tuple(s.strip() for s in args.solvers.split(",") if s.strip())
    if getattr(args, "resolution", None) is not None:
        updates["oracle_resolution"] = args.resolution
    cfg = dataclasses.replace(cfg, **updates)
    problems = _config_problems(cfg)
    if problems:
        raise ValidationError("; ".join(problems))
    return cfg


def _cmd_solve(args) -> int:
    cfg = _effective_config(args)
    rows = run_single(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_csv(rows, os.path.join(cfg.output_dir, "solve.csv"))
    _print_rows(rows, sys.stdout)
    return 0


def _cmd_oracle(args) -> int:
    cfg = _effective_config(args)
    cfg = dataclasses.replace(cfg, solvers=("oracle",))
    rows = run_single(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_csv(rows, os.path.join(cfg.output_dir, "oracle.csv"))
    _print_rows(rows, sys.stdout)
    return 0


def _cmd_sweep_power(args) -> int:
    cfg = _effective_config(args)
    rows = run_power_sweep(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_csv(rows, os.path.join(cfg.output_dir, "power_sweep.csv"))
    emit_plot(rows, os.path.join(cfg.output_dir, "power_sweep.svg"))
    print(f"wrote {len(rows)} rows to {cfg.output_dir}/power_sweep.csv")
    return 0


def _cmd_sweep_overlap(args) -> int:
    cfg = _effective_config(args)
    rows = run_overlap_sweep(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_csv(rows, os.path.join(cfg.output_dir, "overlap_sweep.csv"))
    emit_plot(rows, os.path.join(cfg.output_dir, "overlap_sweep.svg"))
    print(f"wrote {len(rows)} rows to {cfg.output_dir}/overlap_sweep.csv")
    return 0


def _cmd_audit(args) -> int:
    cfg = _effective_config(args)
    rows = read_csv(args.csv)
    problems = audit_rows(cfg, rows)
    if problems:
        for message in problems:
            print(message, file=sys.stderr)
        print(f"audit failed: {len(problems)} problem(s) in {len(rows)} row(s)", file=sys.stderr)
        return 1
    print(f"audit ok: {len(rows)} row(s)")
    return 0


def _add_common_arguments(parser: argparse.ArgumentParser, with_solvers: bool = True) -> None:
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--seed", type=int, help="override the RNG seed")
    parser.add_argument("--out", help="output directory")
    if with_solvers:
        parser.add_argument("--solvers", help="comma-separated subset of exact,pso,oracle")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="satiab",
        description="Satellite access/backhaul allocation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the selected solvers on one scenario")
    _add_common_arguments(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("sweep-power", help="throughput vs transmit power")
    _add_common_arguments(p)
    p.set_defaults(handler=_cmd_sweep_power)

    p = sub.add_parser("sweep-overlap", help="throughput vs bandwidth overlap")
    _add_common_arguments(p)
    p.set_defaults(handler=_cmd_sweep_overlap)

    p = sub.add_parser("oracle", help="brute-force grid solve of one scenario")
    _add_common_arguments(p, with_solvers=False)
    p.add_argument("--resolution", type=int, help="grid points per axis")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("audit", help="re-validate a previously written sweep CSV")
    _add_common_arguments(p, with_solvers=False)
    p.add_argument("--csv", required=True, help="CSV file to audit")
    p.set_defaults(handler=_cmd_audit)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ValidationError, Infeasible, ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
