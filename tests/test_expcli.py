"""Config loading, sweep runners, CSV/SVG output, auditing, and the CLI."""

import argparse
import csv
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import satiab
from satiab import (
    PsoConfig,
    ScenarioBatch,
    allocator,
    bandwidth_limits,
    dbm_to_watts,
    evaluate_many,
    expcli,
    ratemodel,
)
from satiab.allocator import grid_oracle, pso_solve, solve_orthogonal
from satiab.ratemodel import evaluate
from satiab.expcli import (
    _RANGES,
    CSV_COLUMNS,
    ExperimentConfig,
    SweepRow,
    ValidationError,
    audit_rows,
    build_scenario,
    build_scenarios,
    emit_plot,
    load_config,
    main,
    read_csv,
    run_overlap_sweep,
    run_power_sweep,
    run_single,
    write_csv,
)

from oracles import PAPER_DUPLEX_FACTORS, hertz_per_unit, per_point_build_scenarios, per_row_audit
from oracles import channel_gains, reference_cli_parser, row_scenario, stack


def in_hertz(alloc, duplex: str) -> tuple:
    """The four numbers alloc (p_ue, p_bs, w_a, w_b) of a batch of duplex mode duplex, its
    bandwidths in the CSV's hertz."""
    p_ue, p_bs, w_a, w_b = alloc
    return p_ue, p_bs, w_a * hertz_per_unit(duplex), w_b * hertz_per_unit(duplex)


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def small_config(**overrides) -> ExperimentConfig:
    values = dict(
        pso_population=8,
        pso_iterations=20,
        overlap_sweep_points=3,
        power_sweep_min_dbm=40.0,
        power_sweep_max_dbm=42.0,
        oracle_resolution=30,
    )
    values.update(overrides)
    return dataclasses.replace(ExperimentConfig(), **values)


# ------------------------------------------------------------------ config


def test_load_config_empty_object_gives_defaults(tmp_path):
    cfg = load_config(write_json(tmp_path / "cfg.json", {}))
    assert cfg == ExperimentConfig()
    scn = build_scenario(cfg)
    assert scn.total_bandwidth == 20e6  # airtime hertz: half the 40 MHz band's, in either mode
    assert scn.total_power == pytest.approx(10.0, rel=1e-12)
    assert scn.overlap_bandwidth == 0.0
    # each gain is the channel gain over the density, noise plus interference (FDD: alpha_o = 1)
    beta_ue, beta_bs = channel_gains(cfg, cfg.altitude_km)
    assert beta_ue / scn.gain_ue.item() == pytest.approx(2 * 3.981071705534973e-21, rel=1e-12, abs=0.0)
    assert beta_ue == pytest.approx(1.5734726039155016e-12, rel=1e-9, abs=0.0)
    assert beta_bs == pytest.approx(1.3589805953889354e-09, rel=1e-9, abs=0.0)
    assert scn.gain_ue == pytest.approx(1.5734726039155016e-12 / (2 * 3.981071705534973e-21), rel=1e-9, abs=0.0)
    assert scn.gain_bs == pytest.approx(1.3589805953889354e-09 / (2 * 3.981071705534973e-21), rel=1e-9, abs=0.0)


def test_load_config_power_conversion(tmp_path):
    cfg = load_config(write_json(tmp_path / "cfg.json", {"total_power_dbm": 40}))
    assert build_scenario(cfg).total_power == pytest.approx(10.0, rel=1e-12)


def test_load_config_rejects_oversized_overlap(tmp_path):
    with pytest.raises(ValidationError, match="overlap_mhz"):
        load_config(write_json(tmp_path / "cfg.json", {"overlap_mhz": 50}))


def test_load_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ValidationError, match="unknown key"):
        load_config(write_json(tmp_path / "cfg.json", {"overlap_mzh": 5}))


def test_load_config_rejects_bad_types(tmp_path):
    with pytest.raises(ValidationError, match="must be a number"):
        load_config(write_json(tmp_path / "cfg.json", {"total_power_dbm": "loud"}))
    with pytest.raises(ValidationError, match="must be an integer"):
        load_config(write_json(tmp_path / "cfg.json", {"seed": 1.5}))


@pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig), ids=lambda f: f.name)
def test_load_config_rejects_a_value_of_the_wrong_type(tmp_path, field):
    # each key takes the JSON type of its ExperimentConfig annotation
    wrong = {"float": ("1", True, None), "int": (1.5, True, "1"), "str": (5, ["FDD"]),
             "tuple[str, ...]": ("exact", [1], {})}[field.type]
    for value in wrong:
        with pytest.raises(ValidationError, match=f"{field.name} must be "):
            load_config(write_json(tmp_path / "cfg.json", {field.name: value}))


def test_load_config_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"total_power_dbm": 40,}')
    with pytest.raises(ValidationError, match=r"broken\.json:1:"):
        load_config(str(path))


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, '{"seed": ' + "9" * 5000 + "}"],
                         ids=["deeply-nested", "5000-digit-seed"])
def test_load_config_names_the_file_of_json_it_cannot_decode(tmp_path, capsys, text):
    # json.loads raises RecursionError for deep nesting and ValueError past
    # int's digit limit: each is a ValidationError naming the file
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=r"cfg\.json: "):
        load_config(str(path))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_load_config_rejects_exact_solver_with_overlap(tmp_path):
    payload = {"overlap_mhz": 10, "solvers": ["exact", "pso"]}
    with pytest.raises(ValidationError, match="exact solver"):
        load_config(write_json(tmp_path / "cfg.json", payload))


@pytest.mark.parametrize("text, key", [
    ('{"seed": 1, "seed": 2}', "'seed'"),
    ('{"duplex": "FDD", "seed": 2, "duplex": "TDD", "seed": 2}', "'duplex', 'seed'"),
])
def test_load_config_rejects_a_key_given_twice(tmp_path, capsys, text, key):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"^{path}: key given twice: {key}$"):
        load_config(str(path))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: key given twice: {key}\n"
    assert not out.exists()


@pytest.mark.parametrize("literal, value", [
    ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf"),
])
def test_load_config_names_a_non_finite_number(tmp_path, literal, value):
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"altitude_km": {literal}}}')
    with pytest.raises(ValidationError, match=f": altitude_km must be finite, got {value}$"):
        load_config(str(path))


def test_config_round_trip(tmp_path):
    cfg = small_config(duplex="TDD", access_weight=0.2, seed=99, solvers=("pso",), overlap_mhz=8.0)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    assert load_config(str(path)) == cfg


# --------------------------------------------------------------------- csv


def sample_row(**overrides) -> SweepRow:
    values = dict(
        sweep="power",
        sweep_value=40.0,
        power_dbm=40.0,
        overlap_mhz=0.0,
        duplex="FDD",
        altitude_km=600.0,
        access_weight=0.1,
        solver="exact",
        zeta_mbps=265.121129,
        rate_access_mbps=26.5121129,
        rate_backhaul_mbps=265.121129,
        throughput_mbps=291.633242,
        p_ue_w=3.349147,
        p_bs_w=6.650853,
        w_a_hz=3502431.47,
        w_b_hz=16497568.5,
        converged=True,
    )
    values.update(overrides)
    return SweepRow(**values)


def test_write_csv_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], str(path))
    content = path.read_bytes().decode()
    assert content == ",".join(CSV_COLUMNS) + "\r\n"


def test_write_csv_single_row(tmp_path):
    path = tmp_path / "one.csv"
    write_csv([sample_row()], str(path))
    lines = path.read_bytes().decode().split("\r\n")
    assert lines[-1] == ""
    lines = lines[:-1]
    assert len(lines) == 2
    for line in lines:
        assert line.count(",") == len(CSV_COLUMNS) - 1


def test_write_csv_deterministic_bytes(tmp_path):
    rows = [sample_row(), sample_row(duplex="TDD", zeta_mbps=244.876)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(rows, str(a))
    write_csv(rows, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_csv_round_trip(tmp_path):
    rows = [sample_row(), sample_row(solver="pso", converged=False, zeta_mbps=float("nan"))]
    path = tmp_path / "rows.csv"
    write_csv(rows, str(path))
    loaded = read_csv(str(path))
    assert len(loaded) == 2
    assert loaded[0].solver == "exact" and loaded[0].converged is True
    assert loaded[0].zeta_mbps == pytest.approx(rows[0].zeta_mbps, rel=1e-8)
    assert loaded[1].converged is False
    assert math.isnan(loaded[1].zeta_mbps)


def test_read_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b,c\r\n1,2,3\r\n")
    with pytest.raises(ValidationError, match="header"):
        read_csv(str(path))


# ------------------------------------------------------------------ sweeps


def test_power_sweep_structure_and_trends():
    cfg = small_config(solvers=("exact",))
    rows = run_power_sweep(cfg)
    # 3 power levels x 2 duplex modes x 2 altitudes x 1 solver
    assert len(rows) == 12
    assert rows == sorted(
        rows, key=lambda r: (r.sweep_value, r.duplex, r.altitude_km, r.access_weight, r.solver)
    )
    by_key = {(r.sweep_value, r.duplex, r.altitude_km): r.throughput_mbps for r in rows}
    for duplex in ("FDD", "TDD"):
        for altitude in (600.0, 1200.0):
            series = [by_key[(p, duplex, altitude)] for p in (40.0, 41.0, 42.0)]
            assert series == sorted(series)
    for power in (40.0, 41.0, 42.0):
        assert by_key[(power, "FDD", 600.0)] >= by_key[(power, "TDD", 600.0)]
        assert by_key[(power, "FDD", 600.0)] >= by_key[(power, "FDD", 1200.0)]


def test_power_sweep_exact_rows_equal_rows_solved_alone():
    cfg = small_config(solvers=("exact", "oracle"))
    exact_rows = [r for r in run_power_sweep(cfg) if r.solver == "exact"]
    assert len(exact_rows) == 12
    for row in exact_rows:
        scn = row_scenario(cfg, row)
        alloc, _, _ = solve_orthogonal(scn)
        assert (row.p_ue_w, row.p_bs_w, row.w_a_hz, row.w_b_hz) == in_hertz(alloc, row.duplex)
        assert row.zeta_mbps == evaluate(scn, alloc)[0] / 1e6
        assert row.converged


def test_power_sweep_rejects_overlap():
    cfg = small_config(overlap_mhz=4.0, solvers=("pso",))
    with pytest.raises(ValidationError):
        run_power_sweep(cfg)


def test_overlap_sweep_structure():
    cfg = small_config(solvers=("pso",))
    rows = run_overlap_sweep(cfg)
    fractions = sorted({r.sweep_value for r in rows})
    assert fractions == [0.0, 0.5, 1.0]
    pso_rows = [r for r in rows if r.solver == "pso"]
    exact_rows = [r for r in rows if r.solver == "exact"]
    # pso everywhere: 3 fractions x 3 weights x 2 modes; exact only at zero overlap
    assert len(pso_rows) == 18
    assert len(exact_rows) == 6
    assert all(r.sweep_value == 0.0 for r in exact_rows)
    assert all(r.overlap_mhz == r.sweep_value * cfg.total_bandwidth_mhz for r in rows)
    weights = sorted({r.access_weight for r in rows})
    assert weights == [0.05, 0.1, 0.2]


def test_overlap_sweep_requires_pso():
    with pytest.raises(ValidationError, match="pso"):
        run_overlap_sweep(small_config(solvers=("exact",)))


def test_overlap_sweep_deterministic():
    cfg = small_config(solvers=("pso",), seed=123)
    assert run_overlap_sweep(cfg) == run_overlap_sweep(cfg)


def test_overlap_sweep_seed_changes_rows():
    first = run_overlap_sweep(small_config(solvers=("pso",), seed=1))
    second = run_overlap_sweep(small_config(solvers=("pso",), seed=2))
    assert first != second


def test_sweep_rows_pass_audit(tmp_path):
    cfg = small_config(solvers=("pso",))
    rows = run_overlap_sweep(cfg)
    assert audit_rows(cfg, rows) == []
    path = tmp_path / "sweep.csv"
    write_csv(rows, str(path))
    assert audit_rows(cfg, read_csv(str(path))) == []


def test_audit_catches_tampering():
    cfg = small_config(solvers=("exact",))
    rows = run_power_sweep(cfg)
    tampered = rows[:3] + [rows[3]._replace(throughput_mbps=rows[3].throughput_mbps * 1.01)]
    problems = audit_rows(cfg, tampered)
    assert len(problems) == 1
    assert "throughput_mbps" in problems[0]


def rerated(cfg: ExperimentConfig, row: SweepRow) -> SweepRow:
    """row with its four rate cells re-evaluated from its allocation."""
    hertz = hertz_per_unit(row.duplex)
    alloc = np.array([[row.p_ue_w, row.p_bs_w, row.w_a_hz / hertz, row.w_b_hz / hertz]])
    zeta, rate_a, rate_b, throughput = (evaluate_many(row_scenario(cfg, row), alloc)[0] / 1e6).tolist()
    return row._replace(zeta_mbps=zeta, rate_access_mbps=rate_a, rate_backhaul_mbps=rate_b,
                        throughput_mbps=throughput)


def halved_power(cfg: ExperimentConfig, row: SweepRow) -> SweepRow:
    """row with half its powers, a feasible allocation that leaves power unspent, and rates to match."""
    return rerated(cfg, row._replace(p_ue_w=row.p_ue_w / 2, p_bs_w=row.p_bs_w / 2))


def tampered(cfg: ExperimentConfig, rows: list[SweepRow]) -> list[SweepRow]:
    """A copy of rows with every kind of problem the audit reports: non-finite
    rows marked converged and not, each of constraints 1a to 1d violated, rate
    mismatches and an unspent budget, interleaved so that the kinds alternate
    in row order."""
    rows = list(rows)

    def limits(row):  # the power budget and bandwidth_limits, in the CSV's hertz
        scn = row_scenario(cfg, row)
        hertz = hertz_per_unit(row.duplex)
        return scn.total_power.item(), *(limit.item() * hertz for limit in bandwidth_limits(scn))

    def edit(index, **changes):
        rows[index] = rows[index]._replace(**changes)

    edit(0, rate_access_mbps=rows[0].rate_access_mbps * 1.001)
    edit(1, zeta_mbps=math.nan, converged=True)
    edit(2, p_ue_w=1.01 * limits(rows[2])[0])  # 1a
    edit(3, rate_backhaul_mbps=math.inf, converged=False)
    band_cap = limits(rows[4])[1]
    edit(4, w_a_hz=0.51 * band_cap, w_b_hz=0.51 * band_cap)  # 1b
    edit(5, zeta_mbps=rows[5].zeta_mbps * 1.01, throughput_mbps=rows[5].throughput_mbps * 0.99)
    _, _, w_lo, w_hi = limits(rows[6])
    edit(6, w_a_hz=1.01 * w_hi, w_b_hz=w_lo)  # 1c
    edit(7, overlap_mhz=cfg.total_bandwidth_mhz / 2, w_a_hz=0.0)  # 1d
    edit(8, **dict.fromkeys(("zeta_mbps", "p_ue_w", "w_b_hz"), math.nan), converged=True)
    edit(9, rate_backhaul_mbps=rows[9].rate_backhaul_mbps * 1.5)
    rows[11] = halved_power(cfg, rows[11])
    return rows


def power_sweep_altitudes_mixed(cfg: ExperimentConfig) -> list[SweepRow]:
    """A power sweep's rows with the 1200 km rows first and every other
    600 km row among them, so neither altitude comes in one run."""
    rows = run_power_sweep(cfg)
    low = [row for row in rows if row.altitude_km == 600.0]
    high = [row for row in rows if row.altitude_km == 1200.0]
    return [row for pair in zip(high, low[::2] + low[1::2]) for row in pair]


@pytest.mark.parametrize("run, solvers", [
    (run_power_sweep, ("exact",)),
    (run_overlap_sweep, ("pso",)),
    (run_power_sweep, ("oracle",)),
    (power_sweep_altitudes_mixed, ("exact", "oracle")),
])
def test_audit_equals_the_per_row_audit(run, solvers):
    cfg = small_config(solvers=solvers)
    rows = run(cfg)
    assert len(rows) >= 12
    assert audit_rows(cfg, rows) == per_row_audit(cfg, rows) == []
    broken = tampered(cfg, rows)
    problems = audit_rows(cfg, broken)
    assert problems == per_row_audit(cfg, broken)
    text = "\n".join(problems)
    for constraint in ("1a", "1b", "1c", "1d"):
        assert constraint in text
    for index in (0, 1, 2, 4, 5, 6, 7, 8, 9):
        assert f"row {index}:" in text
    assert problems[-1] == "row 11: allocation leaves budget unspent: power"
    assert "row 3:" not in text and "row 10:" not in text
    assert audit_rows(cfg, []) == per_row_audit(cfg, []) == []


def test_build_scenarios_equals_scenarios_built_alone():
    cfg = ExperimentConfig()
    points = [
        (40.0, 0.0, "FDD", 600.0, 0.1),
        (45.5, 10.0, "TDD", 1200.0, 0.2),
        (50.0, 40.0, "TDD", 600.0, 1.0),
        (31.0, 0.0, "FDD", 900.0, 0.05),
        (40.0, 20.0, "FDD", 1200.0, 0.1),
        (40.0, 0.0, "FDD", 600.0, 0.1),
    ]
    alone = [
        build_scenario(dataclasses.replace(cfg, total_power_dbm=power_dbm, overlap_mhz=overlap_mhz,
                                           duplex=duplex, altitude_km=altitude_km,
                                           access_weight=access_weight))
        for power_dbm, overlap_mhz, duplex, altitude_km, access_weight in points
    ]
    batch, stacked = build_scenarios(cfg, points), stack(alone)
    for field in dataclasses.fields(ScenarioBatch):
        column = getattr(batch, field.name)
        assert column.shape == (len(points), 1)
        assert np.array_equal(column, getattr(stacked, field.name))
    assert alone[0] == alone[-1] == build_scenario(cfg)
    assert len(build_scenarios(cfg, [])) == 0


def test_channel_gain_runs_twice_per_altitude(tmp_path, monkeypatch):
    calls, channel_gain = [], expcli.channel_gain

    def counted(sat_gain, node_gain, boresight_angle, altitude, *rest):
        calls.append(altitude)
        return channel_gain(sat_gain, node_gain, boresight_angle, altitude, *rest)

    monkeypatch.setattr(expcli, "channel_gain", counted)
    cfg = small_config(solvers=("exact",))
    rows = run_power_sweep(cfg)
    assert len(rows) == 12 and calls == [600e3, 600e3, 1200e3, 1200e3]
    path = tmp_path / "sweep.csv"
    write_csv(rows, str(path))
    calls.clear()
    assert audit_rows(cfg, read_csv(str(path))) == []
    assert calls == [600e3, 600e3, 1200e3, 1200e3]


def test_dbm_to_watts_runs_once_per_distinct_power(tmp_path, monkeypatch):
    # twice for the noise and interference densities, then once per power
    calls, dbm_to_watts = [], expcli.dbm_to_watts

    def counted(p_dbm):
        calls.append(p_dbm)
        return dbm_to_watts(p_dbm)

    monkeypatch.setattr(expcli, "dbm_to_watts", counted)
    cfg = small_config(solvers=("exact",))
    rows = run_power_sweep(cfg)
    assert len(rows) == 12 and calls == [-174.0, -174.0, 40.0, 41.0, 42.0]
    path = tmp_path / "sweep.csv"
    write_csv(rows, str(path))
    calls.clear()
    assert audit_rows(cfg, read_csv(str(path))) == []
    assert calls == [-174.0, -174.0, 40.0, 41.0, 42.0]


def _pool(limits):
    return st.lists(st.floats(*limits), min_size=1, max_size=3)


@st.composite
def point_lists(draw):
    """Lists of valid points whose cells repeat, each drawn from a pool of
    at most three values per column."""
    pools = (_pool(_RANGES["total_power_dbm"]), _pool((0.0, ExperimentConfig().total_bandwidth_mhz)),
             st.lists(st.sampled_from(("FDD", "TDD")), min_size=1, max_size=2),
             _pool(_RANGES["altitude_km"]), _pool(_RANGES["access_weight"]))
    return draw(st.lists(st.tuples(*(st.sampled_from(draw(pool)) for pool in pools)), max_size=12))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(point_lists())
@example([])
def test_build_scenarios_equals_the_per_point_oracle(points):
    cfg = ExperimentConfig()
    want = per_point_build_scenarios(cfg, points)
    for got in (build_scenarios(cfg, points), build_scenarios(cfg, (point for point in points))):
        for field in dataclasses.fields(ScenarioBatch):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name


@pytest.mark.parametrize("points, error, message", [
    # of two points, the first bad one raises, whatever is bad in it
    ([(40.0, 0.0, "XDD", 600.0, 0.1), (40.0, 0.0, "FDD", -1.0, 0.1)], ValueError,
     "duplex must be FDD or TDD, got 'XDD'"),
    ([(40.0, 0.0, "FDD", -1.0, 0.1), (40.0, 0.0, "XDD", 600.0, 0.1)], ValueError,
     "altitude must be positive, got -1000.0"),
    ([(1e4, 0.0, "FDD", 600.0, 0.1), (40.0, 0.0, "XDD", 600.0, 0.1)], OverflowError, None),
    # within a point, the altitude raises first, then the power, then the duplex
    ([(40.0, 0.0, "XDD", -1.0, 0.1)], ValueError, "altitude must be positive, got -1000.0"),
    ([(1e4, 0.0, "FDD", -1.0, 0.1)], ValueError, "altitude must be positive, got -1000.0"),
    ([(1e4, 0.0, "XDD", 600.0, 0.1)], OverflowError, None),
])
def test_build_scenarios_raises_at_the_first_bad_point(points, error, message):
    with pytest.raises(error) as raised:
        build_scenarios(ExperimentConfig(), points)
    assert message is None or str(raised.value) == message


def test_one_list_of_duplex_names(tmp_path):
    # the table's keys are the CSV's duplex cells and the config's duplex values, FDD first
    names = tuple(expcli.DUPLEX_FACTORS)
    assert names == expcli._CELL_CHOICES["duplex"] == ("FDD", "TDD")
    for duplex in names:
        assert load_config(write_json(tmp_path / "cfg.json", {"duplex": duplex})).duplex == duplex
    for duplex in ("XDD", "fdd", "", "DuplexMode.FDD"):
        with pytest.raises(ValidationError) as raised:
            load_config(write_json(tmp_path / "cfg.json", {"duplex": duplex}))
        assert str(raised.value).endswith(f"duplex must be FDD or TDD, got {duplex!r}")
    cfg = ExperimentConfig()
    density = dbm_to_watts(cfg.noise_density_dbm_hz) + dbm_to_watts(cfg.interference_density_dbm_hz)
    beta_ue, beta_bs = channel_gains(cfg, cfg.altitude_km)
    for name, (alpha_o, alpha_1) in PAPER_DUPLEX_FACTORS.items():
        assert alpha_o * alpha_1 == 0.5
        scn = build_scenario(dataclasses.replace(cfg, duplex=name))
        assert (expcli.DUPLEX_FACTORS[name], scn.gain_ue.item(), scn.gain_bs.item()) == (
            1 / alpha_o, beta_ue / (density / alpha_o), beta_bs / (density / alpha_o))


def test_one_list_of_solver_names(tmp_path, capsys, monkeypatch):
    # the table's keys are the CSV's solver cells, the config's solver names and the --solvers help
    names = tuple(expcli._SOLVERS)
    assert names == expcli._CELL_CHOICES["solver"] == ("exact", "pso", "oracle")
    for solvers in [[name] for name in names] + [list(names)]:
        assert load_config(write_json(tmp_path / "cfg.json", {"solvers": solvers})).solvers == tuple(solvers)
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    assert tuple(re.search(r"subset of\s+(\S+)", capsys.readouterr().out)[1].split(",")) == names
    for name in ("EXACT", "SolverKind.PSO", "grid"):
        assert main(["solve", "--solvers", name, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: unknown solvers: {name!r}\n"
    assert not hasattr(satiab, "SolverKind") and "SolverKind" not in satiab.__all__
    # the names of expcli's rules are keys: "exact" in _config_problems and
    # run_overlap_sweep, "pso" in _run_sweep's particle-step cap
    overlapped = dataclasses.replace(ExperimentConfig(), overlap_mhz=10.0)
    assert [name for name in names if any("exact solver" in problem for problem in expcli._config_problems(
        dataclasses.replace(overlapped, solvers=(name,))))] == ["exact"]
    rows = run_overlap_sweep(small_config(solvers=("pso",), overlap_sweep_points=2))
    assert {(row.solver, row.sweep_value) for row in rows} == {("pso", 0.0), ("pso", 1.0), ("exact", 0.0)}
    huge = small_config(solvers=("pso",), pso_population=1000, pso_iterations=10_000,
                        power_sweep_min_dbm=30.0, power_sweep_max_dbm=60.0, power_sweep_step_db=0.1)
    monkeypatch.setattr(expcli, "pso_solve_many", None)  # the cap stops the run before any swarm
    with pytest.raises(ValidationError, match=r"^1204 pso rows x "):
        run_power_sweep(huge)


@pytest.mark.parametrize("solver, attribute", [
    ("exact", "solve_orthogonal_many"), ("pso", "pso_solve_many"), ("oracle", "grid_oracle_many")])
def test_each_solver_entry_looks_its_solver_up_in_expcli(monkeypatch, solver, attribute):
    # a function patched at the entry's expcli name is the one run_single calls, once, on the
    # one-row batch of the config's point; the row of that name holds its allocation, and
    # every row is that of the unpatched run
    cfg = small_config(solvers=tuple(expcli._SOLVERS))
    want, calls, solve = run_single(cfg), [], getattr(expcli, attribute)

    def patched(batch, *args):
        calls.append((batch, solve(batch, *args)))
        return calls[-1][1]

    monkeypatch.setattr(expcli, attribute, patched)
    rows = run_single(cfg)
    assert rows == want and {row.solver for row in rows} == set(expcli._SOLVERS)
    (batch, (alloc, _, _)), = calls
    scn = build_scenario(cfg)
    for field in dataclasses.fields(scn):
        assert np.array_equal(getattr(batch, field.name), getattr(scn, field.name))
    row, = (row for row in rows if row.solver == solver)
    assert [row.p_ue_w, row.p_bs_w, row.w_a_hz, row.w_b_hz] == list(in_hertz(alloc.tolist()[0], row.duplex))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(st.floats(*_RANGES["noise_density_dbm_hz"]), st.floats(*_RANGES["interference_density_dbm_hz"]))
@example(-174.0, -174.0)
def test_build_scenarios_density_is_noise_plus_interference(noise_dbm_hz, interference_dbm_hz):
    # each gain is the channel gain over the density, noise plus interference, over alpha_o,
    # to the bit, and a TDD row's gains are its FDD twin's halved, exactly
    cfg = dataclasses.replace(ExperimentConfig(), noise_density_dbm_hz=noise_dbm_hz,
                              interference_density_dbm_hz=interference_dbm_hz)
    points = [(40.0, 0.0, "FDD", 600.0, 0.1), (50.0, 0.0, "TDD", 1200.0, 1.0),
              (45.0, 0.0, "TDD", 600.0, 0.5), (40.0, 0.0, "FDD", 1200.0, 0.1)]
    batch = build_scenarios(cfg, points)
    gains = np.hstack((batch.gain_ue, batch.gain_bs))
    want = dbm_to_watts(noise_dbm_hz) + dbm_to_watts(interference_dbm_hz)
    assert gains.shape == (4, 2) and gains.tolist() == [
        [beta / (want * expcli.DUPLEX_FACTORS[duplex]) for beta in channel_gains(cfg, altitude_km)]
        for _, _, duplex, altitude_km, _ in points]
    assert (gains[[2, 1]] == gains[[0, 3]] / 2.0).all()  # TDD against FDD, at 600 and 1200 km


def test_run_single_produces_one_row_per_solver():
    cfg = small_config(solvers=("exact", "oracle", "pso"))
    rows = run_single(cfg)
    assert [r.solver for r in rows] == ["exact", "oracle", "pso"]
    assert all(r.sweep == "single" for r in rows)
    # each row is the solver called alone; the swarm is keyed by cfg.seed
    scn = build_scenario(cfg)
    swarm = PsoConfig(population_size=cfg.pso_population, max_iterations=cfg.pso_iterations)
    direct = [solve_orthogonal(scn), grid_oracle(scn, cfg.oracle_resolution),
              pso_solve(scn, swarm, cfg.seed)]
    for row, (alloc, _, converged) in zip(rows, direct):
        assert (row.p_ue_w, row.p_bs_w, row.w_a_hz, row.w_b_hz) == in_hertz(alloc, row.duplex)
        zeta, _, _, throughput = evaluate(scn, alloc)
        assert row.zeta_mbps == zeta / 1e6
        assert row.throughput_mbps == throughput / 1e6
        assert row.converged == converged


# -------------------------------------------------------------------- plot


def test_emit_plot_power_sweep(tmp_path):
    cfg = small_config(solvers=("exact",))
    rows = run_power_sweep(cfg)
    path = tmp_path / "power.svg"
    emit_plot(rows, str(path))
    content = path.read_text()
    ET.fromstring(content)  # well-formed XML
    assert content.count("<polyline") == 4  # 2 duplex modes x 2 altitudes
    assert "dBm" in content
    assert "Mbps" in content


def test_emit_plot_overlap_sweep_axis(tmp_path):
    cfg = small_config(solvers=("pso",))
    rows = run_overlap_sweep(cfg)
    path = tmp_path / "overlap.svg"
    emit_plot(rows, str(path))
    content = path.read_text()
    ET.fromstring(content)
    assert ">0<" in content and ">1<" in content  # x axis spans [0, 1]
    assert "w_o/W" in content


def test_emit_plot_labels_a_single_table_by_transmit_power(tmp_path):
    # a single row's sweep_value is its transmit power
    path = tmp_path / "single.svg"
    emit_plot(run_single(small_config(solvers=("exact",))), str(path))
    assert ">Transmit power (dBm)</text>" in path.read_text()


def test_emit_plot_rejects_empty():
    with pytest.raises(ValueError):
        emit_plot([], "unused.svg")


@pytest.mark.parametrize("sweep", ["power", "single", "overlap"])
def test_emit_plot_rejects_a_table_with_no_finite_throughput(tmp_path, sweep):
    # every kind of table raises one message, and writes no file
    rows = plot_table(sweep, [0.0, 0.5, 1.0], _POWER_SERIES, lambda i, j: math.nan)
    path = tmp_path / "plot.svg"
    with pytest.raises(ValueError, match="^cannot plot a table with no finite throughput$"):
        emit_plot(rows, str(path))
    with pytest.raises(ValueError, match="^cannot plot a table with no finite throughput$"):
        emit_plot([], str(path))
    assert not path.exists()


def plot_table(sweep, xs, series, throughput):
    """Rows of a synthetic sweep, last row first: one per x in xs and
    (duplex, altitude_km, access_weight, solver) in series, whose
    throughput is throughput(i, j) for the i-th x and the j-th series."""
    return [sample_row(sweep=sweep, sweep_value=x, duplex=duplex, altitude_km=altitude_km,
                       access_weight=access_weight, solver=solver, throughput_mbps=throughput(i, j))
            for i, x in enumerate(xs) for j, (duplex, altitude_km, access_weight, solver) in enumerate(series)
            ][::-1]


_POWER_SERIES = [("FDD", 600.0, 0.1, "exact"), ("TDD", 600.0, 0.1, "exact"), ("FDD", 1200.0, 0.1, "pso"),
                 ("TDD", 1200.0, 0.1, "oracle")]
_PLOT_TABLES = {
    "power": plot_table("power", [30.0 + 0.3 * i for i in range(11)], _POWER_SERIES,
                        lambda i, j: 150.0 + 13.7 * i - 21.3 * j + 0.0137 * i * i),
    "overlap": plot_table("overlap", [i / 6 for i in range(7)],
                          [(d, 600.0, e, "pso") for d in ("FDD", "TDD") for e in (0.05, 0.1, 0.2)],
                          lambda i, j: 310.0 - 9.1 * i / (j + 1) + 4.4 * j)
               + plot_table("overlap", [0.0], [("FDD", 600.0, 0.1, "exact")], lambda i, j: 297.25),
    "one point": plot_table("power", [40.0], _POWER_SERIES[:2], lambda i, j: 291.633242 - 40.5 * j),
    "zero throughput": plot_table("power", [40.0, 41.0, 42.0], _POWER_SERIES, lambda i, j: 0.0),
    "nan throughput": plot_table("power", [40.0, 45.5, 51.0], _POWER_SERIES,
                                 lambda i, j: math.nan if (i, j) == (1, 2) else 88.8 * (i + 1) + 0.75 * j),
}


@pytest.mark.parametrize("name, sha256", [
    ("power", "c67e08fdea53a8ec7d96bd3c25715505e401c521ae34f70bac9ba2f5d25acf31"),
    ("overlap", "46ac61b0de2b709032e6dc6f63d4ee0ac65c9b1e03113968fff30b8d5da556a3"),
    ("one point", "d1b84926b8c69eed55d66262376a33ee5ea76cd64328a3fd86356b1328a745c6"),
    ("zero throughput", "5fb0385d9cb11c0877d99690030d85d33457018d0f0f338e39f6110a32e7c6b6"),
    ("nan throughput", "1e8fa96ce27c43a2ef70dba9bcd51b9338eedd7cafde868b63e1037c6c18c7a5"),
])
def test_emit_plot_bytes(tmp_path, name, sha256):
    # digests of the SVGs as the per-point emit_plot wrote them; the tables
    # use only exactly rounded arithmetic, so no libm enters the bytes
    path = tmp_path / "plot.svg"
    emit_plot(_PLOT_TABLES[name], str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


# --------------------------------------------------------------------- cli


def cli_config(tmp_path, **overrides) -> str:
    payload = dict(
        pso_population=8,
        pso_iterations=20,
        overlap_sweep_points=3,
        power_sweep_min_dbm=40.0,
        power_sweep_max_dbm=41.0,
        oracle_resolution=30,
    )
    payload.update(overrides)
    return write_json(tmp_path / "config.json", payload)


def test_cli_solve(tmp_path, capsys):
    cfg = cli_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "solve.csv").exists()
    assert "exact" in capsys.readouterr().out


def test_cli_solve_oracle_solver(tmp_path):
    cfg = cli_config(tmp_path, oracle_resolution=25)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--solvers", "oracle"]) == 0
    rows = read_csv(str(out / "solve.csv"))
    assert [r.solver for r in rows] == ["oracle"]
    (p_ue, _, _, _), _, _ = grid_oracle(build_scenario(load_config(cfg)), 25)
    assert rows[0].p_ue_w == pytest.approx(p_ue, rel=1e-8)


def test_cli_sweep_power_writes_outputs(tmp_path):
    cfg = cli_config(tmp_path, solvers=["exact"])
    out = tmp_path / "out"
    assert main(["sweep-power", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "power_sweep.csv").exists()
    assert (out / "power_sweep.svg").exists()


def test_cli_validation_error_exit_code(tmp_path):
    cfg = cli_config(tmp_path, overlap_mhz=50)
    assert main(["solve", "--config", cfg]) == 1


def test_cli_missing_config_is_io_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("command", ["solve", "sweep-power", "sweep-overlap"])
def test_cli_run_with_an_empty_config_path_is_io_error(tmp_path, capsys, command):
    # only an absent --config means the default config: "" names a file that cannot be opened
    out = tmp_path / "out"
    assert main([command, "--config", "", "--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.out == "" and printed.err.startswith("i/o error: ") and printed.err.count("\n") == 1
    assert not out.exists()


def test_cli_audit_with_an_empty_config_path_is_io_error(tmp_path, capsys):
    # the default solve's CSV passes its audit without --config, but not with an empty one
    csv_path = tmp_path / "solve.csv"
    write_csv(run_single(ExperimentConfig()), str(csv_path))
    assert main(["audit", "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    assert main(["audit", "--config", "", "--csv", str(csv_path)]) == 2
    printed = capsys.readouterr()
    assert printed.out == "" and printed.err.startswith("i/o error: ") and printed.err.count("\n") == 1


def test_cli_unwritable_output_is_io_error(tmp_path):
    cfg = cli_config(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    assert main(["solve", "--config", cfg, "--out", str(blocker)]) == 2


def test_cli_audit_round_trip(tmp_path):
    cfg = cli_config(tmp_path, solvers=["pso"])
    out = tmp_path / "out"
    assert main(["sweep-overlap", "--config", cfg, "--out", str(out)]) == 0
    csv_path = out / "overlap_sweep.csv"
    assert main(["audit", "--config", cfg, "--csv", str(csv_path)]) == 0
    # tamper one recorded rate and the audit must fail
    text = csv_path.read_text()
    rows = read_csv(str(csv_path))
    broken = [rows[0]._replace(rate_access_mbps=rows[0].rate_access_mbps * 2)] + rows[1:]
    write_csv(broken, str(csv_path))
    assert main(["audit", "--config", cfg, "--csv", str(csv_path)]) == 1
    csv_path.write_text(text)


@pytest.mark.parametrize("converged, exit_code", [(True, 1), (False, 0)])
def test_cli_audit_flags_non_finite_rows_marked_converged(tmp_path, capsys, converged, exit_code):
    cfg = cli_config(tmp_path, solvers=["exact"])
    rows = run_power_sweep(load_config(cfg))
    results = ("zeta_mbps", "rate_access_mbps", "rate_backhaul_mbps", "throughput_mbps", "p_ue_w")
    failed = rows[0]._replace(**dict.fromkeys(results, math.nan), converged=converged)
    csv_path = tmp_path / "sweep.csv"
    write_csv([failed] + rows[1:], str(csv_path))
    assert main(["audit", "--config", cfg, "--csv", str(csv_path)]) == exit_code
    if converged:
        assert "row 0: marked converged but holds a non-finite value" in capsys.readouterr().err


def audited_csv(tmp_path, edit):
    """Config path and the path of a 12-row exact power-sweep CSV whose
    table of cells (header first) edit has changed in place."""
    cfg = cli_config(tmp_path, solvers=["exact"], power_sweep_max_dbm=42.0)
    csv_path = tmp_path / "sweep.csv"
    write_csv(run_power_sweep(load_config(cfg)), str(csv_path))
    with open(csv_path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    edit(table)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(table)
    return cfg, str(csv_path)


def assert_audit_fails_cleanly(capsys, cfg, csv_path) -> str:
    assert main(["audit", "--config", cfg, "--csv", csv_path]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def test_cli_audit_rejects_an_unknown_duplex(tmp_path, capsys):
    def edit(table):
        table[1][CSV_COLUMNS.index("duplex")] = "XDD"

    cfg, csv_path = audited_csv(tmp_path, edit)
    err = assert_audit_fails_cleanly(capsys, cfg, csv_path)
    assert err == f"error: {csv_path}:2: duplex must be one of FDD, TDD, got 'XDD'\n"


@pytest.mark.parametrize("cells", [-1, +1])
def test_cli_audit_rejects_a_short_or_long_row(tmp_path, capsys, cells):
    def edit(table):
        table[2] = table[2][:cells] if cells < 0 else table[2] + ["1"]

    err = assert_audit_fails_cleanly(capsys, *audited_csv(tmp_path, edit))
    assert err.startswith("error: ") and ":3: expected 17 cells" in err


@pytest.mark.parametrize("column, text", [
    ("converged", "TRUE"),
    ("converged", "True"),
    ("converged", "1"),
    ("converged", ""),
    ("solver", "bogus"),
    ("solver", "EXACT"),
    ("sweep", "bogus"),
])
def test_cli_audit_rejects_an_unknown_text_cell(tmp_path, capsys, column, text):
    def edit(table):
        if column == "converged":
            # a solver failure: read as not converged, the row would be skipped
            for name in ("zeta_mbps", "rate_access_mbps", "rate_backhaul_mbps", "throughput_mbps"):
                table[2][CSV_COLUMNS.index(name)] = "nan"
        table[2][CSV_COLUMNS.index(column)] = text

    err = assert_audit_fails_cleanly(capsys, *audited_csv(tmp_path, edit))
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f":3: {column} must be one of " in err and repr(text) in err


@pytest.mark.parametrize("column, text", [("p_bs_w", "abc"), ("zeta_mbps", ""), ("power_dbm", "1;5")])
def test_cli_audit_rejects_a_numeric_cell_that_is_not_a_number(tmp_path, capsys, column, text):
    def edit(table):
        table[2][CSV_COLUMNS.index(column)] = text

    err = assert_audit_fails_cleanly(capsys, *audited_csv(tmp_path, edit))
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f":3: {column} must be a number, got {text!r}" in err


def with_cell(line: bytes, column: str, text: bytes) -> bytes:
    cells = line.split(b",")
    cells[CSV_COLUMNS.index(column)] = text
    return b",".join(cells)


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda lines: lines[:2] + [lines[2][:-2] + b"\n"] + lines[3:],
                 r":3: converged must be one of true, false, got 'true\n'", id="lf-on-one-line"),
    pytest.param(lambda lines: [line[:-2] + b"\n" for line in lines], ": unexpected CSV header",
                 id="lf-on-all-lines"),
    pytest.param(lambda lines: lines[:1] + [with_cell(lines[1], "power_dbm", b'"40"')] + lines[2:],
                 """:2: power_dbm must be a number, got '"40"'""", id="quoted-cell"),
    pytest.param(lambda lines: lines[:2] + [b"\r\n"] + lines[2:], ":3: expected 17 cells", id="blank-line"),
    pytest.param(lambda lines: lines[:-1] + [lines[-1][:-2]],
                 r":13: converged must be written 'true\r\n', got 'true'", id="no-final-crlf"),
    # csv.writer quotes a cell that holds a comma, but read_csv splits on every comma
    pytest.param(lambda lines: lines[:2] + [with_cell(lines[2], "power_dbm", b'"1,5"')] + lines[3:],
                 ":3: expected 17 cells", id="quoted-comma"),
])
def test_cli_audit_rejects_a_line_that_write_csv_would_not_write(tmp_path, capsys, edit, message):
    # the csv module reads each of these, but write_csv writes none of them
    cfg, csv_path = audited_csv(tmp_path, lambda table: None)
    lines = Path(csv_path).read_bytes().splitlines(keepends=True)
    assert all(line.endswith(b"\r\n") for line in lines) and len(lines) == 13
    Path(csv_path).write_bytes(b"".join(edit(lines)))
    assert assert_audit_fails_cleanly(capsys, cfg, csv_path) == f"error: {csv_path}{message}\n"


def test_cli_audit_rejects_a_cell_beyond_the_csv_field_limit(tmp_path, capsys):
    # read_csv names such a cell with the csv module's own message and limit
    def edit(table):
        table[2][CSV_COLUMNS.index("duplex")] = "F" * (csv.field_size_limit() + 1)

    err = assert_audit_fails_cleanly(capsys, *audited_csv(tmp_path, edit))
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ":3: field larger than field limit" in err


def test_cli_solve_names_a_config_that_is_not_utf8(tmp_path, capsys):
    # the file is decoded at once, so the position is the byte's in the file
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_bytes(b'{"seed": 1, "duplex": "\xff"}\n')
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {config}: 'utf-8' codec can't decode byte 0xff in position "
                                       "23: invalid start byte\n")
    assert not out.exists()


def test_cli_audit_names_a_csv_that_is_not_utf8(tmp_path, capsys):
    # the file is decoded a line at a time, and the message names the file alone
    def edit(table):
        table[2][CSV_COLUMNS.index("duplex")] = "FD?"

    cfg, csv_path = audited_csv(tmp_path, edit)
    Path(csv_path).write_bytes(Path(csv_path).read_bytes().replace(b"FD?", b"FD\xff"))
    err = assert_audit_fails_cleanly(capsys, cfg, csv_path)
    assert err == f"error: {csv_path}: not UTF-8 text (invalid start byte)\n"


def test_cli_audit_of_a_csv_without_rows_fails(tmp_path, capsys):
    # a header alone checks nothing, so the audit cannot pass it
    def edit(table):
        del table[1:]

    cfg, csv_path = audited_csv(tmp_path, edit)
    assert read_csv(csv_path) == []
    assert assert_audit_fails_cleanly(capsys, cfg, csv_path) == f"error: {csv_path}: no rows to audit\n"


def test_cli_audit_tiny_overlap_with_a_zero_bandwidth(tmp_path, capsys):
    # the overlap is below the tolerance of validate, so the row is audited
    # with w_a = 0 under overlap: both rates re-evaluate to zero
    def edit(table):
        table[1][CSV_COLUMNS.index("overlap_mhz")] = "1e-05"
        table[1][CSV_COLUMNS.index("w_a_hz")] = "0"

    err = assert_audit_fails_cleanly(capsys, *audited_csv(tmp_path, edit))
    assert "row 0: zeta_mbps recorded" in err and "re-evaluates to 0\n" in err


def twelve_row_csv(tmp_path, bad_cells):
    """audited_csv with the cells of bad_cells, {row index: {column: text}}."""
    def edit(table):
        assert len(table) == 13
        for index, cells in bad_cells.items():
            for column, text in cells.items():
                table[1 + index][CSV_COLUMNS.index(column)] = text

    return audited_csv(tmp_path, edit)


def failed_audit(problems: list[str], rows: int = 12) -> str:
    """The stderr of an audit of rows rows that reports problems."""
    return "".join(f"{message}\n" for message in problems) + \
        f"audit failed: {len(problems)} problem(s) in {rows} row(s)\n"


@pytest.mark.parametrize("column, text", [
    ("overlap_mhz", "40.5"),
    ("overlap_mhz", "-1"),
    ("access_weight", "0"),
    ("access_weight", "1.5"),
    ("power_dbm", "-4000"),  # P underflows to 0 W
    ("altitude_km", "-1"),
])
def test_cli_audit_of_a_bad_point_raises_the_message_of_the_point_alone(tmp_path, capsys, column,
                                                                          text):
    # the row is reported by the config's range for its column, and no other row
    cfg, csv_path = twelve_row_csv(tmp_path, {6: {column: text}})
    problems = per_row_audit(load_config(cfg), read_csv(csv_path))
    assert len(problems) == 1 and problems[0].startswith(f"row 6: {column}={text} must lie in [")
    assert assert_audit_fails_cleanly(capsys, cfg, csv_path) == failed_audit(problems)


@pytest.mark.parametrize("column, text, converged, message", [
    ("power_dbm", "4000", "true", "power_dbm=4000 must lie in [-100, 100]"),
    ("power_dbm", "150", "true", "power_dbm=150 must lie in [-100, 100]"),
    ("access_weight", "1e-300", "true", "access_weight=1e-300 must lie in [1e-06, 1]"),
    ("power_dbm", "nan", "false", "power_dbm=nan must lie in [-100, 100]"),
    ("altitude_km", "inf", "false", "altitude_km=inf must lie in [1, 100000]"),
    ("access_weight", "nan", "true", "access_weight=nan must lie in [1e-06, 1]"),
    ("overlap_mhz", "50", "true", "overlap_mhz=50 must lie in [0, 40]"),
    ("p_ue_w", "-1", "true", "allocation violates 1a"),
])
def test_cli_audit_reports_a_bad_point_or_power_on_its_row(tmp_path, capsys, column, text, converged,
                                                          message):
    # a point outside the config's ranges (NaN and inf too, converged or not)
    # or a negative power is a problem of its row
    cfg, csv_path = twelve_row_csv(tmp_path, {6: {column: text, "converged": converged}})
    assert assert_audit_fails_cleanly(capsys, cfg, csv_path) == failed_audit([f"row 6: {message}"])
    assert per_row_audit(load_config(cfg), read_csv(csv_path)) == [f"row 6: {message}"]


@pytest.mark.parametrize("cells, message", [
    ({"sweep_value": "99"}, "sweep_value=99 != power_dbm=41"),
    ({"sweep": "overlap"}, "sweep_value=41 != overlap_mhz/total_bandwidth_mhz=0"),
    ({"sweep_value": "nan"}, "sweep_value=nan != power_dbm=41"),
    ({"sweep_value": "inf"}, "sweep_value=inf != power_dbm=41"),
])
def test_cli_audit_checks_a_row_sweep_cells(tmp_path, capsys, cells, message):
    # row 5 is at 41 dBm: its sweep_value must be its power, and relabelled
    # an overlap row, the overlap fraction, which is 0; a non-finite
    # sweep_value is neither, and it makes the converged row non-finite
    cfg, csv_path = twelve_row_csv(tmp_path, {5: cells})
    problems = [f"row 5: {message}"]
    if not math.isfinite(float(cells.get("sweep_value", 0))):
        problems.append("row 5: marked converged but holds a non-finite value")
    assert assert_audit_fails_cleanly(capsys, cfg, csv_path) == failed_audit(problems)
    assert per_row_audit(load_config(cfg), read_csv(csv_path)) == problems


@pytest.mark.parametrize("sweep_value, mislabelled", [
    (0.500000004, False), (0.499999996, False), (0.500000006, True), (0.499999994, True),
])
def test_cli_audit_checks_an_overlap_row_sweep_value_to_1e_8_relative(tmp_path, capsys, sweep_value,
                                                                      mislabelled):
    # an overlap row's sweep_value must be its overlap fraction, here 0.5, within 1e-8 of it
    cfg = cli_config(tmp_path, solvers=["pso"])
    rows = run_overlap_sweep(load_config(cfg))
    index = [row.sweep_value for row in rows].index(0.5)
    rows[index] = rows[index]._replace(sweep_value=sweep_value)
    csv_path = str(tmp_path / "sweep.csv")
    write_csv(rows, csv_path)
    problems = [f"row {index}: sweep_value=0.5 != overlap_mhz/total_bandwidth_mhz=0.5"] if mislabelled else []
    assert per_row_audit(load_config(cfg), read_csv(csv_path)) == problems
    if mislabelled:
        assert assert_audit_fails_cleanly(capsys, cfg, csv_path) == failed_audit(problems, rows=len(rows))
    else:
        assert main(["audit", "--config", cfg, "--csv", csv_path]) == 0
        assert capsys.readouterr().out == f"audit ok: {len(rows)} row(s)\n"


def test_cli_audit_rejects_a_row_that_leaves_power_unspent(tmp_path, capsys):
    # halved powers are feasible and their recomputed rates re-evaluate, but
    # the row's max-min level falls well below the exact solver's
    cfg = cli_config(tmp_path, solvers=["exact"], power_sweep_max_dbm=42.0)
    rows = run_power_sweep(load_config(cfg))
    rows[0] = halved_power(load_config(cfg), rows[0])
    csv_path = str(tmp_path / "sweep.csv")
    write_csv(rows, csv_path)
    problems = ["row 0: allocation leaves budget unspent: power"]
    assert per_row_audit(load_config(cfg), read_csv(csv_path)) == problems
    assert assert_audit_fails_cleanly(capsys, cfg, csv_path) == failed_audit(problems)


def test_cli_audit_skips_a_solver_failure(tmp_path, capsys):
    # a non-finite allocation cell in a row not marked converged
    cfg, csv_path = twelve_row_csv(tmp_path, {6: {"p_ue_w": "nan", "converged": "false"}})
    assert main(["audit", "--config", cfg, "--csv", csv_path]) == 0
    assert capsys.readouterr().out == "audit ok: 12 row(s)\n"


def test_cli_audit_of_two_bad_points_reports_both_in_row_order(tmp_path, capsys):
    cfg, csv_path = twelve_row_csv(tmp_path, {2: {"access_weight": "0"}, 9: {"overlap_mhz": "50"}})
    problems = ["row 2: access_weight=0 must lie in [1e-06, 1]",
                "row 9: overlap_mhz=50 must lie in [0, 40]"]
    assert per_row_audit(load_config(cfg), read_csv(csv_path)) == problems
    assert assert_audit_fails_cleanly(capsys, cfg, csv_path) == failed_audit(problems)


def test_cli_audit_passes_a_full_overlap_written_above_the_bandwidth(tmp_path, capsys):
    # the full-overlap rows write 12.34567896 MHz as 12.345679, above the
    # config's bandwidth; the audit takes the bandwidth as the CSV writes it
    cfg = cli_config(tmp_path, solvers=["pso"], total_bandwidth_mhz=12.34567896)
    out = tmp_path / "out"
    assert main(["sweep-overlap", "--config", cfg, "--out", str(out)]) == 0
    csv_path = str(out / "overlap_sweep.csv")
    rows = read_csv(csv_path)
    assert [row.overlap_mhz for row in rows if row.sweep_value == 1.0] == [12.345679] * 6
    assert per_row_audit(load_config(cfg), rows) == []
    capsys.readouterr()
    assert main(["audit", "--config", cfg, "--csv", csv_path]) == 0
    assert capsys.readouterr().out == f"audit ok: {len(rows)} row(s)\n"


def test_cli_audit_reports_an_overlap_above_the_written_bandwidth_at_9_digits(tmp_path, capsys):
    cfg = cli_config(tmp_path, solvers=["exact"], power_sweep_max_dbm=42.0, total_bandwidth_mhz=12.34567896)
    rows = run_power_sweep(load_config(cfg))
    rows[6] = rows[6]._replace(overlap_mhz=12.3456791)
    csv_path = str(tmp_path / "sweep.csv")
    write_csv(rows, csv_path)
    problems = ["row 6: overlap_mhz=12.3456791 must lie in [0, 12.345679]"]
    assert per_row_audit(load_config(cfg), read_csv(csv_path)) == problems
    assert assert_audit_fails_cleanly(capsys, cfg, csv_path) == failed_audit(problems)


def test_cli_exact_row_at_zero_level_spends_the_power_and_passes_audit(tmp_path, capsys):
    # every value is in range, and the SINR at the whole budget is so small
    # that 1 + SINR rounds to 1, which once left the level at 0; log1p keeps
    # it, so the exact row has a positive level, at least the oracle's, and
    # spends both budgets
    cfg = write_json(tmp_path / "cfg.json", {"total_power_dbm": -100, "altitude_km": 100000,
                                             "total_bandwidth_mhz": 100000, "solvers": ["exact", "oracle"]})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    exact, oracle = read_csv(str(out / "solve.csv"))
    assert (exact.solver, oracle.solver) == ("exact", "oracle")
    assert exact.zeta_mbps >= oracle.zeta_mbps > 0.0 and exact.zeta_mbps < 1e-13
    assert exact.p_ue_w + exact.p_bs_w == pytest.approx(1e-13, rel=1e-9, abs=0.0)
    assert exact.w_a_hz + exact.w_b_hz == pytest.approx(5e10, rel=1e-9)
    assert per_row_audit(load_config(cfg), [exact, oracle]) == []
    capsys.readouterr()
    assert main(["audit", "--config", cfg, "--csv", str(out / "solve.csv")]) == 0
    assert capsys.readouterr().out == "audit ok: 2 row(s)\n"


def test_build_scenarios_of_two_bad_points_raises_the_first_failing_condition():
    # the first point's access weight is bad and the second's overlap; the
    # batch tests the overlap first, so its message wins
    points = [(40.0, 0.0, "FDD", 600.0, 0.0), (40.0, 50.0, "TDD", 600.0, 0.1)]
    with pytest.raises(ValueError, match=r"^overlap_bandwidth must lie in \[0, total_bandwidth\]$"):
        build_scenarios(ExperimentConfig(), points)
    with pytest.raises(ValueError, match=r"^access_weight must lie in \(0, 1\]$"):
        build_scenarios(ExperimentConfig(), points[:1])


@pytest.mark.parametrize("cells, name", [
    ({4: {"w_b_hz": "-1"}, 7: {"p_ue_w": "-1"}}, "w_b"),
    ({4: {"w_a_hz": "-1", "p_bs_w": "-1"}}, "p_bs"),
])
def test_cli_audit_of_a_negative_allocation_cell(tmp_path, capsys, cells, name):
    # a negative power violates 1a on its row; a -1 Hz bandwidth lies within
    # the slack of 1d, so its row is evaluated, with a zero rate on that link
    cfg, csv_path = twelve_row_csv(tmp_path, cells)
    problems = per_row_audit(load_config(cfg), read_csv(csv_path))
    assert assert_audit_fails_cleanly(capsys, cfg, csv_path) == failed_audit(problems)
    row_4 = [message for message in problems if message.startswith("row 4: ")]
    if name == "p_bs":
        assert problems == row_4 == ["row 4: allocation violates 1a"]
    else:
        assert [message.split()[2] for message in row_4] == ["zeta_mbps", "rate_backhaul_mbps",
                                                             "throughput_mbps"]
        assert all(message.endswith("re-evaluates to 0") for message in row_4[:2])
        assert problems == row_4 + ["row 7: allocation violates 1a"]


def test_sweeps_and_audit_construct_no_per_row_objects(monkeypatch):
    cfg = small_config(solvers=("exact", "pso", "oracle"))
    broken = tampered(cfg, run_power_sweep(cfg))
    want = per_row_audit(cfg, broken)
    # a scenario is a one-row batch: every batch built here holds a call's rows, none one row
    sizes, check, take = [], ScenarioBatch.__post_init__, ScenarioBatch.take
    monkeypatch.setattr(ScenarioBatch, "__post_init__", lambda self: (sizes.append(len(self)), check(self)))

    def counted_take(self, rows):  # take builds its batch without __post_init__
        taken = take(self, rows)
        sizes.append(len(taken))
        return taken

    monkeypatch.setattr(ScenarioBatch, "take", counted_take)
    power, overlap = run_power_sweep(cfg), run_overlap_sweep(cfg)
    assert len(power) == 36 and len(overlap) == 42
    assert audit_rows(cfg, power) == audit_rows(cfg, overlap) == []
    assert audit_rows(cfg, broken) == want
    assert sizes and min(sizes) > 1


@pytest.mark.parametrize("source", ["config", "flag"])
def test_cli_rejects_a_repeated_solver(tmp_path, capsys, source):
    out = tmp_path / "out"
    if source == "config":
        argv = ["sweep-overlap", "--config", cli_config(tmp_path, solvers=["pso", "pso"])]
    else:
        argv = ["solve", "--config", cli_config(tmp_path), "--solvers", "exact,exact,pso"]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert err.rstrip().endswith("repeated solvers: " + ("pso" if source == "config" else "exact"))
    assert not out.exists()


_MANY = 10**5  # entries of a config or a --solvers list: a check quadratic in them takes minutes


@pytest.mark.parametrize("case", ["distinct keys", "keys given twice", "one solver", "distinct solvers",
                                  "one solver by flag", "distinct solvers by flag", "mixed solvers by flag"])
def test_config_checks_take_linear_time(tmp_path, capsys, case):
    # each distinct key and solver name is counted once; the messages are those of the checks
    # that counted every entry again, in the same order, and every case exits 1
    path, names, half = tmp_path / "cfg.json", [f"s{i}" for i in range(_MANY)], range(_MANY // 2)
    unknown = "unknown solvers: " + ", ".join(map(repr, sorted(names)))
    text, flag, want = {  # the config's text, the --solvers flag and the message
        "distinct keys": (json.dumps({f"k{i}": 1 for i in range(_MANY)}), None,
                          f"{path}: " + "; ".join(f"unknown key 'k{i}'" for i in range(_MANY))),
        "keys given twice": ("{" + ", ".join(f'"k{i}": 1' for i in [*half, *half]) + "}", None,
                             f"{path}: key given twice: " + ", ".join(sorted(f"'k{i}'" for i in half))),
        "one solver": (json.dumps({"solvers": ["pso"] * _MANY}), None, f"{path}: repeated solvers: pso"),
        "distinct solvers": (json.dumps({"solvers": names}), None, f"{path}: {unknown}"),
        "one solver by flag": ("{}", ",".join(["pso"] * _MANY), "repeated solvers: pso"),
        "distinct solvers by flag": ("{}", ",".join(names), unknown),
        "mixed solvers by flag": ("{}", "pso,bogus,exact,exact,pso",
                                  "unknown solvers: 'bogus'; repeated solvers: exact, pso"),
    }[case]
    path.write_text(text)
    argv = ["solve", "--config", str(path), "--out", str(tmp_path / "out")]
    start = time.perf_counter()
    assert main(argv + (["--solvers", flag] if flag else [])) == 1
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().err == f"error: {want}\n"


def test_cli_seed_precedence(tmp_path, monkeypatch):
    # the seed is --seed if given, else the config's; SAT_IAB_SEED is not read
    cfg = cli_config(tmp_path, solvers=["pso"], seed=5)
    out_config = tmp_path / "o1"
    out_flag = tmp_path / "o2"
    out_env = tmp_path / "o3"

    assert main(["sweep-overlap", "--config", cfg, "--out", str(out_config)]) == 0
    assert main(["sweep-overlap", "--config", cfg, "--out", str(out_flag), "--seed", "6"]) == 0
    monkeypatch.setenv("SAT_IAB_SEED", "6")
    assert main(["sweep-overlap", "--config", cfg, "--out", str(out_env)]) == 0

    config_bytes = (out_config / "overlap_sweep.csv").read_bytes()
    flag_bytes = (out_flag / "overlap_sweep.csv").read_bytes()
    env_bytes = (out_env / "overlap_sweep.csv").read_bytes()
    assert flag_bytes != config_bytes  # the flag overrides the config seed
    assert env_bytes == config_bytes  # the environment variable changes nothing


def test_cli_config_that_sets_a_swarm_weight_fails(tmp_path, capsys):
    # the swarm runs the reference's step weights, and no key sets them
    cfg = write_json(tmp_path / "cfg.json", {"pso_inertia_weight": 0.01})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: unknown key 'pso_inertia_weight'\n"


def test_cli_output_directory_is_the_out_flag_alone(tmp_path, monkeypatch, capsys):
    # without --out a run writes under out/ in the working directory, and no
    # config key names the directory
    monkeypatch.chdir(tmp_path)
    assert main(["solve"]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out"]
    assert [row.solver for row in read_csv("out/solve.csv")] == ["exact", "pso"]
    cfg = write_json(tmp_path / "cfg.json", {"output_dir": "elsewhere"})
    capsys.readouterr()
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "named")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: unknown key 'output_dir'\n"
    assert not (tmp_path / "named").exists() and not (tmp_path / "elsewhere").exists()


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--out", "out"]])
def test_cli_audit_takes_no_seed_or_out(tmp_path, capsys, flag):
    # audit reads no seed and writes nothing, so either flag is a usage error
    with pytest.raises(SystemExit) as exit_:
        main(["audit", "--csv", str(tmp_path / "solve.csv"), *flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "sweep-power", "sweep-overlap"])
def test_cli_run_command_help_lists_the_shared_options(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    out = " ".join(capsys.readouterr().out.split())  # as one line, however the help wraps
    for option, text in (("--config CONFIG", "path to a JSON config file"),
                         ("--seed SEED", "override the RNG seed"),
                         ("--out OUT", "output directory"),
                         ("--solvers SOLVERS", "comma-separated subset of exact,pso,oracle")):
        assert f"{option} {text}" in out


def test_cli_sweep_overlap_rejects_a_seed_that_is_not_an_int(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["sweep-overlap", "--seed", "x"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: satiab sweep-overlap")
    assert err.endswith("satiab sweep-overlap: error: argument --seed: invalid int value: 'x'\n")


def test_cli_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["bogus"])
    assert exit_.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err  # the choice list's quoting varies by Python


# Command lines whose parse main must print or take as the reference parser does: help,
# usage errors, a leftover argument, a leading --, and abbreviated options (the last two
# lines are valid, and main runs them to an i/o error: their files do not exist).
CLI_LINES = [
    [], ["--help"],
    *([command, "--help"] for command in ("solve", "sweep-power", "sweep-overlap", "audit")),
    ["bogus"], ["solve", "extra"], ["audit", "--csv", "x", "--seed", "1"], ["sweep-overlap", "--seed", "x"],
    ["audit"], ["--", "solve", "--help"],
    ["audit", "--cs", "missing.csv"], ["sweep-power", "--conf", "missing.json", "--seed", "3"],
]


@pytest.mark.parametrize("argv", CLI_LINES, ids=lambda argv: "_".join(argv) or "none")
def test_cli_parses_as_the_parser_as_first_written(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    try:
        want = vars(reference_cli_parser().parse_args(argv))
    except SystemExit as exit_:
        want = (exit_.code, *capsys.readouterr())
    parsed = []  # each parse_known_args result, the outermost last
    parse = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        lambda self, *args, **kwargs: parsed.append(parse(self, *args, **kwargs)) or parsed[-1])
    if isinstance(want, tuple):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert (exit_.value.code, *capsys.readouterr()) == want
    else:
        assert main(argv) == 2 and capsys.readouterr().err.startswith("i/o error: ")
        args, rest = parsed[-1]
        assert rest == []
        assert {**vars(args), "command": None} == {**want, "command": None}


def exact_solve_csv(tmp_path) -> str:
    """The path of the one-row CSV of the exact solve of the default config."""
    csv_path = str(tmp_path / "solve.csv")
    write_csv(run_single(dataclasses.replace(ExperimentConfig(), solvers=("exact",))), csv_path)
    return csv_path


def test_a_command_builds_its_parser_alone(tmp_path, monkeypatch, capsys):
    # the reference parser builds six: the top parser, the shared parent and four subparsers
    csv_path = exact_solve_csv(tmp_path)
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs))
    assert main(["audit", "--csv", csv_path]) == 0
    assert capsys.readouterr().out == "audit ok: 1 row(s)\n"
    assert [parser.prog for parser in built] == ["satiab audit"]


def test_importing_expcli_builds_no_parser():
    child = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "argparse.ArgumentParser.__init__ = lambda self, *a, **k: (\n"
             "    built.append(self) or init(self, *a, **k))\n"
             "import satiab.expcli\n"
             "print(len(built))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_cli_without_argv_reads_sys_argv(tmp_path, monkeypatch, capsys):
    # the console script calls main() alone
    csv_path = exact_solve_csv(tmp_path)
    monkeypatch.setattr(sys, "argv", ["satiab", "audit", "--csv", csv_path])
    assert main() == 0
    assert capsys.readouterr().out == "audit ok: 1 row(s)\n"
    monkeypatch.setattr(sys, "argv", ["satiab"])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert exit_.value.code == 2
    assert capsys.readouterr().err == ("usage: satiab [-h] {solve,sweep-power,sweep-overlap,audit} ...\n"
                                       "satiab: error: the following arguments are required: command\n")


def test_cli_solvers_flag(tmp_path):
    cfg = cli_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--solvers", "exact"]) == 0
    rows = read_csv(str(out / "solve.csv"))
    assert [r.solver for r in rows] == ["exact"]


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"total_power_dbm": NaN}', "total_power_dbm"),
        ('{"total_power_dbm": 1e6}', "total_power_dbm"),
        ('{"altitude_km": Infinity}', "altitude_km"),
        ('{"interference_density_dbm_hz": -Infinity}', "interference_density_dbm_hz"),
        ('{"noise_density_dbm_hz": 1e400}', "noise_density_dbm_hz"),
        ('{"power_sweep_min_dbm": -1e6}', "power_sweep_min_dbm"),
        ('{"power_sweep_max_dbm": 101}', "power_sweep_max_dbm"),
        ('{"noise_density_dbm_hz": 1e5}', "noise_density_dbm_hz"),
        ('{"carrier_frequency_ghz": 1e300}', "carrier_frequency_ghz"),
        ('{"aperture_radius_m": 1e300}', "aperture_radius_m"),
        ('{"ue_antenna_gain_dbi": 1e5}', "ue_antenna_gain_dbi"),
        ('{"altitude_km": 1e-300}', "altitude_km"),
        ('{"total_bandwidth_mhz": 1e300, "solvers": ["exact"]}', "total_bandwidth_mhz"),
        ('{"access_weight": 1e-300, "solvers": ["exact"]}', "access_weight"),
    ],
)
def test_cli_rejects_non_finite_and_out_of_range_numbers(tmp_path, capsys, text, field):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert field in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, payload, flags, message",
    [
        ("solve", {"boresight_ue_deg": 90}, [], "boresight_ue_deg must satisfy |angle| < 90"),
        ("solve", {"boresight_ue_deg": -95}, [], "boresight_ue_deg must satisfy |angle| < 90"),
        ("solve", {"boresight_bs_deg": 90}, [], "boresight_bs_deg must satisfy |angle| < 90"),
        ("solve", {"boresight_bs_deg": -95}, [], "boresight_bs_deg must satisfy |angle| < 90"),
        ("sweep-power", {"seed": -1}, [], "seed must be nonnegative"),
        ("sweep-power", {}, ["--seed", "-1"], "seed must be nonnegative"),
        ("sweep-power", {"power_sweep_min_dbm": 45, "power_sweep_max_dbm": 44}, [],
         "power_sweep_max_dbm=44 must be at least power_sweep_min_dbm=45"),
        ("solve", {"power_sweep_min_dbm": 45, "power_sweep_max_dbm": 44}, [],
         "power_sweep_max_dbm=44 must be at least power_sweep_min_dbm=45"),
        ("solve", [], [], "top-level JSON value must be an object"),
        ("solve", "cfg", [], "top-level JSON value must be an object"),
        ("solve", 40, [], "top-level JSON value must be an object"),
    ],
    ids=["ue-90", "ue-minus-95", "bs-90", "bs-minus-95", "config-seed", "flag-seed", "empty-power-range",
         "empty-power-range-solve", "list", "string", "number"],
)
def test_cli_rejects_a_config_outside_its_invariants(tmp_path, capsys, command, payload, flags, message):
    # one line, naming the key where there is one, before anything is solved or written; without
    # these checks a seed of -1 folds into a row seed mod 2**63, and a list ends in a traceback
    cfg, out = write_json(tmp_path / "cfg.json", payload), tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == 1
    where = "" if flags else f"{cfg}: "
    assert capsys.readouterr().err == f"error: {where}{message}\n"
    assert not out.exists()
    if not flags:
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_config(cfg)


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"oracle_resolution": 1_000_000, "solvers": ["oracle"]}, "oracle_resolution"),
        ({"pso_population": 1_000_001}, "pso_population"),
        ({"pso_iterations": 1_000_000_000}, "pso_iterations"),
        ({"overlap_sweep_points": 1_000_000}, "overlap_sweep_points"),
        ({"power_sweep_step_db": 1e-9}, "power_sweep_step_db"),
        ({"power_sweep_step_db": 5e-324}, "power_sweep_step_db"),
    ],
)
def test_load_config_rejects_oversized_solves(tmp_path, payload, field):
    # only load_config runs, so a missing limit fails here without solving
    with pytest.raises(ValidationError, match=field):
        load_config(write_json(tmp_path / "cfg.json", payload))


def test_cli_rejects_a_run_beyond_the_swarm_work_bound(tmp_path, capsys, monkeypatch):
    # every key within its range, but 8,004 pso rows of 1,000 particles and
    # 10,000 iterations would run for about 3 hours: one line, before anything is built
    payload = {"pso_population": 1000, "pso_iterations": 10_000, "power_sweep_min_dbm": -100,
               "power_sweep_max_dbm": 100, "power_sweep_step_db": 0.1}
    out = tmp_path / "out"
    assert main(["sweep-power", "--config", write_json(tmp_path / "cfg.json", payload), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert all(text in err for text in ("8004 pso rows", "pso_population=1000", "pso_iterations=10000",
                                        "= 80040000000 particle-steps"))
    assert not out.exists()

    # the default sweeps stay under the bound at the largest population and
    # iterations, and a run of exactly the bound is solved
    class Built(Exception):
        pass

    def built(*args):
        raise Built

    with monkeypatch.context() as patch:
        patch.setattr(expcli, "build_scenarios", built)
        for run in (run_power_sweep, run_overlap_sweep):
            with pytest.raises(Built):
                run(dataclasses.replace(ExperimentConfig(), pso_population=1000, pso_iterations=10_000))
    cfg = small_config(solvers=("pso",))
    # 18 pso rows (3 points x 3 weights x 2 duplexes) of 8 particles and 20
    # iterations, and the 6 exact rows at zero overlap
    monkeypatch.setattr(expcli, "_MAX_PARTICLE_STEPS", 18 * 8 * 20)
    assert len(run_overlap_sweep(cfg)) == 24
    monkeypatch.setattr(expcli, "_MAX_PARTICLE_STEPS", 18 * 8 * 20 - 1)
    with pytest.raises(ValidationError, match="18 pso rows"):
        run_overlap_sweep(cfg)


def test_load_config_power_limits_are_inclusive(tmp_path):
    payload = {"total_power_dbm": 100, "power_sweep_min_dbm": -100, "power_sweep_max_dbm": 100}
    cfg = load_config(write_json(tmp_path / "cfg.json", payload))
    highest = dataclasses.replace(cfg, total_power_dbm=cfg.power_sweep_max_dbm)
    lowest = dataclasses.replace(cfg, total_power_dbm=cfg.power_sweep_min_dbm)
    assert math.isfinite(build_scenario(highest).total_power.item())
    assert build_scenario(lowest).total_power.item() > 0.0
    # the longest power sweep accepted, and one step finer
    payload["power_sweep_step_db"] = 0.1
    cfg = load_config(write_json(tmp_path / "cfg.json", payload))
    assert len(expcli._power_grid(cfg)) == expcli._MAX_POWER_SWEEP_POINTS
    payload["power_sweep_step_db"] = 0.0999
    with pytest.raises(ValidationError, match="power_sweep_step_db"):
        load_config(write_json(tmp_path / "cfg.json", payload))


def test_load_config_link_budget_limits_are_inclusive(tmp_path):
    for bound in (0, 1):
        payload = {name: limits[bound] for name, limits in expcli._RANGES.items()}
        cfg = load_config(write_json(tmp_path / "cfg.json", payload))
        density = dbm_to_watts(cfg.noise_density_dbm_hz) + dbm_to_watts(cfg.interference_density_dbm_hz)
        for duplex in ("FDD", "TDD"):
            scn = build_scenario(dataclasses.replace(cfg, duplex=duplex))
            gains = (scn.gain_ue, scn.gain_bs, *channel_gains(cfg, cfg.altitude_km), density)
            assert all(0.0 < g < math.inf for g in gains)
            alloc, _, converged = solve_orthogonal(scn)
            assert converged and math.isfinite(evaluate(scn, alloc)[3])


def test_cli_arithmetic_error_exits_1(tmp_path, capsys, monkeypatch):
    # every range check passes, but the solver overflows; the CLI still
    # reports it as one line with exit code 1
    def overflow(*args):
        raise OverflowError(34, "Numerical result out of range")

    monkeypatch.setattr(expcli, "solve_orthogonal_many", overflow)
    path = write_json(tmp_path / "cfg.json", {"solvers": ["exact"]})
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# Runs each argv list of argv[1] (JSON) through main, then prints the numpy
# CPU dispatch targets enabled in this process as a JSON list.
_DISPATCH_CHILD = """
import json, sys
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath
from satiab.expcli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps([name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]))
"""


def test_outputs_are_byte_identical_with_the_cpu_dispatch_targets_disabled(tmp_path):
    # numpy picks its SIMD loops per CPU, and log1p, expm1, exp and power
    # differ between them in the last bit; no %.9g cell, swarm comparison or
    # plot coordinate may show it. The default sweep-overlap with the oracle
    # added, and the default sweep-power of the exact solver and the oracle,
    # run once as they are and once with every enabled target above numpy's
    # baseline off.
    config = {"solvers": ["exact", "pso", "oracle"]}
    commands = [["sweep-overlap", "--config", "cfg.json", "--out", "out"],
                ["sweep-power", "--config", "cfg.json", "--out", "out", "--solvers", "exact,oracle"]]
    env = {key: value for key, value in os.environ.items()
           if key not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")

    def run(name, **extra):
        work = tmp_path / name
        work.mkdir()
        write_json(work / "cfg.json", config)
        proc = subprocess.run([sys.executable, "-c", _DISPATCH_CHILD, json.dumps(commands)], cwd=work,
                              env={**env, **extra}, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        *stdout, targets = proc.stdout.splitlines()
        files = {str(path.relative_to(work)): path.read_bytes() for path in sorted(work.rglob("*"))
                 if path.is_file()}
        return json.loads(targets), stdout, files

    targets, stdout, files = run("dispatched")
    if not targets:
        pytest.skip("numpy enables no CPU dispatch target above its baseline on this host")
    assert sorted(files) == ["cfg.json", "out/overlap_sweep.csv", "out/overlap_sweep.svg",
                             "out/power_sweep.csv", "out/power_sweep.svg"]
    assert run("baseline", NPY_DISABLE_CPU_FEATURES=" ".join(targets)) == ([], stdout, files)


# ----------------------------------------------------------------- tooling


def test_benchmark_tracer_wraps_names_that_exist(monkeypatch):
    # bench/spans.py wraps names at their import sites, some of them kept
    # only for it; entering its tracer fails if one of them is gone
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {"expcli": expcli, "allocator": allocator, "ratemodel": ratemodel}
    originals = {name: vars(module).copy() for name, module in modules.items()}
    with spans.Tracer(modules) as tracer:
        assert expcli.evaluate is not originals["expcli"]["evaluate"]
        cfg = small_config(solvers=("exact",))
        assert audit_rows(cfg, run_power_sweep(cfg)) == []
    assert tracer.counts["ratemodel.link_rates.small.calls"] > 0
    assert {name: vars(module) for name, module in modules.items()} == originals
