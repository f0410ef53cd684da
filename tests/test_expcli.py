"""Config loading, sweep runners, CSV/SVG output, auditing, and the CLI."""

import dataclasses
import json
import math
import xml.etree.ElementTree as ET

import pytest

from satiab.expcli import (
    CSV_COLUMNS,
    ExperimentConfig,
    ParseError,
    SweepRow,
    ValidationError,
    audit_rows,
    build_scenario,
    emit_plot,
    load_config,
    main,
    read_csv,
    run_overlap_sweep,
    run_power_sweep,
    run_single,
    write_config,
    write_csv,
)


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
    assert scn.total_bandwidth == 40e6
    assert scn.total_power == pytest.approx(10.0, rel=1e-12)
    assert scn.overlap_bandwidth == 0.0
    assert scn.noise_density == pytest.approx(3.981071705534973e-21, rel=1e-12)
    assert scn.beta_ue == pytest.approx(1.5734726039155016e-12, rel=1e-9)
    assert scn.beta_bs == pytest.approx(1.3589805953889354e-09, rel=1e-9)


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


def test_load_config_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"total_power_dbm": 40,}')
    with pytest.raises(ParseError, match=r"broken\.json:1:"):
        load_config(str(path))


def test_load_config_rejects_exact_solver_with_overlap(tmp_path):
    payload = {"overlap_mhz": 10, "solvers": ["exact", "pso"]}
    with pytest.raises(ValidationError, match="exact solver"):
        load_config(write_json(tmp_path / "cfg.json", payload))


def test_config_round_trip(tmp_path):
    cfg = small_config(duplex="TDD", access_weight=0.2, seed=99, solvers=("pso",), overlap_mhz=8.0)
    path = tmp_path / "cfg.json"
    write_config(cfg, str(path))
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
    assert loaded[0].solver == "exact"
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
    tampered = rows[:3] + [dataclasses.replace(rows[3], throughput_mbps=rows[3].throughput_mbps * 1.01)]
    problems = audit_rows(cfg, tampered)
    assert len(problems) == 1
    assert "throughput_mbps" in problems[0]


def test_run_single_produces_one_row_per_solver():
    cfg = small_config(solvers=("exact", "oracle", "pso"))
    rows = run_single(cfg)
    assert [r.solver for r in rows] == ["exact", "oracle", "pso"]
    assert all(r.sweep == "single" for r in rows)


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


def test_emit_plot_rejects_empty():
    with pytest.raises(ValueError):
        emit_plot([], "unused.svg")


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


def test_cli_oracle(tmp_path):
    cfg = cli_config(tmp_path)
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out), "--resolution", "25"]) == 0
    rows = read_csv(str(out / "oracle.csv"))
    assert [r.solver for r in rows] == ["oracle"]


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
    broken = [dataclasses.replace(rows[0], rate_access_mbps=rows[0].rate_access_mbps * 2)] + rows[1:]
    write_csv(broken, str(csv_path))
    assert main(["audit", "--config", cfg, "--csv", str(csv_path)]) == 1
    csv_path.write_text(text)


def test_cli_seed_precedence(tmp_path, monkeypatch):
    cfg = cli_config(tmp_path, solvers=["pso"], seed=5)
    out_config = tmp_path / "o1"
    out_env = tmp_path / "o2"
    out_flag = tmp_path / "o3"
    out_ref = tmp_path / "o4"

    assert main(["sweep-overlap", "--config", cfg, "--out", str(out_config)]) == 0
    monkeypatch.setenv("SAT_IAB_SEED", "6")
    assert main(["sweep-overlap", "--config", cfg, "--out", str(out_env)]) == 0
    assert main(["sweep-overlap", "--config", cfg, "--out", str(out_flag), "--seed", "7"]) == 0
    monkeypatch.delenv("SAT_IAB_SEED")
    assert main(["sweep-overlap", "--config", cfg, "--out", str(out_ref), "--seed", "6"]) == 0

    config_bytes = (out_config / "overlap_sweep.csv").read_bytes()
    env_bytes = (out_env / "overlap_sweep.csv").read_bytes()
    flag_bytes = (out_flag / "overlap_sweep.csv").read_bytes()
    ref_bytes = (out_ref / "overlap_sweep.csv").read_bytes()
    assert env_bytes == ref_bytes  # env seed 6 equals explicit seed 6
    assert env_bytes != config_bytes  # env overrides the config seed
    assert flag_bytes != env_bytes  # flag overrides the env seed


def test_cli_bad_env_seed(tmp_path, monkeypatch):
    cfg = cli_config(tmp_path)
    monkeypatch.setenv("SAT_IAB_SEED", "not-a-number")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


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


def test_load_config_power_limits_are_inclusive(tmp_path):
    payload = {"total_power_dbm": 100, "power_sweep_min_dbm": -100, "power_sweep_max_dbm": 100}
    cfg = load_config(write_json(tmp_path / "cfg.json", payload))
    assert math.isfinite(build_scenario(cfg, power_dbm=cfg.power_sweep_max_dbm).total_power)
    assert build_scenario(cfg, power_dbm=cfg.power_sweep_min_dbm).total_power > 0.0


def test_cli_arithmetic_error_exits_1(tmp_path, capsys):
    # no range check covers the densities yet, so this one overflows in
    # dbm_to_watts; the CLI still reports it as one line with exit code 1
    path = write_json(tmp_path / "cfg.json", {"noise_density_dbm_hz": 1e5})
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
