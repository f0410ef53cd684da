"""Random JSON configs through `satiab solve`, `sweep-power` and
`sweep-overlap`: each run either exits 0 with finite rows that `satiab audit`
passes, in which no exact row's level is below another solver's at its
point, or exits 1 with a one-line error. Hand-edited `solve` CSVs through
`satiab audit`: each run either exits 0 with `audit ok` on a file that
`write_csv` writes back byte for byte, or exits 1 with lines that name a row
or the error."""

import contextlib
import functools
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from satiab.expcli import CSV_COLUMNS, _CELL_CHOICES, _CONFIG_FIELDS, _RANGES, _float_cells, main, read_csv
from satiab.expcli import write_csv

# A solve, or a sweep of at most 4 overlap points, takes milliseconds: these
# keys are always given, and valid draws of them stay at most these values.
_CAPS = {"pso_population": 8, "pso_iterations": 10, "oracle_resolution": 40, "overlap_sweep_points": 4}
# Ranges of valid draws where the config has none, or where most draws in
# its range would give an empty or an oversized power sweep; 0.001 to 100
# for the other numbers without a range.
_DRAW_RANGES = {
    "boresight_ue_deg": (-89.0, 89.0),
    "boresight_bs_deg": (-89.0, 89.0),
    "seed": (0, 2**70),
    "power_sweep_min_dbm": (-100.0, 40.0),
    "power_sweep_max_dbm": (50.0, 100.0),
    "power_sweep_step_db": (0.1, 100.0),
}
# The power sweep's draw ranges in a sweep-power run, always given there:
# a valid draw has at most (60 - 30) / 1.6 + 1 < 20 points.
_POWER_SWEEP_DRAW_RANGES = {
    "power_sweep_min_dbm": (30.0, 40.0),
    "power_sweep_max_dbm": (50.0, 60.0),
    "power_sweep_step_db": (1.6, 100.0),
}
# JSON text for numbers json.dumps cannot write or that lie outside every
# range, and for values of the wrong type.
_SPECIAL = st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e300", "-1e300", "-1",
                           "0"])
_WRONG_TYPE = st.sampled_from(['"40"', "true", "null", "[]", "{}", '["exact", 1]', '{"a": 1}', "2.5"])
# Short strings with a newline, a quote, a comma, a NUL and non-ASCII among
# their characters (an explicit alphabet spares Hypothesis its Unicode tables).
_TEXT = st.text("ax\n\",\x00\u00e9", max_size=3)


def _valid(key: str, draw_ranges=_DRAW_RANGES):
    """Values of the key's JSON type, mostly in its range: a number is one of
    its range's two ends, a float in it or an integer in it."""
    kind = _CONFIG_FIELDS[key].type
    if kind == "tuple[str, ...]":  # empty, unknown and repeated names too
        return st.lists(st.sampled_from(["exact", "pso", "oracle", "exact", "pso"]) | _TEXT, max_size=3)
    if kind == "str":
        return st.sampled_from(["FDD", "TDD", "XDD"]) if key == "duplex" else _TEXT
    if key == "overlap_mhz":  # the default solvers take no overlap
        return st.just(0.0) | st.floats(0.0, 50.0)
    lo, hi = draw_ranges.get(key) or _RANGES.get(key, (0.001, 100.0))
    if kind == "int":
        lo, hi = int(lo), min(int(hi), _CAPS.get(key, int(hi)))
        return st.sampled_from([lo, hi]) | st.integers(lo, hi)
    return st.sampled_from([float(lo), float(hi)]) | st.floats(lo, hi) | st.integers(math.ceil(lo), int(hi))


@st.composite
def config_texts(draw, command: str = "solve") -> str:
    """A config for the command of valid values for up to 6 keys, or one with
    one fault: a special number, a value of the wrong type, an unknown key or
    a key given twice."""
    keys = draw(st.lists(st.sampled_from(sorted(_CONFIG_FIELDS)), unique=True, max_size=6))
    values = {key: json.dumps(value) for key, value in _CAPS.items()}
    draw_ranges = _DRAW_RANGES
    if command == "sweep-power":
        draw_ranges = {**_DRAW_RANGES, **_POWER_SWEEP_DRAW_RANGES}
        keys = list(_POWER_SWEEP_DRAW_RANGES) + [key for key in keys if key not in _POWER_SWEEP_DRAW_RANGES]
    values.update({key: json.dumps(draw(_valid(key, draw_ranges))) for key in keys})
    pairs = [f"{json.dumps(key)}: {value}" for key, value in values.items()]
    fault = draw(st.integers(0, 9))
    if fault == 0:
        pairs[-1] = f"{pairs[-1].split(':')[0]}: {draw(_SPECIAL)}"
    elif fault == 1:
        pairs[-1] = f"{pairs[-1].split(':')[0]}: {draw(_WRONG_TYPE)}"
    elif fault == 2:
        pairs.append(draw(st.sampled_from(pairs)))
    elif fault == 3:
        pairs.append('"power_dbm": 40')
    return "{" + ", ".join(pairs) + "}"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# The CSV each command writes in its output directory.
_CSV_NAMES = {"solve": "solve.csv", "sweep-power": "power_sweep.csv", "sweep-overlap": "overlap_sweep.csv"}


def assert_run_passes_audit_or_fails_cleanly(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp, "cfg.json"), Path(tmp, "out")
        config.write_text(text)
        code, _, err = run([command, "--config", str(config), "--out", str(out)])
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not out.exists()
            return
        assert code == 0 and err == ""
        csv_path = str(out / _CSV_NAMES[command])
        rows = read_csv(csv_path)
        assert rows and all(math.isfinite(v) for row in rows for v in _float_cells(row))
        code, stdout, err = run(["audit", "--config", str(config), "--csv", csv_path])
        assert (code, stdout, err) == (0, f"audit ok: {len(rows)} row(s)\n", "")
        # the exact solver's level is the optimum: no row at its point, the
        # first seven cells, is higher by more than the 9-digit cells' rounding
        exact = {row[:7]: row.zeta_mbps for row in rows if row.solver == "exact"}
        for row in rows:
            assert exact.get(row[:7], math.inf) >= (1.0 - 1e-9) * row.zeta_mbps, row


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(config_texts())
@example('{"seed": 1, "seed": 2}')
# configs that once broke the property: the first overflowed the swarm (the
# swarm's weights are no longer keys, so it now fails as an unknown key), the
# second printed a newline inside its error, the third's exact row, at
# level 0, spent no power, and the fourth's exact row, at 1.59e-19 Mbps,
# left 24 % of the power unspent
@example('{"pso_population": 8, "pso_iterations": 10, "pso_inertia_weight": 1e300}')
@example('{"solvers": ["a\\nb", "a\\nb"]}')
@example('{"total_power_dbm": -100, "altitude_km": 100000, "total_bandwidth_mhz": 100000, "solvers": ["exact"]}')
@example('{"total_bandwidth_mhz": 0.001, "access_weight": 1.0, "total_power_dbm": -100.0, '
         '"noise_density_dbm_hz": -250.0, "interference_density_dbm_hz": -104.84846615680607, '
         '"satellite_antenna_gain_dbi": 98.29088547928396, "bs_antenna_gain_dbi": 100.0, '
         '"ue_antenna_gain_dbi": -0.2038712348485774, "carrier_frequency_ghz": 1000.0, '
         '"aperture_radius_m": 16.16457151345256, "altitude_km": 8736.354633227098, "solvers": ["exact"]}')
def test_cli_solve_of_a_random_config_passes_audit_or_fails_cleanly(text):
    assert_run_passes_audit_or_fails_cleanly("solve", text)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(st.sampled_from(["sweep-power", "sweep-overlap"]).flatmap(
    lambda command: st.tuples(st.just(command), config_texts(command))))
# configs that once broke the property: the first's full-overlap rows wrote
# the bandwidth rounded up, above the config's; the second's exact rows 22
# and 102 recorded rates 2e-6 off their re-evaluation; and the third's
# zero-overlap exact rows left power unspent
@example(("sweep-overlap", '{"pso_population": 8, "pso_iterations": 10, "overlap_sweep_points": 4, '
                           '"total_bandwidth_mhz": 12.34567896}'))
@example(("sweep-power", '{"power_sweep_min_dbm": 30.0, "power_sweep_step_db": 1.6, "access_weight": 0.0625, '
                         '"boresight_bs_deg": 0.0625, "interference_density_dbm_hz": -50.375}'))
@example(("sweep-overlap", '{"total_bandwidth_mhz": 0.001, "total_power_dbm": 100.0, "noise_density_dbm_hz": '
                           '-110.0, "bs_antenna_gain_dbi": -50.0, "carrier_frequency_ghz": 1000.0, '
                           '"altitude_km": 91137.0}'))
def test_cli_sweep_of_a_random_config_passes_audit_or_fails_cleanly(command_and_text):
    assert_run_passes_audit_or_fails_cleanly(*command_and_text)


# A solve of all three solvers with the config _CAPS gives, at most this small.
_SOLVE_CONFIG = json.dumps({**_CAPS, "solvers": ["exact", "pso", "oracle"]})
# Cell texts an edit puts in: numbers write_csv never writes, blanks, text
# that is no number, each text column's choices, and short garbage.
_CELL_TEXTS = st.sampled_from(["NaN", "nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "-0", "",
                               " ", "  ", "4_0", " 40 ", "0x10", "1,5", "abc"]
                              + [choice for choices in _CELL_CHOICES.values() for choice in choices])
_GARBAGE = st.text("a1.-e_ ,\"\x00\u00e9", max_size=4)


@functools.cache
def _solve_csv_lines() -> tuple[str, ...]:
    """The CRLF lines of `satiab solve` on _SOLVE_CONFIG, header first."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp, "cfg.json"), Path(tmp, "out")
        config.write_text(_SOLVE_CONFIG)
        assert run(["solve", "--config", str(config), "--out", str(out)])[0] == 0
        return tuple(Path(out, "solve.csv").read_bytes().decode().split("\r\n")[:-1])


@st.composite
def edited_csvs(draw) -> str:
    """A solve CSV with one edit: a data cell replaced by a drawn text, a cell
    added to or dropped from any line, every data row removed, one cell
    wrapped in quotes, LF endings on one line or on all, a blank line
    inserted, or the final CRLF dropped."""
    lines = [line.split(",") for line in _solve_csv_lines()]
    ends = ["\r\n"] * len(lines)
    edit = draw(st.sampled_from(["replace"] * 4 + ["add", "drop", "clear"]
                                + ["quote", "lf", "blank", "unended"]))
    if edit == "clear":
        del lines[1:], ends[1:]
    elif edit == "lf":
        if draw(st.booleans()):
            ends = ["\n"] * len(ends)
        else:
            ends[draw(st.integers(0, len(ends) - 1))] = "\n"
    elif edit == "blank":
        at = draw(st.integers(1, len(lines)))
        lines.insert(at, [""])
        ends.insert(at, "\r\n")
    elif edit == "unended":
        ends[-1] = ""
    else:
        cells = lines[draw(st.integers(1 if edit in ("replace", "quote") else 0, len(lines) - 1))]
        at = draw(st.integers(0, len(cells) - 1))
        if edit == "drop":
            del cells[at]
        elif edit == "quote":
            cells[at] = f'"{cells[at]}"'
        else:
            text = draw(_CELL_TEXTS | _GARBAGE | st.sampled_from(cells))
            cells[at:at + 1] = [text] if edit == "replace" else [text, cells[at]]
    return "".join(",".join(cells) + end for cells, end in zip(lines, ends))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(edited_csvs())
def test_cli_audit_of_a_hand_edited_csv_passes_or_fails_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        config, csv_path = Path(tmp, "cfg.json"), Path(tmp, "solve.csv")
        config.write_text(_SOLVE_CONFIG)
        csv_path.write_text(text, newline="")
        code, stdout, err = run(["audit", "--config", str(config), "--csv", str(csv_path)])
        if code == 0:
            rows = text.count("\n") - 1
            assert rows > 0 and (stdout, err) == (f"audit ok: {rows} row(s)\n", "")
            written = Path(tmp, "written.csv")
            write_csv(read_csv(str(csv_path)), str(written))
            assert written.read_bytes() == csv_path.read_bytes()
        else:
            assert code == 1 and stdout == "" and err.endswith("\n"), (code, stdout, err)
            for line in err.splitlines():
                assert line.startswith(("row ", "error: ", "audit failed:")), err


@pytest.mark.parametrize("text, written", [
    ("4_0", "40"), (" 40 ", "40"), ("4_0.0_0", "40"), ("40.0", "40"), ("+40", "40"), ("4e1", "40"),
    ("NaN", "nan"), ("Infinity", "inf"), ("1e400", "inf"),
])
def test_cli_audit_rejects_a_float_cell_that_write_csv_would_not_write(tmp_path, text, written):
    # float() reads each of these texts, but write_csv writes another
    lines = [line.split(",") for line in _solve_csv_lines()]
    column = CSV_COLUMNS.index("power_dbm")
    assert lines[1][column] == "40"
    lines[1][column] = text
    config, csv_path = tmp_path / "cfg.json", tmp_path / "solve.csv"
    config.write_text(_SOLVE_CONFIG)
    csv_path.write_text("".join(",".join(cells) + "\r\n" for cells in lines), newline="")
    code, stdout, err = run(["audit", "--config", str(config), "--csv", str(csv_path)])
    assert (code, stdout) == (1, "")
    assert err == f"error: {csv_path}:2: power_dbm must be written {written!r}, got {text!r}\n"
