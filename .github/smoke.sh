#!/usr/bin/env bash
# The smoke run of the satiab command line: bash .github/smoke.sh OUT CLI...
#
# Runs each command below through CLI (such as `satiab`, or `python -m satiab.expcli`
# with PYTHONPATH set to another checkout's src), in the directory OUT, which it makes.
# Every path it passes is relative to OUT, so two runs print the same lines, and their
# stdout is kept in OUT/stdout.txt. The commands: a default solve, a solve by every
# solver of the table, both default sweeps, a power sweep by the grid oracle alone
# (44 rows at 200 x 200, three grid chunks), a solve at 10 MHz of overlap by the swarm
# and the grid oracle in each duplex mode (the rate kernel's overlapped path at fixed
# bandwidths), a solve at full overlap by both at the smallest grid (every grid column
# ties), and two sweeps at the corners of the config ranges (a power sweep whose SINRs
# are so small that 1 + SINR rounds to 1, and an overlap sweep at 1 kHz and 100 dBm),
# each followed by the audit of its own CSV under its own config. The first nonzero
# exit ends the run with that status.
set -euo pipefail
out=$1
shift
cli=("$@")
mkdir -p "$out"
cd "$out"

satiab() {
  "${cli[@]}" "$@"
}

# A solve or sweep under the config $2 (or the defaults if it is empty), into the
# directory $3, then the audit of its CSV $4 under the same config.
run_and_audit() {
  local command=$1 config=$2 dir=$3 csv=$4
  shift 4
  local flags=()
  if [ -n "$config" ]; then
    echo "$config" > "$dir.json"
    flags=(--config "$dir.json")
  fi
  satiab "$command" "${flags[@]}" "$@" --out "$dir"
  satiab audit "${flags[@]}" --csv "$dir/$csv"
}

{
  run_and_audit solve "" solve solve.csv
  run_and_audit solve "" solvers solve.csv --solvers exact,pso,oracle
  run_and_audit sweep-overlap "" overlap overlap_sweep.csv
  run_and_audit sweep-power "" power power_sweep.csv
  run_and_audit sweep-power "" power-oracle power_sweep.csv --solvers oracle
  run_and_audit solve '{"overlap_mhz": 10.0, "solvers": ["pso", "oracle"]}' overlapped solve.csv
  run_and_audit solve '{"overlap_mhz": 10.0, "duplex": "TDD", "solvers": ["pso", "oracle"]}' \
    overlapped-tdd solve.csv
  run_and_audit solve '{"overlap_mhz": 40.0, "solvers": ["pso", "oracle"], "oracle_resolution": 10}' \
    full-overlap solve.csv
  run_and_audit sweep-power '{"power_sweep_min_dbm": 30.0, "power_sweep_step_db": 1.6, "access_weight": 0.0625, "boresight_bs_deg": 0.0625, "interference_density_dbm_hz": -50.375}' \
    low-snr power_sweep.csv
  run_and_audit sweep-overlap '{"total_bandwidth_mhz": 0.001, "total_power_dbm": 100.0, "noise_density_dbm_hz": -110.0, "bs_antenna_gain_dbi": -50.0, "carrier_frequency_ghz": 1000.0, "altitude_km": 91137.0}' \
    corner overlap_sweep.csv
} | tee stdout.txt
