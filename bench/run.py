#!/usr/bin/env python3
"""satiab benchmark: the CLI sweeps end to end, and the four layers traced.

One closed loop: one caller runs one ``satiab`` command at a time through
``satiab.expcli.main([...])``, in this process, with no extra threads.

    python3 bench/run.py --workload power-exact --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --table              # per-layer baseline, all workloads
    python3 bench/run.py --record-reference   # rewrite bench/reference.json

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. See
bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

# The seed picks one of VARIANTS recorded variants of each workload (seed
# mod VARIANTS): the power grid moves by variant/VARIANTS of 0.1 dB, and the
# swarm's base seed is the variant. Every variant has the same row count, and
# the shift is small enough that the mean zeta moves by about 0.1 %.
VARIANTS = 4
ZETA_RTOL = 1e-8
SETUP_SPAWNS = 9
AUDIT_ROUND_S = 0.25  # audits timed after each sweep, in seconds of raw time
MIN_TIMED = 3
MIN_TRACED = 2


@dataclass(frozen=True)
class Workload:
    command: str
    csv: str
    rows: int
    hot: str  # span that should hold >= 80 % of the traced sweep time
    array_bound: bool  # whether wall_s is scaled by array_probe, not interp_probe; see Clock
    base: dict = field(default_factory=dict)

    def config(self, variant: int) -> dict:
        cfg = dict(self.base)
        if "power_sweep_min_dbm" in cfg:
            shift = variant * 0.1 / VARIANTS
            cfg["power_sweep_min_dbm"] += shift
            cfg["power_sweep_max_dbm"] += shift
        return cfg


WORKLOADS = {
    # 66 swarms (50 particles x 200 iterations) + 6 exact solves: numpy
    # per-call overhead on 50-row link_rates batches; never a large batch.
    "overlap-pso": Workload(
        "sweep-overlap", "overlap_sweep.csv", 72, "allocator.pso_solve", False),
    # 1,204 exact solves: pure-Python bisection and golden section, no
    # arrays; the most rows, so build_scenario, evaluate, CSV and audit weigh most.
    "power-exact": Workload(
        "sweep-power", "power_sweep.csv", 1204, "allocator.solve_orthogonal", False,
        {"solvers": ["exact"], "power_sweep_min_dbm": 30.0, "power_sweep_max_dbm": 60.0,
         "power_sweep_step_db": 0.1}),
    # 44 grid solves of 10^6 allocations: link_rates on large batches, where
    # arithmetic and memory traffic dominate rather than call overhead.
    "power-oracle": Workload(
        "sweep-power", "power_sweep.csv", 44, "ratemodel.link_rates.large", True,
        {"solvers": ["oracle"], "oracle_resolution": 1000, "power_sweep_min_dbm": 40.0,
         "power_sweep_max_dbm": 50.0, "power_sweep_step_db": 1.0}),
}


# -- contention scaling -----------------------------------------------------
#
# The host is shared: the same sweep takes 1.2 s or 2.8 s depending on what
# other tenants run. CPU time tracks wall time, so the machine itself runs
# slower; the level drifts over minutes and jitters within a second. So the
# host's speed is sampled while the command runs: a SIGALRM timer interrupts
# it every TICK_S, and the handler times a fixed probe, code of the
# benchmark's own that does the same kind of work as the command. The probe
# time is taken out of the command's wall time, and the rest is scaled by the
# probe's idle time on the reference host over its mean time during the
# command: (wall - probe time) * idle / mean(probe times). A reported time is
# the median of the scaled samples. A slower program still reads slower; a
# busier host does not. Raw medians are printed too, and the traced run
# reports raw times only.

TICK_S = 0.05
_SMALL = np.linspace(1.0, 2.0, 50)
_LARGE = np.linspace(1.0, 2.0, 100_000)


def interp_probe() -> None:
    """Interpreter-bound work: numpy calls on 50 elements and a scalar bisection."""
    for _ in range(100):
        b = np.log2(1.0 + _SMALL * 1.5) * _SMALL
        np.where(b > 0.5, b, 0.0).max()
    for k in range(100):
        lo, hi = 0.0, 10.0 + k
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if mid * math.log2(1.0 + 1.0 / (mid + 1e-9)) < 0.5:
                lo = mid
            else:
                hi = mid


def array_probe() -> None:
    """Vector arithmetic on 10^5 elements with fresh temporaries, like a grid-oracle batch."""
    b = np.log2(1.0 + _LARGE * 1.5) * _LARGE
    np.where(b > 0.5, b, 0.0).max()


def spawn_probe() -> None:
    """A fresh interpreter that imports numpy: process start and extension loading."""
    subprocess.run([sys.executable, "-c", "import numpy"], timeout=60, check=True)


# Idle time of each probe on the reference host (2-CPU Xeon VM, Python
# 3.11.7, numpy 2.4.6). Only units: they make scaled times read as seconds there.
PROBE_IDLE_S = {interp_probe: 0.001, array_probe: 0.00105, spawn_probe: 0.16}


def timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


class Clock:
    """Times calls; with a probe, samples the host's speed during them."""

    def __init__(self, probe=None) -> None:
        self.probe = probe
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self._ticks: list[float] = []
        self._until_tick = TICK_S  # carried over between calls, so short calls add up to ticks

    def _tick(self, signum, frame) -> None:
        self._ticks.append(timed(self.probe))

    def run(self, fn, *args):
        """Call fn(*args); returns its result and the wall time net of probe ticks."""
        if self.probe is None:
            start = time.perf_counter()
            return fn(*args), time.perf_counter() - start
        ticks = len(self._ticks)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self._until_tick, TICK_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - start
            self._until_tick = signal.setitimer(signal.ITIMER_REAL, 0.0)[0] or TICK_S
            signal.signal(signal.SIGALRM, previous)
        return result, wall - sum(self._ticks[ticks:])

    def add(self, key: str, *walls: float) -> None:
        """Record walls timed by run() since the last add, scaled by their ticks."""
        if not self._ticks:  # too short for a tick: probe right after instead
            self._tick(None, None)
        scale = PROBE_IDLE_S[self.probe] / statistics.fmean(self._ticks)
        self._ticks.clear()
        self.raw[key] += walls
        self.scaled[key] += [w * scale for w in walls]

    def median(self, key: str) -> float:
        return statistics.median(self.scaled[key])

    def summary(self, key: str, label: str) -> str:
        return (f"{label} {self.median(key):.5f} (raw median "
                f"{statistics.median(self.raw[key]):.5f}) over {len(self.raw[key])} samples")


# -- running the program ----------------------------------------------------


RAW = Clock()  # times without probing


def cli(expcli, argv: list[str], clock: Clock = RAW) -> tuple[int, float, str]:
    """Run one satiab command; returns (exit code, wall seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, wall = clock.run(expcli.main, argv)
    return code, wall, err.getvalue()


def write_config(work: Workload, variant: int, out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"config-{variant}.json"
    path.write_text(json.dumps(work.config(variant)) + "\n")
    return path


def sweep_argv(work: Workload, variant: int, config: Path, out: Path) -> list[str]:
    return [work.command, "--config", str(config), "--out", str(out), "--seed", str(variant)]


def audit_argv(config: Path, csv_path: Path) -> list[str]:
    return ["audit", "--config", str(config), "--csv", str(csv_path)]


_SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from satiab.expcli import load_config; load_config(sys.argv[2])"
)
_RSS_CHILD = (
    "import contextlib, io, resource, sys; sys.path.insert(0, sys.argv[1]); "
    "from satiab.expcli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()): code = main(sys.argv[2:])\n"
    "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
)


def child(code: str, *args: str) -> str:
    done = subprocess.run([sys.executable, "-c", code, str(SRC), *args],
                          capture_output=True, text=True, timeout=150, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"child interpreter failed: {done.stderr.strip()}")
    return done.stdout


# -- checking the outputs ---------------------------------------------------


def line_hashes(data: bytes) -> list[str]:
    return [hashlib.sha256(line).hexdigest()[:8] for line in data.split(b"\r\n")]


@dataclass
class CsvCheck:
    rows: int
    failed: int
    lines_changed: int
    sha_matches: bool
    zeta_mean: float


def check_csv(expcli, cfg, path: Path, ref: dict) -> CsvCheck:
    """Count failed rows and changed lines of one sweep CSV.

    A row fails if a value is not finite, if audit reports it, or, for an
    exact row, if zeta is off the reference by more than ZETA_RTOL.
    """
    data = path.read_bytes()
    rows = expcli.read_csv(str(path))
    ref_zeta = [float(z) for z in ref["zeta"].split()]
    failed = 0
    zetas = []
    for index, row in enumerate(rows):
        numbers = [getattr(row, name) for name in expcli.CSV_COLUMNS
                   if isinstance(getattr(row, name), float)]
        bad = not all(math.isfinite(v) for v in numbers) or bool(expcli.audit_rows(cfg, [row]))
        if not bad and row.solver == "exact":
            want = ref_zeta[index] if index < len(ref_zeta) else math.nan
            bad = not abs(row.zeta_mbps - want) <= ZETA_RTOL * abs(want)
        failed += bad
        if math.isfinite(row.zeta_mbps):
            zetas.append(row.zeta_mbps)
    got, want = line_hashes(data), ref["lines"].split()
    changed = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
    return CsvCheck(
        rows=len(rows),
        failed=failed,
        lines_changed=changed,
        sha_matches=hashlib.sha256(data).hexdigest() == ref["sha256"],
        zeta_mean=statistics.fmean(zetas) if zetas else math.nan,
    )


def tamper(src: Path, dst: Path) -> None:
    """Copy a sweep CSV with the first row's p_ue_w scaled past the power budget."""
    with open(src, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    header, row = table[0], table[1]
    p_ue, p_bs = (float(row[header.index(c)]) for c in ("p_ue_w", "p_bs_w"))
    row[header.index("p_ue_w")] = f"{2.0 * (p_ue + p_bs):.9g}"
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(table)


class Run:
    """One workload at one seed: its config, outputs and running checks."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.work = WORKLOADS[name]
        self.variant = seed % VARIANTS
        self.dir = OUT / name
        self.config_path = write_config(self.work, self.variant, self.dir)
        self.csv_path = self.dir / self.work.csv

        import satiab
        from satiab import allocator, expcli, ratemodel

        if not Path(satiab.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"satiab imported from {satiab.__file__}, not from {SRC}")
        self.expcli = expcli
        self.modules = {"expcli": expcli, "allocator": allocator, "ratemodel": ratemodel}
        self.cfg = expcli.load_config(str(self.config_path))
        self.ref = json.loads(REFERENCE.read_text())[name][str(self.variant)]
        self.sweep_argv = sweep_argv(self.work, self.variant, self.config_path, self.dir)
        self.audit_argv = audit_argv(self.config_path, self.csv_path)

        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._checked: tuple[bytes, CsvCheck] | None = None

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"FAIL {self.name}: {message}", file=sys.stderr)

    def sweep(self, clock: Clock = RAW) -> float:
        code, wall, err = cli(self.expcli, self.sweep_argv, clock)
        if code != 0:
            self.problem(f"{self.work.command} exited {code}: {err.strip()}")
        self.verify()
        return wall

    def audit(self, clock: Clock = RAW) -> float:
        code, wall, err = cli(self.expcli, self.audit_argv, clock)
        if code != 0:
            self.problem(f"audit exited {code}: {err.strip()[:500]}")
        return wall

    def verify(self) -> CsvCheck:
        """Check the CSV just written; a byte-identical repeat reuses the last check."""
        data = self.csv_path.read_bytes()
        if self._checked is None or self._checked[0] != data:
            if self._checked is not None:
                self.problem("sweep output changed between two runs of the same command")
            check = check_csv(self.expcli, self.cfg, self.csv_path, self.ref)
            if check.rows != self.work.rows:
                self.problem(f"{check.rows} rows, expected {self.work.rows}")
            self._checked = (data, check)
        check = self._checked[1]
        self.attempted += check.rows
        self.failed += check.failed
        return check

    @property
    def check(self) -> CsvCheck:
        return self._checked[1]

    def canary(self) -> None:
        """The failure counter must catch one tampered row."""
        tampered = self.dir / f"tampered-{self.work.csv}"
        tamper(self.csv_path, tampered)
        got = check_csv(self.expcli, self.cfg, tampered, self.ref)
        if got.failed != self.check.failed + 1:
            self.problem(f"tampered row not counted: {got.failed} failed rows, "
                         f"expected {self.check.failed + 1}")
        else:
            print(f"canary: tampered p_ue_w counted, rows_failed_frac "
                  f"{self.check.failed / self.check.rows:g} -> {got.failed / got.rows:g}")

    def warm_up(self) -> None:
        self.sweep()
        self.canary()
        print(f"reference: sha256 {'matches' if self.check.sha_matches else 'DIFFERS'}, "
              f"expcli.csv_lines_changed {self.check.lines_changed}")

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


# -- the two kinds of run ---------------------------------------------------


def setup_times(config: Path) -> list[float]:
    """Start-up times of fresh interpreters, each scaled by spawn_probe runs
    right before and right after it."""
    child(_SETUP_CHILD, str(config))  # fills the bytecode and file caches
    probes = [timed(spawn_probe)]
    scaled = []
    for _ in range(SETUP_SPAWNS):
        wall = timed(child, _SETUP_CHILD, str(config))
        probes.append(timed(spawn_probe))
        scaled.append(wall * PROBE_IDLE_S[spawn_probe] / statistics.fmean(probes[-2:]))
    return scaled


def end_to_end(run: Run, seconds: float) -> dict:
    setup = setup_times(run.config_path)
    run.warm_up()
    rss_dir = run.dir / "rss"
    code, max_rss_kib = child(_RSS_CHILD, *sweep_argv(run.work, run.variant, run.config_path,
                                                     rss_dir)).split()
    if code != "0" or (rss_dir / run.work.csv).read_bytes() != run.csv_path.read_bytes():
        run.problem("the sweep in a child interpreter failed or wrote different bytes")

    audits_per_round = max(1, round(AUDIT_ROUND_S / run.audit()))
    interp = Clock(interp_probe)
    sweeps = Clock(array_probe) if run.work.array_bound else interp
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(sweeps.raw["wall"]) < MIN_TIMED:
        sweeps.add("wall", run.sweep(sweeps))
        interp.add("audit", *(run.audit(interp) for _ in range(audits_per_round)))

    print(f"{run.name}: {sweeps.summary('wall', 'wall_s')}; "
          f"{interp.summary('audit', 'audit_s')}; setup_s {statistics.median(setup):.5f} "
          f"over {len(setup)} spawns")
    print(f"rows_failed_frac {run.failed / run.attempted:g} ({run.failed}/{run.attempted}); "
          f"expcli.csv_lines_changed {run.check.lines_changed}")
    return run.result({
        "wall_s": (sweeps.median("wall"), "s"),
        "audit_s": (interp.median("audit"), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (int(max_rss_kib) / 1024.0, "MB"),
        "zeta_mean_mbps": (run.check.zeta_mean, "Mbps"),
    })


COUNT_SUFFIXES = (".calls", ".iterations", ".elems", ".points", ".bytes")


def traced(run: Run, seconds: float) -> dict:
    from spans import BYTES_PER_ELEM, Tracer

    run.warm_up()
    plain, spanned, summaries, shares = [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(summaries) < MIN_TRACED:
        plain.append(run.sweep())
        with Tracer(run.modules) as tracer:
            tracer.root("expcli.sweep", cli, run.expcli, run.sweep_argv)
            tracer.root("expcli.audit", cli, run.expcli, run.audit_argv)
        run.verify()
        sweep_wall = tracer.root_time("expcli.sweep")
        spanned.append(sweep_wall)
        shares.append(tracer.time_under("expcli.sweep", run.work.hot) / sweep_wall)
        summaries.append(tracer.summary())

    counts = [{k: v for k, v in s.items() if k.endswith(COUNT_SUFFIXES)} for s in summaries]
    if any(c != counts[0] for c in counts[1:]):
        diff = sorted(k for c in counts[1:] for k in c if c.get(k) != counts[0].get(k))
        run.problem(f"counts differ between traced runs of the same seed: {diff}")
    tracer.write_jsonl(str(run.dir / f"spans-{run.variant}.jsonl"))

    med = statistics.median

    def time_s(name: str) -> float:
        return med(s.get(f"{name}.time_s", 0.0) for s in summaries)

    def count(key: str) -> int:
        return counts[0].get(key, 0)

    def per_call(name: str, scale: float, calls: str = ".calls") -> float:
        n = count(name + calls)
        return time_s(name) * scale / n if n else 0.0

    m: dict[str, tuple[float, str]] = {}
    for solver in ("allocator.pso_solve", "allocator.solve_orthogonal"):
        m[f"{solver}.calls"] = (count(f"{solver}.calls"), "count")
        m[f"{solver}.time_s"] = (time_s(solver), "s")
        m[f"{solver}.ms_per_solve"] = (per_call(solver, 1e3), "ms")
        m[f"{solver}.iterations"] = (count(f"{solver}.iterations"), "count")
    m["allocator.run_pso.time_s"] = (time_s("allocator.run_pso"), "s")
    grid = "allocator.grid_oracle"
    m[f"{grid}.calls"] = (count(f"{grid}.calls"), "count")
    m[f"{grid}.time_s"] = (time_s(grid), "s")
    m[f"{grid}.points"] = (count(f"{grid}.points"), "count")
    m[f"{grid}.ms_per_mpoint"] = (per_call(grid, 1e9, ".points"), "ms")
    lr = "ratemodel.link_rates"
    for batch, scale, unit in (("scalar", 1e6, "us"), ("small", 1e6, "us")):
        m[f"{lr}.{batch}.calls"] = (count(f"{lr}.{batch}.calls"), "count")
        m[f"{lr}.{batch}.{unit}_per_call"] = (per_call(f"{lr}.{batch}", scale), unit)
    m[f"{lr}.large.calls"] = (count(f"{lr}.large.calls"), "count")
    m[f"{lr}.large.elems"] = (count(f"{lr}.large.elems"), "count")
    m[f"{lr}.large.ns_per_elem"] = (per_call(f"{lr}.large", 1e9, ".elems"), "ns")
    m[f"{lr}.large.bytes_computed"] = (count(f"{lr}.large.elems") * BYTES_PER_ELEM, "B")
    m["ratemodel.evaluate.calls"] = (count("ratemodel.evaluate.calls"), "count")
    m["ratemodel.evaluate.us_per_call"] = (per_call("ratemodel.evaluate", 1e6), "us")
    for name in ("ratemodel.validate", "expcli.build_scenario", "linkbudget.channel_gain"):
        m[f"{name}.calls"] = (count(f"{name}.calls"), "count")
        m[f"{name}.time_s"] = (time_s(name), "s")
    for name in ("expcli.write_csv", "expcli.emit_plot"):
        m[f"{name}.time_s"] = (time_s(name), "s")
        m[f"{name}.bytes"] = (count(f"{name}.bytes"), "B")
    for layer in ("expcli", "allocator", "ratemodel", "linkbudget"):
        m[f"{layer}.self_time_s"] = (med(s[f"{layer}.self_time_s"] for s in summaries), "s")
    m["expcli.csv_lines_changed"] = (run.check.lines_changed, "count")
    m["rows_failed_frac"] = (run.failed / run.attempted, "ratio")
    m["trace.untraced_wall_s"] = (med(plain), "s")
    m["trace.traced_wall_s"] = (med(spanned), "s")
    m["trace_overhead_s"] = (med(spanned) - med(plain), "s")
    m["trace.hot_share"] = (med(shares), "ratio")

    print(f"{run.name}: {len(summaries)} traced and {len(plain)} untraced sweeps; "
          f"{run.work.hot} holds {med(shares):.1%} of the traced sweep wall time")
    for name, (value, unit) in m.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    return run.result(m)


# -- the environment, the baseline table and the reference -------------------


def environment(seed: int) -> dict:
    def first_line(path: str, prefix: str = "") -> str:
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            pass
        return "unknown"

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "llc_size": first_line("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": rev,
        "seed": seed,
    }


BASELINE_ROWS = (  # label, workload, metric, metric to divide by
    ("solve_orthogonal, per solve", "power-exact", "allocator.solve_orthogonal.ms_per_solve", None),
    ("solve_orthogonal, bisection steps per solve", "power-exact",
     "allocator.solve_orthogonal.iterations", "allocator.solve_orthogonal.calls"),
    ("pso_solve 50 x 200, per solve", "overlap-pso", "allocator.pso_solve.ms_per_solve", None),
    ("grid_oracle, per 10^6 points", "power-oracle", "allocator.grid_oracle.ms_per_mpoint", None),
    ("evaluate, per call", "power-exact", "ratemodel.evaluate.us_per_call", None),
    ("link_rates, 1 allocation", "power-exact", "ratemodel.link_rates.scalar.us_per_call", None),
    ("link_rates, 50 allocations", "overlap-pso", "ratemodel.link_rates.small.us_per_call", None),
    ("link_rates, 10^6 batch, per element", "power-oracle",
     "ratemodel.link_rates.large.ns_per_elem", None),
    ("build_scenario, sweep and audit", "power-exact", "expcli.build_scenario.time_s", None),
    ("write_csv", "power-exact", "expcli.write_csv.time_s", None),
    ("emit_plot", "power-exact", "expcli.emit_plot.time_s", None),
    ("sweep-overlap, default config (72 rows)", "overlap-pso", "trace.untraced_wall_s", None),
    ("sweep-power, exact, 30-60 dBm by 0.1 dB (1,204 rows)", "power-exact",
     "trace.untraced_wall_s", None),
    ("sweep-power, oracle at 1000^2 (44 rows)", "power-oracle", "trace.untraced_wall_s", None),
    *(("hot span share of the traced sweep", name, "trace.hot_share", None) for name in WORKLOADS),
    *(("tracing overhead", name, "trace_overhead_s", None) for name in WORKLOADS),
)


def baseline_table(seed: int, seconds: float) -> int:
    """Trace every workload in its own interpreter and print one table."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1"],
            capture_output=True, text=True, timeout=600, check=False)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return 1
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print("env " + json.dumps(environment(seed)))
    print("| what | workload | value |\n| --- | --- | --- |")
    for label, name, key, per in BASELINE_ROWS:
        metrics = results[name]["metrics"]
        value, unit = metrics[key]["value"], metrics[key]["unit"]
        if per is not None:
            value, unit = value / metrics[per]["value"], f"{unit} per call"
        print(f"| {label} | {name} | {value:.4g} {unit} |")
    return 0 if all(r["correct"] for r in results.values()) else 1


def record_reference() -> int:
    """Write reference.json from the program as it is now. Run it only on
    the commit the reference is meant to describe."""
    from satiab import expcli

    reference = {}
    for name, work in WORKLOADS.items():
        reference[name] = {}
        out = OUT / "record" / name
        for variant in range(VARIANTS):
            config_path = write_config(work, variant, out)
            csv_path = out / work.csv
            code, _, err = cli(expcli, sweep_argv(work, variant, config_path, out))
            if code == 0:
                code, _, err = cli(expcli, audit_argv(config_path, csv_path))
            rows = expcli.read_csv(str(csv_path)) if code == 0 else []
            if len(rows) != work.rows:
                print(f"{name} variant {variant} not recordable: {err.strip()}", file=sys.stderr)
                return 1
            data = csv_path.read_bytes()
            reference[name][str(variant)] = {
                "sha256": hashlib.sha256(data).hexdigest(),
                "lines": " ".join(line_hashes(data)),
                "zeta": " ".join(f"{row.zeta_mbps:.9g}" for row in rows),
            }
            print(f"recorded {name} variant {variant}: {len(rows)} rows")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", action="store_true", help="trace every workload, print one table")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "satiab" / "expcli.py").is_file():
        print(f"error: no satiab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        return record_reference()
    if args.table:
        return baseline_table(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    print("env " + json.dumps(environment(args.seed)))
    run = Run(args.workload, args.seed)
    result = traced(run, args.seconds) if args.trace else end_to_end(run, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
