"""quotcoh benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it measures the package in ../src next to this
directory, without installing it.  The last line of stdout is one JSON
object {correct, attempted, failed, metrics}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones (see
README.md).  Load is one caller in a closed loop on one thread: the next
op starts when the previous one has finished, so no layer waits on a
queue and no wait metrics are reported.
"""

from __future__ import annotations

import argparse
import bisect
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

import gen  # noqa: E402
import oracles  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 3
INTERP_REPEATS = 5
# Host speed.  On a shared host the speed of the same code drifts by up to
# 2x over minutes, which no run length averages away.  So before each op the
# benchmark times a fixed calibration: CALIB_REPEATS Bareiss determinants of
# CALIB_MATRIX, run by the benchmark's own code, never by the package.  An
# op's time is reported at reference speed: its wall time times
# CALIB_NOMINAL_S over the median of the calibrations made from
# CALIB_WINDOW_S before the op started to CALIB_WINDOW_S after it ended.
# One calibration is a snapshot of a speed that flips within a second, so
# the window is wide.  A change to the package cannot move the calibration.
_calib_rng = random.Random(0)
CALIB_MATRIX = [[_calib_rng.randrange(-9, 10) for _ in range(10)] for _ in range(10)]
CALIB_REPEATS = 20
CALIB_NOMINAL_S = 0.001
CALIB_WINDOW_S = 5.0
# no op starts after this many seconds, so a run ends well inside 180 s
DEADLINE_S = 150.0

BUSY = (
    "profiles.sym_power", "profiles.jordan_profile",
    "hilbert.graded_profile", "hilbert.bb_quotient", "engine.quotient_report",
    "lattices.bns_invariants", "lattices.group_cohomology",
    "lattices.pushforward_quotient_lattice", "lattices.invariants",
    "intmat.smith_decomposition", "intmat.kernel_saturated", "intmat.image_basis",
    "intmat.rank_mod_p",
    "toric.quotient_fan", "toric.resolve", "toric.hj_check",
)
COUNTS = (("intmat.snf_bits_max", "bits"), ("toric.rays_added", "count"), ("toric.cones_out", "count"))


def within(tr: Tracer | None, name: str):
    return tr.span(name) if tr is not None else nullcontext()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def interp_floor() -> float:
    """Median wall time of a bare `python -c pass`: the floor under every CLI op."""
    times = []
    for _ in range(INTERP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cold_import(module: str) -> tuple[float, float]:
    """(wall, import time) of a fresh interpreter importing `module`."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    return time.perf_counter() - t0, float(out.stdout)


def calibrate() -> float:
    """Wall time of the fixed calibration; see CALIB_NOMINAL_S."""
    t0 = time.perf_counter()
    for _ in range(CALIB_REPEATS):
        oracles.det(CALIB_MATRIX)
    return time.perf_counter() - t0


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    s = sorted(values)
    return s[max(0, -(-9 * len(s) // 10) - 1)]


# --- workloads ---------------------------------------------------------------

class Workload:
    """`items` are the distinct ops' inputs, built by `build`; a pass runs
    `pass_order` (indices into `items`), and a run is at least `min_passes`
    passes.  `run` does one op, `check` judges its answer, `probe` makes the
    traced run's direct intmat calls."""

    min_passes = 2
    items: list

    def pass_order(self, rng: random.Random) -> list[int]:
        order = list(range(len(self.items)))
        rng.shuffle(order)
        return order

    def probe(self, tr, item, ans):
        pass


class PaperTablesCli(Workload):
    """Each op is a fresh `python -m quotcoh.cli` process; the seed orders them."""

    name = "paper-tables-cli"
    import_module = "quotcoh.cli"
    rss_who = resource.RUSAGE_CHILDREN
    # one pass is about 40 s, so one is enough
    min_passes = 1

    def build(self, seed):
        self.items = list(gen.CLI_OPS)
        self.golden = oracles.load_golden(SRC)
        self.hashes = json.loads((HERE / "cli_sha256.json").read_text(encoding="utf-8"))

    def pass_order(self, rng):
        return gen.cli_pass(rng)

    def label(self, argv):
        return gen.op_key(argv)

    def run(self, argv, tr=None, op=None, timeout=DEADLINE_S):
        if tr is None:
            cmd = [sys.executable, "-m", "quotcoh.cli", *argv]
        else:
            side = Path(self.tmp) / f"op{op}.json"
            parent = tr.current
            cmd = [sys.executable, str(HERE / "cli_replay.py"), "--spans", str(side), "--", *argv]
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, timeout=timeout)
        if tr is not None and proc.returncode == 0:
            tr.adopt(json.loads(side.read_text(encoding="utf-8")), parent=parent, op=op)
        return proc

    def check(self, argv, proc):
        if proc.returncode != 0:
            return [f"exit {proc.returncode}: {proc.stderr[-300:]!r}"]
        return oracles.check_cli(argv, proc.stdout, self.hashes.get(gen.op_key(argv)), self.golden)


class LatticeScan(Workload):
    """Warm process; each op runs the G-lattice pipeline on one seeded lattice."""

    name = "lattice-scan"
    import_module = "quotcoh"
    rss_who = resource.RUSAGE_SELF

    def build(self, seed):
        from quotcoh.intmat import IntMatrix
        from quotcoh.lattices import GLattice

        self.items = [
            (inp, GLattice(gram=IntMatrix(inp.gram), action=IntMatrix(inp.action), p=inp.p))
            for inp in gen.lattice_ladder(seed)
        ]

    def label(self, item):
        return f"p={item[0].p} rank={item[0].rank}"

    def run(self, item, tr=None, op=None, timeout=None):
        from quotcoh.lattices import (
            bns_invariants, group_cohomology, invariants, pushforward_quotient_lattice,
        )
        from quotcoh.profiles import jordan_profile

        _, gl = item
        with within(tr, "lattices.bns_invariants"):
            bns = bns_invariants(gl)
        with within(tr, "lattices.group_cohomology"):
            h1 = group_cohomology(gl, 1)
        with within(tr, "lattices.group_cohomology"):
            h2 = group_cohomology(gl, 2)
        with within(tr, "lattices.pushforward_quotient_lattice"):
            pushed = pushforward_quotient_lattice(gl)
        with within(tr, "lattices.invariants"):
            src_inv = invariants(gl.lattice())
        with within(tr, "lattices.invariants"):
            push_inv = invariants(pushed)
        with within(tr, "profiles.jordan_profile"):
            prof = jordan_profile(gl.action, gl.p)
        return {
            "bns": tuple(bns), "h1": h1.divisors, "h2": h2.divisors,
            "push_gram": pushed.gram.to_lists(),
            "src_inv": (src_inv.rank, src_inv.signature, src_inv.discriminant_group),
            "push_inv": (push_inv.rank, push_inv.signature, push_inv.discriminant_group),
            "profile": dict(prof.blocks),
        }

    def check(self, item, ans):
        return oracles.check_lattice(item[0], ans)

    def probe(self, tr, item, ans):
        """intmat calls on the matrices the op hands to the kernel."""
        from quotcoh.intmat import (
            IntMatrix, image_basis, kernel_saturated, rank_mod_p, smith_decomposition,
        )

        _, gl = item
        minus_one = gl.action - IntMatrix.identity(gl.rank)
        sigma = gl.sigma()
        for m in (gl.gram, minus_one, sigma):
            with tr.span("intmat.smith_decomposition"):
                s = smith_decomposition(m)
            tr.peak("intmat.snf_bits_max", max(abs(e).bit_length() for t in (s.u, s.v) for r in t.rows for e in r))
        for m in (minus_one, sigma):
            with tr.span("intmat.kernel_saturated"):
                kernel_saturated(m)
            with tr.span("intmat.image_basis"):
                image_basis(m)
            with tr.span("intmat.rank_mod_p"):
                rank_mod_p(m, gl.p)


class ToricResolve(Workload):
    """Warm process; each op resolves one seeded cyclic quotient singularity."""

    name = "toric-resolve"
    import_module = "quotcoh"
    rss_who = resource.RUSAGE_SELF

    def build(self, seed):
        from quotcoh.toric import CyclicSingularity

        self.items = [CyclicSingularity(p=p, weights=w) for p, w in gen.toric_pass(seed)]

    def label(self, sing):
        return f"(1/{sing.p}){sing.weights}"

    def run(self, sing, tr=None, op=None, timeout=None):
        from quotcoh.toric import hj_resolution, quotient_fan, resolve, surface_chain

        with within(tr, "toric.quotient_fan"):
            fan = quotient_fan(sing)
        with within(tr, "toric.resolve"):
            res = resolve(fan)
        chain = hj = None
        if len(sing.weights) == 2:
            with within(tr, "toric.hj_check"):
                a = sing.weights[1] * pow(sing.weights[0], -1, sing.p) % sing.p
                hj = hj_resolution(sing.p, a).chain
                chain = surface_chain(res, fan)
        return {"original": list(fan.maximal[0].rays), "cones": [list(c.rays) for c in res.maximal],
                "chain": chain, "hj_chain": hj}

    def check(self, sing, ans):
        return oracles.check_toric(sing.p, sing.weights, ans)

    def probe(self, tr, sing, ans):
        """intmat calls on the generator matrix and the cones' ray matrices."""
        from quotcoh.intmat import IntMatrix, image_basis, smith_decomposition

        n = len(sing.weights)
        orig = set(map(tuple, ans["original"]))
        tr.count("toric.cones_out", len(ans["cones"]))
        tr.count("toric.rays_added", len({tuple(r) for c in ans["cones"] for r in c} - orig))
        gens = [[sing.p if i == j else 0 for j in range(n)] for i in range(n)] + [list(sing.weights)]
        with tr.span("intmat.image_basis"):
            image_basis(IntMatrix(gens, ncols=n).transpose())
        for cone in [ans["original"]] + ans["cones"]:
            rays = IntMatrix([list(r) for r in cone], ncols=n).transpose()
            with tr.span("intmat.smith_decomposition"):
                s = smith_decomposition(rays)
            tr.peak("intmat.snf_bits_max", max(abs(e).bit_length() for t in (s.u, s.v) for r in t.rows for e in r))


WORKLOADS = {w.name: w for w in (PaperTablesCli, LatticeScan, ToricResolve)}


# --- measurement -----------------------------------------------------------------

class Tally:
    """Attempts and failures, (item index, start, end) of every op that
    passed, and the calibration made before every op with its time."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.runs: list[tuple[int, float, float]] = []
        self.calibs: list[float] = []
        self.calibrated_at: list[float] = []

    def record(self, index: int, label: str, t0: float, t1: float, calib: float, errs: list[str]) -> None:
        self.attempted += 1
        self.calibs.append(calib)
        self.calibrated_at.append(t0)
        if errs:
            self.failed += 1
            print(f"FAILED op {label}: {'; '.join(errs)[:500]}", file=sys.stderr)
        else:
            self.runs.append((index, t0, t1))

    def op_times(self) -> dict[int, float]:
        """Each distinct op's median time over its runs, at reference speed."""
        scaled: dict[int, list[float]] = {}
        for index, t0, t1 in self.runs:
            lo = bisect.bisect_left(self.calibrated_at, t0 - CALIB_WINDOW_S)
            hi = bisect.bisect_right(self.calibrated_at, t1 + CALIB_WINDOW_S)
            local = statistics.median(self.calibs[lo:hi])
            scaled.setdefault(index, []).append((t1 - t0) * CALIB_NOMINAL_S / local)
        return {index: statistics.median(times) for index, times in scaled.items()}


def run_op(wl, index: int, tally: Tally, start: float, tr=None, op=None):
    """Times one op (the library work only), then checks its answer untimed."""
    item = wl.items[index]
    calib = calibrate()
    t0 = time.perf_counter()
    try:
        ans = wl.run(item, tr, op, timeout=max(1.0, DEADLINE_S + 20 - (t0 - start)))
        errs = None
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        ans, errs = None, [f"{type(exc).__name__}: {exc}"]
    t1 = time.perf_counter()
    elapsed = t1 - t0
    if errs is None:
        errs = wl.check(item, ans)
    tally.record(index, wl.label(item), t0, t1, calib, errs)
    return ans, errs, elapsed


def setup(wl, seed: int) -> tuple[float, float]:
    """Median over repeats of (cold import in a fresh interpreter + building
    the inputs), at reference speed by the calibrations either side of it.

    Returns (setup_s, median import time)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    totals, imports, calibs = [], [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        wall, imp = cold_import(wl.import_module)
        t0 = time.perf_counter()
        wl.build(seed)
        totals.append(wall + time.perf_counter() - t0)
        imports.append(imp)
        calibs.append(calibrate())
    scale = CALIB_NOMINAL_S / statistics.median(calibs)
    return statistics.median(totals) * scale, statistics.median(imports)


def measure(wl, seed: int, seconds: float, start: float) -> tuple[Tally, dict]:
    """Whole passes until `seconds` of measuring have passed; each op's time
    is the median of its runs at reference speed."""
    rng = random.Random(seed)
    tally = Tally()
    passes = 0
    began = time.perf_counter()
    while time.perf_counter() - start <= DEADLINE_S:
        for index in wl.pass_order(rng):
            if time.perf_counter() - start > DEADLINE_S:
                break
            run_op(wl, index, tally, start)
        passes += 1
        if passes >= wl.min_passes and time.perf_counter() - began >= seconds:
            break
    times = tally.op_times()
    per_op = list(times.values()) or [DEADLINE_S]
    calibs = tally.calibs or [CALIB_NOMINAL_S]
    print(f"closed loop, 1 caller, 1 thread (no queue, so no wait metrics): {passes} pass(es), "
          f"{tally.attempted} op runs, {len(per_op)} distinct ops; each op's time is the median of its runs")
    print(f"host speed: calibration median {statistics.median(calibs):.6f} s, range "
          f"{min(calibs):.6f}-{max(calibs):.6f} s; times below are scaled to {CALIB_NOMINAL_S} s")
    print(f"op times over {len(per_op)} ops: p50 {statistics.median(per_op):.4f} s, p90 {p90(per_op):.4f} s"
          + ("" if len(per_op) >= 100 else " (fewer than 100 samples: p90 is a high order statistic)"))
    metrics = {
        "ops_per_s": (len(times) / sum(per_op), "1/s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_p90_s": (p90(per_op), "s"),
        "ok_frac": (1 - tally.failed / max(1, tally.attempted), "ratio"),
        "peak_rss_mb": (resource.getrusage(wl.rss_who).ru_maxrss / 1024, "MB"),
    }
    return tally, metrics


def traced(wl, seed: int, start: float, floor: float, import_s: float) -> tuple[Tally, dict]:
    """One untraced pass over the distinct ops, then the same pass with spans;
    the difference in wall time is the tracing overhead."""
    order = list(range(len(wl.items)))
    random.Random(seed).shuffle(order)
    tally = Tally()
    untraced_wall = sum(run_op(wl, index, tally, start)[2] for index in order)

    tr = Tracer()
    traced_wall = 0.0
    with tempfile.TemporaryDirectory(dir=WORK) as wl.tmp:
        for op, index in enumerate(order):
            with tr.span("op", op):
                ans, errs, elapsed = run_op(wl, index, tally, start, tr, op)
            traced_wall += elapsed
            if not errs:
                with tr.span("probe", op):
                    wl.probe(tr, wl.items[index], ans)
    out = WORK / f"spans-{wl.name}-seed{seed}.jsonl"
    tr.write(out)
    print(f"{len(tr.spans)} spans written to {out.relative_to(ROOT)}")

    serialize = tr.durations("cli.serialize")
    imports = tr.durations("cli.import")
    metrics = {
        "cli.interp_s": (floor, "s"),
        "cli.import_s": (statistics.median(imports) if imports else import_s, "s"),
        "cli.serialize_s": (statistics.median(serialize) if serialize else 0.0, "s"),
    }
    for name in BUSY:
        metrics[f"{name}.busy_s"] = (tr.busy(name), "s")
    for name, unit in COUNTS:
        metrics[name] = (tr.counts.get(name, 0), unit)
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tr.calls(layer), "count")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return tally, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quotcoh" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'quotcoh'}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]()

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    floor = interp_floor()
    print("machine " + json.dumps({**machine(), "cli.interp_s": round(floor, 6)}, sort_keys=True))
    setup_s, import_s = setup(wl, args.seed)
    print(f"setup_s {setup_s:.4f} (median of {SETUP_REPEATS}, at reference speed: cold `import {wl.import_module}` + building inputs)")
    if args.trace:
        tally, metrics = traced(wl, args.seed, start, floor, import_s)
    else:
        tally, metrics = measure(wl, args.seed, args.seconds, start)
        metrics["setup_s"] = (setup_s, "s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
