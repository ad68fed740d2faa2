"""The arithcx benchmark: CLI workloads run in-process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (src/ is put on the import path; nothing
is installed).  One client runs the workload's command list through
`arithcx.cli.main(argv)` again and again, each command's stdout
captured and its sha256 compared with the digest pinned in
digests.json, for about S seconds.  The last stdout line is one JSON
object with the metrics: the end-to-end ones with --trace 0, the
per-layer ones with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import COUNTER_NAMES, SPAN_NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

RIGIDITY_SEEDS = 64  # coloring seeds 0..63 have pinned digests
SWEEP_SIZE = 16
SETUP_PER_PASS = 3
KERNEL_REPEATS = 7

WORKLOADS = {
    "ball-growth": lambda seed: [["lsv", "ball", "--radius", "5"]],
    "building-verify": lambda seed: [["lsv", "verify", "--radius", "3"]],
    "rigidity-sweep": lambda seed: [
        ["rigidity", "--colors", "2", "--radius", "3", "--seed", str(k)]
        for k in sorted(random.Random(seed).sample(range(RIGIDITY_SEEDS), SWEEP_SIZE))
    ],
    "group-count": lambda seed: [
        ["rigidity", "--colors", "1", "--radius", "2"],
        ["tree", "experiment", "--r", "3", "--s", "1"],
    ],
}

SETUP_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import arithcx.cli\n"
    "from arithcx.gf2k import GF16\n"
    "GF16.mul(1, 1)\n"
    "print(time.perf_counter() - t)\n"
)


def run_command(argv: list[str]) -> tuple[int | None, str, float]:
    """Exit code (None when main raised), stdout, wall seconds."""
    from arithcx import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except (Exception, SystemExit):
        traceback.print_exc()
        rc = None
    return rc, buf.getvalue(), time.perf_counter() - t0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_record() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }


def setup_seconds() -> list[float]:
    """Import plus first-use GF(16) tables, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_PER_PASS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True,
        )
        out.append(float(proc.stdout))
    return out


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_timings() -> tuple[dict, list[str]]:
    """Isolated GF(16) and pgl_mul timings over fixed inputs, with checks
    of their results against independent arithmetic."""
    from arithcx.gf2k import GF16
    from arithcx.projmat import identity, lsv_generators, pgl_mul, symmetrize

    errors = []
    pairs = [(a, b) for a in range(16) for b in range(16)]
    nonzero = range(1, 16)

    def clmul_mod(a: int, b: int) -> int:
        p = 0
        for i in range(4):
            if b >> i & 1:
                p ^= a << i
        for i in (6, 5, 4):
            if p >> i & 1:
                p ^= 0b10011 << (i - 4)
        return p

    if any(GF16.mul(a, b) != clmul_mod(a, b) for a, b in pairs):
        errors.append("GF16.mul disagrees with carry-less multiplication")
    if any(clmul_mod(a, GF16.inv(a)) != 1 for a in nonzero):
        errors.append("GF16.inv is not a multiplicative inverse")
    sym = symmetrize(lsv_generators())
    gens = sym.matrices
    ident = identity(GF16).entries
    by_label = dict(zip(sym.labels, gens))
    for g, lab in zip(gens, sym.labels):
        if pgl_mul(g, by_label[sym.inverse_label(lab)]).entries != ident:
            errors.append(f"pgl_mul(g, g^-1) is not the identity at label {lab}")

    mul, inv = GF16.mul, GF16.inv
    mat_pairs = [(a, b) for a in gens for b in gens]
    metrics = {
        "gf2k.mul_ns": (_median_time(
            lambda: [mul(a, b) for a, b in pairs], KERNEL_REPEATS * 20
        ) / len(pairs) * 1e9, "ns"),
        "gf2k.inv_ns": (_median_time(
            lambda: [inv(a) for a in nonzero], KERNEL_REPEATS * 200
        ) / len(nonzero) * 1e9, "ns"),
        "projmat.pgl_mul_us": (_median_time(
            lambda: [pgl_mul(a, b) for a, b in mat_pairs], KERNEL_REPEATS
        ) / len(mat_pairs) * 1e6, "us"),
    }
    return metrics, errors


class Loop:
    """Runs passes over one command list and gates every output."""

    def __init__(self, commands: list[list[str]], pinned: dict) -> None:
        self.commands = commands
        self.pinned = pinned
        self.first_seen: dict = {}
        self.attempted = 0
        self.failed = 0

    def one_pass(self) -> dict:
        gc.collect()
        cpu0 = time.process_time()
        wall = 0.0
        report_bytes = 0
        for argv in self.commands:
            rc, out, secs = run_command(argv)
            wall += secs
            report_bytes += len(out.encode())
            key = " ".join(argv)
            d = digest(out)
            # an argv with no pinned digest is held to its first output
            want = self.pinned.get(key) or self.first_seen.setdefault(key, d)
            self.attempted += 1
            if rc != 0 or d != want:
                self.failed += 1
                print(f"FAILED: {key}: exit {rc}, sha256 {d[:16]} != {want[:16]}",
                      file=sys.stderr)
        return {
            "wall_s": wall,
            "cpu_s": time.process_time() - cpu0,
            "report_bytes": report_bytes,
        }


def _fmt_samples(values: list[float]) -> str:
    return ", ".join(f"{v:.4g}" for v in values)


def _done(t0: float, seconds: float, passes: list[dict]) -> bool:
    """True once another pass would end further past `seconds` than now
    is short of it, so a run lasts `seconds` on average."""
    typical = statistics.median(p["wall_s"] for p in passes)
    return time.perf_counter() - t0 + typical / 2 > seconds


def measure_traced(
    loop: Loop, seconds: float
) -> tuple[list[dict], list[dict], list[Tracer]]:
    """Passes in the pattern untraced, traced, traced, untraced, ... for
    about `seconds`, at least one untraced and two traced."""
    plain, traced, tracers = [], [], []
    t0 = time.perf_counter()
    while len(traced) < 2 or not _done(t0, seconds, plain + traced):
        if (len(plain) + len(traced)) % 3 == 0:
            plain.append(loop.one_pass())
        else:
            tracer = Tracer()
            with tracer.installed():
                traced.append(loop.one_pass())
            tracers.append(tracer)
    return plain, traced, tracers


def end_to_end(loop: Loop, seconds: float, lines: list[str]) -> dict:
    """Untraced passes for about `seconds` (at least one), each after a
    few set-up probes, so that both medians sample the whole run."""
    setups, passes = [], []
    t0 = time.perf_counter()
    while not passes or not _done(t0, seconds, passes):
        setups += setup_seconds()
        passes.append(loop.one_pass())
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    walls = [p["wall_s"] for p in passes]
    lines.append(f"setup_s samples: {_fmt_samples(setups)}")
    lines.append(f"wall_s samples: {_fmt_samples(walls)}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (maxrss_kb / 1024, "MB"),
    }
    return metrics


def per_layer(
    loop: Loop, seconds: float, lines: list[str]
) -> tuple[dict, list[str], list[Tracer]]:
    metrics, errors = kernel_timings()
    plain, traced, tracers = measure_traced(loop, seconds)

    selfs = [t.self_times() for t in tracers]
    counts = []
    for tracer, (_, calls, _), p in zip(tracers, selfs, traced):
        c = {n: tracer.counters.get(n, 0) for n in COUNTER_NAMES}
        c.update({f"{n}.calls": calls[n] for n in SPAN_NAMES})
        c["cli.report_bytes"] = p["report_bytes"]
        counts.append(c)
    if any(c != counts[0] for c in counts[1:]):
        errors.append("deterministic counters differ between traced passes")
    if any(p["report_bytes"] != plain[0]["report_bytes"] for p in plain + traced):
        errors.append("report bytes differ between passes")

    for n in SPAN_NAMES:
        metrics[f"{n}.self_s"] = (statistics.median(s[0][n] for s in selfs), "s")
    for n, v in counts[0].items():
        metrics[n] = (v, "bytes" if n == "cli.report_bytes" else "count")
    searches = counts[0]["autoeng.searches"]
    yield_ = counts[0]["autoeng.generators_found"] / searches if searches else 0.0
    metrics["autoeng.search_yield"] = (yield_, "ratio")

    plain_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    # self times of one pass sum to its root (cli.main) spans; the rest
    # of the pass is the harness's capture and hashing
    coverage = statistics.median(s[2] / p["wall_s"] for s, p in zip(selfs, traced))
    metrics["run.cpu_s"] = (statistics.median(p["cpu_s"] for p in plain), "s")
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    metrics["trace.span_coverage_frac"] = (coverage, "ratio")
    lines.append(
        f"passes: {len(plain)} untraced ({_fmt_samples([p['wall_s'] for p in plain])} s), "
        f"{len(traced)} traced ({_fmt_samples([p['wall_s'] for p in traced])} s)"
    )
    return metrics, errors, tracers


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "arithcx" / "cli.py").is_file():
        print(f"no arithcx sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = run_record()
    commands = WORKLOADS[args.workload](args.seed)
    pinned = json.loads((HERE / "digests.json").read_text())

    import arithcx.cli  # noqa: F401  (setup is timed in fresh processes)
    from arithcx.gf2k import GF16
    GF16.mul(1, 1)

    loop = Loop(commands, pinned)
    lines = [
        "run: " + " ".join(f"{k}={v}" for k, v in record.items()),
        f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} commands={len(commands)}",
    ]
    if args.trace:
        metrics, errors, tracers = per_layer(loop, args.seconds, lines)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "record": record,
            "workload": args.workload,
            "seed": args.seed,
            "commands": commands,
            "span_fields": ["name", "parent", "start", "end"],
            "passes": [{"spans": t.spans, "counters": dict(t.counters)} for t in tracers],
        }))
        lines.append(f"spans: {trace_file.relative_to(ROOT)}")
    else:
        metrics, errors = end_to_end(loop, args.seconds, lines), []
    failed_frac = loop.failed / loop.attempted
    lines.append(f"ops_attempted: {loop.attempted} count")
    lines.append(f"ops_failed_frac: {failed_frac} ratio")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name}: {value} {unit}")
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({
        "correct": loop.failed == 0 and not errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
