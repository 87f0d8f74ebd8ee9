"""Benchmark of the carlitz identity verifier.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ``src/``.
One process and one thread run a workload's checks back to back through
``carlitz.verify.run_check`` (a closed loop with one client).  Every pass is
rendered with ``carlitz.cli.emit_tsv`` and compared row by row with the
reference TSV under ``bench/reference``.

``--trace 0`` repeats passes for about S seconds and reports the end-to-end
metrics, with pass times taken at the reference CPU speed of ``speed.py``.
``--trace 1`` runs one plain pass and one pass with the tracer of
``tracer.py`` installed, and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Spans and a stamped copy of the result go to ``bench/out``.
"""

import os

# One process, one thread: numpy's BLAS pools must not start extra threads.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"

sys.path.insert(0, str(BENCH))

from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, all_checks, check_seed, ref_seeds  # noqa: E402

SETUP_PROBES = 7

# unit of each end-to-end metric, printed with --trace 0 (defined in NOTES.md)
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
    "certified_min": "u-exp",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or reference)."""


def load_carlitz():
    """Import carlitz from this checkout's src/, never from anywhere else."""
    pkg = SRC / "carlitz"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no carlitz sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import carlitz
    import carlitz.cli
    import carlitz.verify

    if Path(carlitz.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"carlitz imported from {carlitz.__file__}, not {pkg}")
    return carlitz


def reference_path(wl, seed):
    return REFERENCE / wl.name / f"seed{check_seed(wl, seed)}.tsv"


def load_references(wl):
    """Reference TSV text of the workload, keyed by check seed."""
    out = {}
    for seed in ref_seeds(wl):
        try:
            out[seed] = reference_path(wl, seed).read_text(encoding="utf-8")
        except OSError as err:
            raise BenchError(f"no reference TSV for {wl.name}: {err}") from err
    return out


def rows_by_check(tsv):
    lines = tsv.splitlines()
    groups = {}
    for row in lines[1:]:
        groups.setdefault(row.split("\t", 1)[0], []).append(row)
    return (lines[0] if lines else ""), groups


def run_checks(carlitz, wl, seed, tracer=None, probe=None):
    """One pass: every check of the workload in order.  Errors are reported, not raised."""
    verify = carlitz.verify
    reports, errors, check_s = [], [], {}
    if probe is not None:
        probe.start()
    wall0, cpu0 = perf_counter(), process_time()
    for check in wl.checks:
        cfg = verify.CheckConfig(check=check, seed=check_seed(wl, seed), **wl.config)
        t0 = perf_counter()
        try:
            reports.append(verify.run_check(cfg))
        except Exception:
            errors.append(check)
            traceback.print_exc(file=sys.stderr)
        check_s[check] = perf_counter() - t0
        if tracer is not None:
            tracer.end_check()
    wall, cpu = perf_counter() - wall0, process_time() - cpu0
    if probe is not None:
        probe.stop()
    return reports, errors, check_s, wall, cpu


def run_pass(carlitz, wl, seed, references, tracer=None, probe=None):
    """One pass with its output check: failures, changed TSV rows, lowest certified level.

    With a probe, wall_s and cpu_s are at the reference speed and the
    measured times are kept as raw_wall_s and raw_cpu_s.
    """
    reports, errors, check_s, wall, cpu = run_checks(carlitz, wl, seed, tracer, probe)
    failed = set(errors) | {r.check for r in reports if r.status != "pass"}
    head, got = rows_by_check(carlitz.cli.emit_tsv(reports, False))
    changed = 0
    if references is not None:
        ref_head, ref = rows_by_check(references[check_seed(wl, seed)])
        changed += head != ref_head
        for check in wl.checks:
            a, b = got.get(check, []), ref.get(check, [])
            bad = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
            changed += bad
            if bad:
                failed.add(check)
    certs = [s.certified for r in reports for s in r.samples if isinstance(s.certified, int)]
    timing = {"wall_s": wall, "cpu_s": cpu}
    if probe is not None:
        ref_wall, ref_cpu = probe.at_reference(wall, cpu)
        timing = {"wall_s": ref_wall, "cpu_s": ref_cpu, "raw_wall_s": wall, "raw_cpu_s": cpu,
                  "probes": len(probe.samples), "probe_wall_s": probe.mean[0],
                  "probe_cpu_s": probe.mean[1]}
    return {
        "check_seed": check_seed(wl, seed),
        **timing,
        "check_s": check_s,
        "attempted": len(wl.checks),
        "failed": len(failed),
        "failed_checks": sorted(failed),
        "tsv_changed_rows": changed,
        "certified_min": min(certs) if certs else None,
    }


def setup_times(wl, n=SETUP_PROBES):
    """Set-up seconds of n fresh interpreters (see setup_probe.py)."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)]
    cmd += [",".join(map(str, t)) for t in wl.towers]
    out = []
    for _ in range(n):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if res.returncode != 0:
            raise BenchError(f"set-up probe failed: {res.stderr.strip()}")
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def build_towers(carlitz, wl):
    for tower in wl.towers:
        carlitz.fields.make_field(*tower)


def measure(carlitz, wl, seed, seconds, references):
    """Untraced passes for about `seconds`; end-to-end metrics.

    Pass i runs at workload seed `seed + i`, so the median pass time spans
    several sample sets.  Each pass runs under a speed probe (speed.py).
    certified_min is read from the first pass, whose inputs depend on `seed`
    alone.
    """
    setups = setup_times(wl)
    build_towers(carlitz, wl)
    passes = []
    probe = SpeedProbe()
    t0 = perf_counter()
    while True:
        passes.append(run_pass(carlitz, wl, seed + len(passes), references, probe=probe))
        typical = statistics.median(p["raw_wall_s"] for p in passes)
        if perf_counter() - t0 + typical > seconds:
            break
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    cert = passes[0]["certified_min"]
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_frac": 1 - failed / attempted,
        "certified_min": carlitz.laurent.PREC_EXACT if cert is None else cert,
    }
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "passes": passes,
            "setup_s": setups,
            "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
            "slowdown": statistics.median(p["probe_cpu_s"] for p in passes) / REFERENCE_S,
            "fail_frac": failed / attempted,
            "tsv_changed_rows": sum(p["tsv_changed_rows"] for p in passes),
        },
    }


def layer_unit(name):
    if name.startswith("verify.check_s.") or name.endswith(".self_s"):
        return "s"
    if name.endswith(".calls") or name.endswith(".work"):
        return "count"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(".entries_max"):
        return "entries"
    if name.endswith("_rows"):
        return "rows"
    raise ValueError(f"no unit for per-layer metric {name}")


def measure_traced(carlitz, wl, seed, references, spans_path=None):
    """One plain pass, then one traced pass on the same inputs; per-layer metrics."""
    build_towers(carlitz, wl)
    plain = run_pass(carlitz, wl, seed, references)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(carlitz, wl, seed, references, tracer)
    finally:
        tracer.uninstall()
    if spans_path is not None:
        tracer.write_spans(spans_path)
    values = {f"verify.check_s.{c}": plain["check_s"].get(c, 0.0) for c in all_checks()}
    values["verify.tsv_changed_rows"] = plain["tsv_changed_rows"] + traced["tsv_changed_rows"]
    layers = tracer.layer_values()
    values.update(layers)
    values["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    failed = plain["failed"] + traced["failed"]
    layer_self = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    return {
        "correct": failed == 0,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "passes": [plain, traced],
            "traced_wall_s": traced["wall_s"],
            "layer_self_s": layer_self,
            "spans": tracer.span_count(),
        },
    }


# -- the record


def git_sha(root):
    """HEAD of a git checkout at root, read from .git without running git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    """sha256 over the package sources, naming the code measured even without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "carlitz").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def stamp():
    import numpy

    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu_model(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def result_line(res):
    return json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")})


def summary_lines(res):
    lines = [f"# {name} {m['value']!r} {m['unit']}" for name, m in res["metrics"].items()]
    detail = res["detail"]
    if "fail_frac" in detail:
        lines.append(f"# raw_wall_s {detail['raw_wall_s']!r} s,"
                     f" slowdown (probe CPU time over reference) {detail['slowdown']!r}")
        lines.append(f"# fail_frac {detail['fail_frac']!r} ratio")
        lines.append(f"# tsv_changed_rows {detail['tsv_changed_rows']} rows")
        lines.append(f"# passes {len(detail['passes'])}")
    else:
        lines.append(f"# traced_wall_s {detail['traced_wall_s']!r} s"
                     f", layer self_s sum {detail['layer_self_s']!r} s, spans {detail['spans']}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    wl = WORKLOADS[args.workload]
    try:
        carlitz = load_carlitz()
        references = load_references(wl)
        record = stamp()
        tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
        OUT.mkdir(exist_ok=True)
        if args.trace:
            res = measure_traced(carlitz, wl, args.seed, references, OUT / f"spans-{tag}.npz")
        else:
            res = measure(carlitz, wl, args.seed, args.seconds, references)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    record["loadavg_1m_end"] = os.getloadavg()[0]
    print("# stamp " + json.dumps(record))
    print(f"# workload {wl.name} seed {args.seed}, first check seed {check_seed(wl, args.seed)}")
    for line in summary_lines(res):
        print(line)
    line = result_line(res)
    saved = {"stamp": record, "workload": wl.name, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace, "detail": res["detail"],
             "result": json.loads(line)}
    (OUT / f"result-{tag}.json").write_text(json.dumps(saved, indent=1) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
