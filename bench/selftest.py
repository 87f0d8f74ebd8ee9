"""Self-test of the benchmark at a tiny budget; not part of the package tests.

    python3 bench/selftest.py

For each workload it runs the measured and the traced path at prec 16 and one
sample (torsion-q4 at a degree-one prime) without the reference check, then
checks that every metric BENCHMARK.json names, and no other, is printed with
its unit, that the summed layer self time fits in the traced pass, and that
torsion-q4 and series-q2 make no psi calls.  Exits 1 and lists the failures if any check fails.
"""

import json
import sys
from dataclasses import replace

import run
from workloads import WORKLOADS

TINY = {
    "lattice-q3": {"prec": 16, "samples": 1},
    "torsion-q4": {"prime": (1, 1)},
    "series-q2": {"prec": 16, "samples": 1},
}
NO_PSI = ("torsion-q4", "series-q2")


def printed_metrics(res):
    """Metrics as the last output line carries them."""
    return json.loads(run.result_line(res))["metrics"]


def check_names(problems, where, printed, specs):
    for spec in specs:
        m = printed.get(spec["name"])
        if m is None:
            problems.append(f"{where}: {spec['name']} not printed")
        elif m.get("unit") != spec["unit"] or not isinstance(m.get("value"), (int, float)):
            problems.append(f"{where}: {spec['name']} printed as {m}")
    extra = set(printed) - {spec["name"] for spec in specs}
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    carlitz = run.load_carlitz()
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name, wl in WORKLOADS.items():
        tiny = replace(wl, config={**wl.config, **TINY[name]})
        plain = run.measure(carlitz, tiny, 0, 1, None)
        check_names(problems, f"{name} --trace 0", printed_metrics(plain), spec["end_to_end"])
        traced = run.measure_traced(carlitz, tiny, 0, None)
        layers = printed_metrics(traced)
        check_names(problems, f"{name} --trace 1", layers, spec["per_layer"])
        wall, self_s = traced["detail"]["traced_wall_s"], traced["detail"]["layer_self_s"]
        if self_s > wall:
            problems.append(f"{name}: layer self_s {self_s} exceeds traced wall {wall}")
        psi_calls = layers["functions.psi.calls"]["value"]
        if name in NO_PSI and psi_calls != 0:
            problems.append(f"{name}: functions.psi.calls is {psi_calls}, expected 0")
        print(f"{name}: wall {plain['metrics']['wall_s']['value']:.3f}s, traced {wall:.3f}s,"
              f" layer self {self_s:.3f}s, psi calls {psi_calls}", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
