"""Write the reference TSVs that every benchmark pass is compared with.

    python3 bench/capture_reference.py [WORKLOAD ...]

Run it only at the commit whose output is the reference, and only when the
workloads change: each file is the ``carlitz.cli.emit_tsv`` rendering of one
pass, for each check seed of ``workloads.ref_seeds``.  A pass with a failing
or raising check writes nothing.
"""

import sys

import run
from workloads import WORKLOADS, ref_seeds


def main(names):
    carlitz = run.load_carlitz()
    for name in names or list(WORKLOADS):
        wl = WORKLOADS[name]
        for seed in ref_seeds(wl):
            reports, errors, _, wall, _ = run.run_checks(carlitz, wl, seed)
            bad = errors + [r.check for r in reports if r.status != "pass"]
            if bad:
                raise SystemExit(f"{name} seed {seed}: not a reference, failing {bad}")
            path = run.reference_path(wl, seed)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(carlitz.cli.emit_tsv(reports, False), encoding="utf-8")
            print(f"{path.relative_to(run.ROOT)} {wall:.2f}s", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
