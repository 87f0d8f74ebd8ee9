"""The benchmark's workloads: which registry checks run, at which budget.

Each workload runs its checks back to back through ``carlitz.verify.run_check``
in one process and one thread (a closed loop with one client).  The budgets
are fixed here once; a change that wants to look faster must never lower
them.  They are smaller than the CLI defaults so that one pass takes seconds,
not a minute, and several passes fit in one timed run (see NOTES.md).
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    checks: tuple
    # CheckConfig fields shared by every check; the seed is added per run
    config: dict = field(default_factory=dict)
    # (p, e, d) field towers the checks use; set-up builds them before timing
    towers: tuple = ()
    # False when no check draws random samples, so one reference serves all seeds
    seeded: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lattice-q3",
            checks=("thm2-hI-const", "lem41-genseries", "tau-psi1"),
            config={"p": 3, "prec": 24, "tcap": 8, "degcap": 8, "samples": 2},
            towers=((3, 1, 1),),
        ),
        Workload(
            name="torsion-q4",
            checks=("lem53-M-oracle", "gauss-product", "ca-ej-oracle", "lem55-telescope"),
            config={"p": 2, "e": 2, "root_index": 0},
            towers=((2, 2, 1), (2, 2, 2)),
            seeded=False,
        ),
        Workload(
            name="series-q2",
            checks=("eq1-agf", "eq2-omega", "eq3-papdiffeq", "eq5-pelsid",
                    "thm3-omega-gauss", "lem31-bound", "lem32-isometry",
                    "growth-remark", "cor52-chieval"),
            config={"p": 2, "prec": 64, "tcap": 24, "degcap": 8, "samples": 5},
            towers=((2, 1, 1), (2, 1, 2)),
        ),
    )
}

# Reference TSVs exist for check seeds 0 .. REF_SEEDS-1; workload seed n runs
# the checks at seed n % REF_SEEDS, so every seed has a reference.
REF_SEEDS = 32


def check_seed(workload: Workload, seed: int) -> int:
    return seed % REF_SEEDS if workload.seeded else 0


def ref_seeds(workload: Workload):
    """The check seeds that have a reference TSV."""
    return range(REF_SEEDS) if workload.seeded else (0,)


def all_checks():
    """Every check of every workload, in table order."""
    return [c for w in WORKLOADS.values() for c in w.checks]
