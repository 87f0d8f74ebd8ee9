"""Registry and command-line plumbing tests.

Heavy numeric content lives in test_acceptance; here the checks run at tiny
budgets and the focus is wiring: registry contents, config handling, report
shapes, emitters, exit codes, determinism.
"""

import dataclasses
import json
import subprocess
import sys

import pytest

from carlitz import cli
from carlitz import verify
from carlitz.errors import ConfigError, SizeLimitError, UnknownCheckError
from carlitz.functions import default_budget
from carlitz.laurent import Completion
from carlitz.verify import (
    CheckConfig,
    CheckDef,
    REGISTRY,
    run_all,
    run_check,
    _exact_sample,
)


EXPECTED_NAMES = [
    "thm1-psi1",
    "eq5-pelsid",
    "eq3-papdiffeq",
    "eq1-agf",
    "eq2-omega",
    "thm2-hI-const",
    "thm3-omega-gauss",
    "thm4-degcoeff",
    "lem41-genseries",
    "carlitz-zeta-s0",
    "tau-psi1",
    "phi-psi1",
    "lem31-bound",
    "lem32-isometry",
    "growth-remark",
    "prop51-ev",
    "cor52-chieval",
    "lem53-M-oracle",
    "lem55-telescope",
    "cor56-coeffs",
    "ca-ej-oracle",
    "gauss-product",
]

CHEAP = dict(p=2, prec=12, tcap=6, degcap=6, samples=2, seed=1)


def test_registry_names_and_order():
    assert list(REGISTRY) == EXPECTED_NAMES


def test_registry_entries_well_formed():
    for name, cd in REGISTRY.items():
        assert cd.formula.strip()
        assert callable(cd.runner)


def test_report_shape():
    rep = run_check(CheckConfig(check="eq2-omega", **CHEAP))
    assert rep.check == "eq2-omega"
    assert rep.status == "pass"
    assert isinstance(rep.params, dict)
    assert rep.params["q"] == 2
    assert isinstance(rep.elapsed_ms, int) and rep.elapsed_ms >= 0
    assert rep.samples
    for s in rep.samples:
        assert s.status in ("pass", "fail")
    assert isinstance(rep.residual_valuation, int)


def test_exact_report_marker():
    rep = run_check(CheckConfig(check="ca-ej-oracle", **CHEAP))
    assert rep.status == "pass"
    assert rep.residual_valuation == "exact"
    assert all(s.certified == "exact" for s in rep.samples)


def test_run_check_deterministic():
    cfg = CheckConfig(check="eq1-agf", p=3, prec=14, tcap=6, degcap=6, samples=3, seed=9)
    a = dataclasses.asdict(run_check(cfg))
    b = dataclasses.asdict(run_check(cfg))
    a["elapsed_ms"] = b["elapsed_ms"] = 0
    assert a == b


def test_unknown_check():
    with pytest.raises(UnknownCheckError):
        run_check(CheckConfig(check="nope", **CHEAP))


def test_parameter_range_validation():
    for kw in (dict(prec=4), dict(prec=1000), dict(samples=0), dict(degcap=0),
               dict(tcap=-1), dict(seed=-1), dict(e=0), dict(p=3.0), dict(p="3"),
               dict(p=None)):
        cfg = dict(CHEAP)
        cfg.update(kw)
        with pytest.raises(ConfigError):
            run_check(CheckConfig(check="eq2-omega", **cfg))


def test_prime_validation():
    base = dict(p=3, prec=12, tcap=6, degcap=6, samples=1, seed=0)
    # theta^2 + 2 factors over F_3
    with pytest.raises(ConfigError):
        run_check(CheckConfig(check="lem53-M-oracle", prime=(2, 0, 1), **base))
    with pytest.raises(ConfigError):
        run_check(CheckConfig(check="lem53-M-oracle", prime=(1, 2), **base))
    with pytest.raises(ConfigError):
        run_check(CheckConfig(check="lem53-M-oracle", prime=(3, 1), **base))
    with pytest.raises(ConfigError):
        run_check(CheckConfig(check="lem53-M-oracle", prime=(1,), **base))
    big = (1, 0, 0, 0, 0, 0, 1)
    with pytest.raises(ConfigError, match="torsion guard") as err:
        run_check(CheckConfig(check="lem53-M-oracle", prime=big, **base))
    # the one torsion guard, the one CycField calls, refused it
    assert isinstance(err.value.__cause__, SizeLimitError)
    with pytest.raises(ConfigError):
        run_check(CheckConfig(check="prop51-ev", prime=(1, 0, 1), prime2=(1, 0, 1), **base))
    with pytest.raises(ConfigError):
        run_check(CheckConfig(check="thm3-omega-gauss", prime=(1, 0, 1),
                              root_index=7, **base))


def test_default_prime_per_field():
    rep2 = run_check(CheckConfig(check="lem53-M-oracle", p=2, prec=12,
                                 tcap=6, degcap=6, samples=1, seed=0))
    assert rep2.params["prime"] == "1,1,1"
    rep3 = run_check(CheckConfig(check="lem53-M-oracle", p=3, prec=12,
                                 tcap=6, degcap=6, samples=1, seed=0))
    assert rep3.params["prime"] == "1,0,1"


def test_prime2_dropped_when_not_supported():
    rep = run_check(CheckConfig(check="thm3-omega-gauss", p=3, prime=(1, 0, 1),
                                prime2=(2, 1, 1), prec=12, tcap=6, degcap=6,
                                samples=1, seed=0))
    assert rep.params["prime2"] is None


def test_arity_two_needs_q_at_least_three():
    with pytest.raises(ConfigError):
        run_check(CheckConfig(check="thm2-hI-const", **CHEAP))


def test_run_all_skips_inapplicable_check(monkeypatch, capsys):
    # at q = 2 the arity-two check does not apply: --all reports it skipped
    # and runs every other check, while asking for it alone is a
    # configuration error
    reports = run_all(CheckConfig(**CHEAP))
    status = {r.check: r.status for r in reports}
    assert list(status) == EXPECTED_NAMES
    assert status.pop("thm2-hI-const") == "skipped"
    assert set(status.values()) == {"pass"}
    row = "thm2-hI-const\t0\tneeds q >= 3, got q = 2\tskipped\tskipped\tskipped"
    assert row in cli.emit_tsv(reports, False).splitlines()
    assert cli.main(["--check", "thm2-hI-const", "--p", "2"]) == 2
    small = {name: REGISTRY[name] for name in ("thm2-hI-const", "eq2-omega")}
    monkeypatch.setattr(verify, "REGISTRY", small)
    rc = cli.main(["--all", "--p", "2", "--prec", "12", "--tcap", "6",
                   "--degcap", "6", "--format", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


# -- command line


def _fail_registry():
    def runner(rc):
        return [_exact_sample(0, "forced", False)], {}
    return {
        "eq2-omega": REGISTRY["eq2-omega"],
        "zz-fail": CheckDef("always fails", runner),
    }


def test_cli_list(capsys):
    assert cli.main(["--list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == EXPECTED_NAMES


def test_cli_json_single(capsys):
    rc = cli.main(["--check", "eq2-omega", "--p", "2", "--prec", "12",
                   "--tcap", "6", "--degcap", "6", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"check", "params", "status", "residual_valuation",
                         "samples", "elapsed_ms"}
    assert data["status"] == "pass"
    for s in data["samples"]:
        assert set(s) == {"index", "label", "status", "residual_valuation",
                          "certified", "detail"}


def test_cli_text_mentions_identity(capsys):
    rc = cli.main(["--check", "eq2-omega", "--p", "2", "--prec", "12",
                   "--tcap", "6", "--degcap", "6", "--format", "text"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "identity:" in out
    assert "status: pass" in out


def test_cli_tsv_byte_identical(capsys):
    argv = ["--check", "eq1-agf", "--p", "3", "--prec", "14", "--tcap", "6",
            "--degcap", "6", "--samples", "3", "--seed", "4", "--format", "tsv"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    header = first.splitlines()[0].split("\t")
    assert header == ["check", "index", "label", "status",
                      "residual_valuation", "certified"]


def test_cli_tsv_identical_across_processes():
    argv = [sys.executable, "-m", "carlitz.cli", "--check", "eq1-agf",
            "--p", "3", "--prec", "14", "--tcap", "6", "--degcap", "6",
            "--samples", "3", "--seed", "4", "--format", "tsv"]
    runs = [subprocess.run(argv, capture_output=True, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0].startswith(b"check\t")


def test_cli_config_errors(capsys):
    assert cli.main(["--check", "nope", "--p", "2"]) == 2
    assert cli.main(["--check", "eq2-omega", "--all", "--p", "2"]) == 2
    assert cli.main([]) == 2
    assert cli.main(["--check", "eq2-omega", "--p", "2", "--prec", "4"]) == 2
    assert cli.main(["--check", "lem53-M-oracle", "--p", "2", "--prime", "a,b"]) == 2
    assert cli.main(["--check", "lem53-M-oracle", "--p", "2",
                     "--prime", "1,1,0,0,0,0,0,0,0,0,1"]) == 2
    capsys.readouterr()


def test_cli_failure_exit_code(capsys, monkeypatch):
    small = _fail_registry()
    monkeypatch.setattr(verify, "REGISTRY", small)
    monkeypatch.setattr(cli, "REGISTRY", small)
    rc = cli.main(["--check", "zz-fail", "--p", "2", "--format", "json"])
    assert rc == 1
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "fail"
    assert data["samples"][0]["label"] == "forced"


def test_cli_all_aggregates(capsys, monkeypatch):
    small = _fail_registry()
    monkeypatch.setattr(verify, "REGISTRY", small)
    monkeypatch.setattr(cli, "REGISTRY", small)
    rc = cli.main(["--all", "--p", "2", "--prec", "12", "--tcap", "6",
                   "--degcap", "6", "--format", "json"])
    assert rc == 1
    data = json.loads(capsys.readouterr().out)
    assert [c["check"] for c in data["checks"]] == ["eq2-omega", "zz-fail"]
    assert data["status"] == "fail"
    rc = cli.main(["--all", "--p", "2", "--prec", "12", "--tcap", "6",
                   "--degcap", "6", "--format", "text"])
    assert rc == 1
    assert "overall: fail" in capsys.readouterr().out


def test_all_error_row(capsys, monkeypatch):
    """Under --all a check whose runner raises a CarlitzError becomes one row
    with status error and the error as its label; the other checks still
    run, and the exit status is 1.  Run alone, the check still aborts."""
    def runner(rc):
        raise SizeLimitError("qpow block too long")

    small = {"zz-raise": CheckDef("always raises", runner), "eq2-omega": REGISTRY["eq2-omega"]}
    monkeypatch.setattr(verify, "REGISTRY", small)
    monkeypatch.setattr(cli, "REGISTRY", small)
    flags = ["--p", "2", "--prec", "12", "--tcap", "6", "--degcap", "6"]
    assert cli.main(["--all", *flags, "--format", "tsv"]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert rows[1] == "zz-raise\t0\tSizeLimitError: qpow block too long\terror\terror\terror"
    assert rows[2].startswith("eq2-omega\t0\t") and rows[2].split("\t")[3] == "pass"
    assert cli.main(["--all", *flags, "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert [c["status"] for c in data["checks"]] == ["error", "pass"]
    assert data["status"] == "fail"
    assert cli.main(["--check", "zz-raise", *flags]) == 1
    assert "SizeLimitError" in capsys.readouterr().err


def test_run_all_order(monkeypatch):
    small = _fail_registry()
    monkeypatch.setattr(verify, "REGISTRY", small)
    reports = run_all(CheckConfig(**CHEAP))
    assert [r.check for r in reports] == ["eq2-omega", "zz-fail"]


def test_cli_config_file(tmp_path, capsys):
    cf = tmp_path / "run.cfg"
    cf.write_text("# comment\ncheck=eq2-omega\np=2\nprec=14\ntcap=6\n"
                  "degcap=6\nformat=json\n")
    rc = cli.main(["--config", str(cf)])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["params"]["prec"] == 14
    # explicit flag wins over the file
    rc = cli.main(["--config", str(cf), "--prec", "16", "--format", "tsv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("check\t")


def test_cli_config_file_rejects_junk(tmp_path, capsys):
    bad1 = tmp_path / "a.cfg"
    bad1.write_text("notakey=3\n")
    assert cli.main(["--config", str(bad1), "--check", "eq2-omega"]) == 2
    bad2 = tmp_path / "b.cfg"
    bad2.write_text("just some words\n")
    assert cli.main(["--config", str(bad2), "--check", "eq2-omega"]) == 2
    bad3 = tmp_path / "c.cfg"
    bad3.write_text("format=yaml\n")
    assert cli.main(["--config", str(bad3), "--check", "eq2-omega"]) == 2
    assert cli.main(["--config", str(tmp_path / "missing.cfg"),
                     "--check", "eq2-omega"]) == 2
    capsys.readouterr()


def test_config_file_roundtrip(tmp_path):
    vals = {
        "check": "thm3-omega-gauss", "p": 3, "e": 1, "prime": (1, 0, 1),
        "prime2": (2, 1, 1), "root_index": 0, "prec": 16, "tcap": 8,
        "degcap": 8, "samples": 2, "seed": 5, "format": "tsv", "all": False,
    }
    lines = []
    for k, v in vals.items():
        if isinstance(v, tuple):
            v = ",".join(str(c) for c in v)
        lines.append(f"{k}={v}")
    cf = tmp_path / "round.cfg"
    cf.write_text("\n".join(lines) + "\n")
    first = cli.read_config(str(cf))
    assert first == vals
    cf.write_text("\n".join(
        f"{k}={','.join(str(c) for c in v) if isinstance(v, tuple) else v}"
        for k, v in first.items()) + "\n")
    assert cli.read_config(str(cf)) == first


def test_cli_out_file(tmp_path, capsys):
    dest = tmp_path / "rep.json"
    rc = cli.main(["--check", "eq2-omega", "--p", "2", "--prec", "12",
                   "--tcap", "6", "--degcap", "6", "--format", "json",
                   "--out", str(dest)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    data = json.loads(dest.read_text())
    assert data["check"] == "eq2-omega"
    bad = tmp_path / "no" / "dir" / "rep.json"
    assert cli.main(["--check", "eq2-omega", "--p", "2", "--prec", "12",
                     "--tcap", "6", "--degcap", "6", "--out", str(bad)]) == 2
    capsys.readouterr()


def _moments_per_call(ctx, rows, count, B):
    """The per-call form of the power sums: the first count of them, from
    k = 0 on every call."""
    moments = []
    acc = [ctx.one() for _ in rows]
    for k in range(count):
        tot = ctx.zero(B.wp)
        for (_, w), pw in zip(rows, acc):
            tot = tot + pw.scale(w)
        moments.append(tot)
        acc = [pw * val for (val, _), pw in zip(rows, acc)]
    return moments


@pytest.mark.parametrize("p", [2, 3])
def test_differential_moments_extend(p):
    """_Moments.upto gives the per-call power sums for counts that rise,
    repeat and fall, as the samples of thm4 and prop51 ask for them."""
    rc = verify._resolve(CheckConfig(check="prop51-ev", p=p))
    spec, prime, roots = verify._torsion_for(rc, every=False)
    ctx = Completion(p, 1, prime.degree)
    B = default_budget(ctx, 16)
    rows, _ = verify._residue_rows(ctx, spec, prime, {0: roots[0][1]}, (0,), B)
    sums = verify._Moments(ctx, rows, B)
    for count in (3, 1, 7, 7, 0, 9):
        assert sums.upto(count) == _moments_per_call(ctx, rows, count, B)


def test_differential_check_order():
    """A check's TSV rows do not depend on which checks ran before it in the
    same process: --all at --p 3 against every check run alone in reverse
    order, each pass on fresh completions."""
    cfg = CheckConfig(p=3)
    verify._completion.cache_clear()
    forward = run_all(cfg)
    verify._completion.cache_clear()
    backward = [run_check(dataclasses.replace(cfg, check=name)) for name in reversed(REGISTRY)]
    assert cli.emit_tsv(backward[::-1], False) == cli.emit_tsv(forward, False)
