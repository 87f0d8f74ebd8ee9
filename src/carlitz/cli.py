"""Command-line front end for the identity-check registry.

Configuration precedence: built-in defaults, then a key=value config file,
then explicit command-line flags.  Exit status: 0 every check passed or was
skipped as not applicable, 1 a check failed (or a computation error), 2
unusable configuration, including a single --check that does not apply.
"""

import argparse
import dataclasses
import json
import sys

from .errors import CarlitzError, ConfigError, UnknownCheckError
from .verify import REGISTRY, CheckConfig, run_all, run_check

_FORMATS = ("json", "tsv", "text")

_INT_KEYS = ("p", "e", "root_index", "prec", "tcap", "degcap", "samples", "seed")
_STR_KEYS = ("check", "format", "out")
_PRIME_KEYS = ("prime", "prime2")


def _parse_prime(text, what):
    toks = [t.strip() for t in str(text).split(",")]
    try:
        return tuple(int(t) for t in toks)
    except ValueError:
        raise ConfigError(f"{what} must be a comma-separated list of integers, got {text!r}")


def _parse_bool(text, what):
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{what} must be a boolean, got {text!r}")


def read_config(path):
    """Flat key=value file; keys match the command-line flag names."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}")
    for ln, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key in _INT_KEYS:
            try:
                out[key] = int(val)
            except ValueError:
                raise ConfigError(f"{path}:{ln}: {key} must be an integer, got {val!r}")
        elif key in _PRIME_KEYS:
            out[key] = _parse_prime(val, key)
        elif key == "all":
            out[key] = _parse_bool(val, key)
        elif key in _STR_KEYS:
            out[key] = val
        else:
            raise ConfigError(f"{path}:{ln}: unknown config key {key!r}")
    if "format" in out and out["format"] not in _FORMATS:
        raise ConfigError(f"format must be one of {', '.join(_FORMATS)}")
    return out


def build_parser():
    ap = argparse.ArgumentParser(
        prog="verify",
        description="Verify special-function identities over F_q[theta] "
                    "with certified truncation budgets.")
    ap.add_argument("--check", help="registry name of the check to run")
    ap.add_argument("--all", action="store_true", default=None,
                    help="run every check in registry order")
    ap.add_argument("--list", action="store_true",
                    help="list registry check names and exit")
    ap.add_argument("--config", help="key=value config file (flags override it)")
    ap.add_argument("--p", type=int, help="base field characteristic")
    ap.add_argument("--e", type=int, help="base field extension degree (q = p^e)")
    ap.add_argument("--prime", help="monic irreducible, coefficients low-to-high, e.g. 1,0,1")
    ap.add_argument("--prime2", help="second prime for composite-conductor checks")
    ap.add_argument("--root-index", type=int, dest="root_index",
                    help="which conjugate root to use (default: check-dependent)")
    ap.add_argument("--prec", type=int, help="target precision, exponent-of-u units")
    ap.add_argument("--tcap", type=int, help="auxiliary-variable degree truncation")
    ap.add_argument("--degcap", type=int, help="lattice-degree truncation")
    ap.add_argument("--samples", type=int, help="number of sample points")
    ap.add_argument("--seed", type=int, help="sampling seed")
    ap.add_argument("--format", choices=_FORMATS, help="output format")
    ap.add_argument("--out", help="write the report to this file instead of stdout")
    return ap


def _merge(args):
    merged = {**dataclasses.asdict(CheckConfig()), "all": None, "format": "text", "out": None}
    if args.config is not None:
        merged.update(read_config(args.config))
    for key in merged:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val
    for key in ("prime", "prime2"):
        if isinstance(merged[key], str):
            merged[key] = _parse_prime(merged[key], key)
    return merged


def _report_dict(rep):
    return dataclasses.asdict(rep)


def _overall(reports):
    """pass when no check failed; skipped checks do not count against it."""
    return "pass" if all(r.status in ("pass", "skipped") for r in reports) else "fail"


def emit_json(reports, single):
    if single:
        return json.dumps(_report_dict(reports[0]), indent=2) + "\n"
    return json.dumps({"checks": [_report_dict(r) for r in reports],
                       "status": _overall(reports)}, indent=2) + "\n"


def emit_tsv(reports, single):
    rows = ["check\tindex\tlabel\tstatus\tresidual_valuation\tcertified"]
    for rep in reports:
        for s in rep.samples:
            rows.append(f"{rep.check}\t{s.index}\t{s.label}\t{s.status}"
                        f"\t{s.residual_valuation}\t{s.certified}")
    return "\n".join(rows) + "\n"


def emit_text(reports, single):
    blocks = []
    for rep in reports:
        lines = [f"check: {rep.check}",
                 f"identity: {REGISTRY[rep.check].formula}",
                 "params: " + " ".join(f"{k}={v}" for k, v in rep.params.items())]
        for s in rep.samples:
            tail = f"  [{s.detail}]" if s.detail else ""
            lines.append(f"  sample {s.index}: {s.label}: {s.status}"
                         f" (margin={s.residual_valuation} certified={s.certified}){tail}")
        lines.append(f"status: {rep.status} (residual_valuation={rep.residual_valuation})"
                     f" elapsed_ms={rep.elapsed_ms}")
        blocks.append("\n".join(lines))
    text = "\n\n".join(blocks) + "\n"
    if not single:
        text += f"\noverall: {_overall(reports)} ({len(reports)} checks)\n"
    return text


_EMITTERS = {"json": emit_json, "tsv": emit_tsv, "text": emit_text}


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.list:
        for name in REGISTRY:
            print(name)
        return 0
    try:
        merged = _merge(args)
        if merged["format"] not in _FORMATS:
            raise ConfigError(f"format must be one of {', '.join(_FORMATS)}")
        single = not merged["all"]
        if merged["all"] and merged["check"]:
            raise ConfigError("--check and --all are mutually exclusive")
        if not merged["all"] and not merged["check"]:
            raise ConfigError("one of --check or --all is required")
        cfg = CheckConfig(**{f.name: merged[f.name] for f in dataclasses.fields(CheckConfig)})
        reports = run_all(cfg) if merged["all"] else [run_check(cfg)]
        payload = _EMITTERS[merged["format"]](reports, single)
    except (UnknownCheckError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CarlitzError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    if merged["out"]:
        try:
            with open(merged["out"], "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as err:
            print(f"error: cannot write {merged['out']}: {err}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return 0 if _overall(reports) == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
