"""Spans and counters around the carlitz layers, installed from outside the package.

The tracer replaces public methods and module functions with wrappers while it
is installed and puts the originals back on ``uninstall``.  Module functions
are replaced in every ``carlitz.*`` module that binds them, because callers
such as ``verify`` import ``psi``, ``L_multi`` and the rest by name.

A timed wrapper records one span (name, start, end, parent) and adds its
duration minus its children's to the name's self time.  A counted wrapper
only counts: a timer around a call of about a microsecond would measure the
tracer.  Spans stay in memory and are written once, by ``write_spans``.
"""

import inspect
import sys
from array import array
from time import perf_counter

# (metric prefix, module, class or None, attribute) of each timed target
TIMED = (
    ("functions.psi", "functions", None, "psi"),
    ("functions.L_multi", "functions", None, "L_multi"),
    ("functions.ram_solve", "functions", None, "ram_solve"),
    ("functions.carlitz_e", "functions", None, "carlitz_e"),
    ("functions.pi_tilde", "functions", None, "pi_tilde"),
    ("functions.omega", "functions", None, "omega"),
    ("functions.chi_t", "functions", None, "chi_t"),
    ("functions.agf_f", "functions", None, "agf_f"),
    ("functions.papanikolas_L", "functions", None, "papanikolas_L"),
    ("tate.mul", "tate", "TateElem", "__mul__"),
    ("tate.add", "tate", "TateElem", "__add__"),
    ("tate.scalar_mul", "tate", "TateElem", "scalar_mul"),
    ("tate.tau", "tate", "TateElem", "tau"),
    ("tate.phi", "tate", "TateElem", "phi"),
    ("tate.ev", "tate", "TateElem", "ev"),
    ("laurent.mul", "laurent", "RamLaurent", "__mul__"),
    ("laurent.inv", "laurent", "RamLaurent", "inv"),
    ("laurent.qpow", "laurent", "RamLaurent", "qpow"),
    ("laurent.scale", "laurent", "RamLaurent", "scale"),
    ("laurent.add", "laurent", "RamLaurent", "__add__"),
    ("cyclotomic.gauss_sum", "cyclotomic", None, "gauss_sum"),
    ("cyclotomic.gauss_sum_inv", "cyclotomic", None, "gauss_sum_inv"),
    ("cyclotomic.interpolation_M", "cyclotomic", None, "interpolation_M"),
    ("cyclotomic.M_from_gauss", "cyclotomic", None, "M_from_gauss"),
    ("cyclotomic.telescope_pair", "cyclotomic", None, "telescope_pair"),
    ("cyclotomic.carlitz_poly", "cyclotomic", None, "carlitz_poly"),
    ("cyclotomic.action_at_lam", "cyclotomic", None, "action_at_lam"),
    ("cyclotomic.embed", "cyclotomic", None, "embed"),
    ("cyclotomic.elem_mul", "cyclotomic", "CycElem", "__mul__"),
    ("cyclotomic.elem_inv", "cyclotomic", "CycElem", "inv"),
    ("fields.poly_mul", "fields", "GFPoly", "__mul__"),
    ("fields.poly_divmod", "fields", "GFPoly", "__divmod__"),
    ("fields.poly_gcd", "fields", "GFPoly", "gcd"),
    ("fields.ratfunc_new", "fields", "RatFunc", "__init__"),
    ("fields.make_field", "fields", None, "make_field"),
    ("verify.run_check", "verify", None, "run_check"),
)

# (metric prefix, module, class, attribute) of each counted-only target
COUNTED = (
    ("fields.elem_mul", "fields", "GFElem", "__mul__"),
    ("fields.elem_add", "fields", "GFElem", "__add__"),
    ("fields.elem_inv", "fields", "GFElem", "inv"),
    ("fields.elem_is_zero", "fields", "GFElem", "is_zero"),
)

# class attributes that are the same function under a second name
ALIASES = {("tate", "TateElem", "__mul__"): ("__rmul__",)}


def _series_key(x):
    return (x.offset, x.prec, x.coeffs.shape, x.coeffs.tobytes())


class Tracer:
    """Wrappers, spans and counters for one traced pass; not thread-safe."""

    def __init__(self):
        self.names = [t[0] for t in TIMED]
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.counts = {t[0]: [0] for t in COUNTED}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = []  # [span index, seconds covered by children]
        self.mul_work = 0
        self.inv_work = 0
        self.psi_keys = []
        self.solve_keys = []
        self.ctx_cache_max = 0
        self._live_ctx = []
        self._patches = []  # (owner, attribute, original)

    # -- wrappers

    def _timed(self, i, fn, before=None):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        s_name, s_start, s_end, s_parent = (
            self.span_name, self.span_start, self.span_end, self.span_parent)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(s_start)
            s_name.append(i)
            s_parent.append(stack[-1][0] if stack else -1)
            s_start.append(0.0)
            s_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                s_start[idx] = t0
                s_end[idx] = t1
                calls[i] += 1
                self_s[i] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _counted(cell, fn):
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- work counts, taken from the arguments before the call

    def _on_mul(self, a, b):
        if hasattr(b, "coeffs") and hasattr(b, "ctx"):
            self.mul_work += a.coeffs.shape[0] * b.coeffs.shape[0] * a.ctx.spec.m ** 2

    def _on_inv(self, x, rel_prec=None):
        """Requested length: rel_prec, else ctx.wp for exact input, else prec - valuation."""
        if x.is_exact():
            n = rel_prec if rel_prec is not None else x.ctx.wp
        else:
            n = x.prec - x.valuation()
            if rel_prec is not None:
                n = min(n, rel_prec)
        self.inv_work += max(int(n), 1)

    def _on_psi(self, *args, **kwargs):
        a = self._psi_sig.bind(*args, **kwargs).arguments
        spec, s = a["ctx"].spec, a["s"]
        powers = a.get("powers")
        powers = (1,) * s if powers is None else tuple(powers)
        self.psi_keys.append((spec.p, spec.e, spec.d, s, _series_key(a["z"]),
                              a["degcap"], a["tcap"], powers, a["budget"].wp))

    def _on_solve(self, rows, rhs, wp):
        self.solve_keys.append((wp, tuple(_series_key(x) for r in rows for x in r)))

    def end_check(self):
        """Record the largest Completion.cache of the check that just ended."""
        for ctx in self._live_ctx:
            cache = getattr(ctx, "cache", None)
            if cache is not None:
                self.ctx_cache_max = max(self.ctx_cache_max, len(cache))
        self._live_ctx.clear()

    # -- installation

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, orig, new):
        """Replace orig wherever a carlitz module binds it."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "carlitz" or name.startswith("carlitz.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patch(mod, attr, new)

    def install(self):
        """Wrap every target; carlitz must already be imported."""
        mods = {m: sys.modules[f"carlitz.{m}"] for m in
                ("fields", "laurent", "tate", "functions", "cyclotomic", "verify")}
        before = {
            "functions.psi": self._on_psi,
            "functions.ram_solve": self._on_solve,
            "laurent.mul": self._on_mul,
            "laurent.inv": self._on_inv,
        }
        self._psi_sig = inspect.signature(mods["functions"].psi)
        for i, (metric, mod, cls, attr) in enumerate(TIMED):
            hook = before.get(metric)
            if cls is None:
                orig = getattr(mods[mod], attr)
                self._patch_function(orig, self._timed(i, orig, hook))
            else:
                owner = getattr(mods[mod], cls)
                wrapped = self._timed(i, vars(owner)[attr], hook)
                for name in (attr,) + ALIASES.get((mod, cls, attr), ()):
                    self._patch(owner, name, wrapped)
        for metric, mod, cls, attr in COUNTED:
            owner = getattr(mods[mod], cls)
            self._patch(owner, attr, self._counted(self.counts[metric], vars(owner)[attr]))
        completion = mods["laurent"].Completion
        init = vars(completion)["__init__"]

        def ctx_init(ctx, *args, **kwargs):
            init(ctx, *args, **kwargs)
            self._live_ctx.append(ctx)

        self._patch(completion, "__init__", ctx_init)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results

    def span_count(self):
        return len(self.span_start)

    def layer_values(self):
        """Per-layer values keyed by metric name (unit-free; see run.py for units)."""
        out = {}
        for i, name in enumerate(self.names):
            if name == "verify.run_check":
                continue
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        for name, cell in self.counts.items():
            out[f"{name}.calls"] = cell[0]
        out["laurent.mul.work"] = self.mul_work
        out["laurent.inv.work"] = self.inv_work
        out["laurent.ctx_cache.entries_max"] = self.ctx_cache_max
        out["functions.psi.distinct_frac"] = _distinct_frac(self.psi_keys)
        out["functions.ram_solve.distinct_frac"] = _distinct_frac(self.solve_keys)
        return out

    def write_spans(self, path):
        """Write the spans as one .npz: names, and per span name id, start, end, parent."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )


def _distinct_frac(keys):
    """Distinct keys over calls; 1.0 when there were no calls (nothing repeated)."""
    return len(set(keys)) / len(keys) if keys else 1.0
