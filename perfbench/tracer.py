"""Per-layer tracing of braidhopf from outside the package.

While installed, the tracer wraps the public entry points of each layer
(and every catalog check) and restores them on exit.  Module-level
functions are replaced in every braidhopf module that imported them by
name, so calls through ``verify`` and ``deform`` are seen too.

Inner calls (about 10^6 on the largest workload) are aggregated per
(function, enclosing check): call count, keys not seen before in the same
``cli.main`` call, total time and self time.  No object is kept per call.
Each catalog check gets one full span.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

PACKAGE = "braidhopf"

# (metric prefix, owner module, class or None, attribute, keyed)
# keyed functions memoize on (first argument, second argument); counting
# the first sightings of that pair per cli.main call gives the memo misses.
TARGETS = (
    ("algebra.normal_form_word", "algebra", "Algebra", "normal_form_word", True),
    ("algebra.antipode_word", "algebra", "Algebra", "antipode_word", False),
    ("algebra.involution_word", "algebra", "Algebra", "involution_word", False),
    ("braidtensor.comul_word", "braidtensor", None, "comul_word", True),
    ("braidtensor.lambda_n_key", "braidtensor", None, "lambda_n_key", True),
    ("braidtensor.braid_at", "braidtensor", None, "braid_at", False),
    ("deform.conv_exp_key", "deform", None, "conv_exp_key", True),
    ("deform.mu_t_key", "deform", "Deformation", "mu_t_key", True),
    ("deform.st_word", "deform", "Deformation", "st_word", True),
    ("deform.conv_power", "deform", None, "conv_power", False),
    ("verify.psd_exact", "verify", None, "psd_exact", False),
    ("presentation.check_confluence", "presentation", None,
     "check_confluence", False),
    ("presentation.check_quotient_compatibility", "presentation", None,
     "check_quotient_compatibility", False),
    ("presentation.parse", "presentation", None, "parse_presentation", False),
)


def layer_metric_names(check_ids) -> dict:
    """Per-layer metric name -> unit, in report order (microbenchmarks,
    drift probe and trace overhead excluded)."""
    names = {}
    for prefix, _, _, _, keyed in TARGETS:
        if prefix.startswith("presentation."):
            names[prefix + "_s"] = "s"
        elif prefix == "verify.psd_exact":
            names.update({prefix + ".calls": "count", prefix + ".s": "s",
                          prefix + ".max_n": "count"})
        elif keyed:
            names.update({prefix + ".calls": "count",
                          prefix + ".distinct": "count",
                          prefix + ".hit_ratio": "ratio",
                          prefix + ".self_s": "s"})
        else:
            names.update({prefix + ".calls": "count",
                          prefix + ".self_s": "s"})
    for cid in check_ids:
        names[f"verify.check.{cid}.s"] = "s"
    return names


class Tracer:
    """Aggregated call statistics and one span per catalog check."""

    def __init__(self):
        self.check = "-"            # enclosing catalog check
        self.call = -1              # index of the current cli.main call
        self.stack = [0.0]          # child-time accumulators; [0] is the root
        self.agg = {}               # (prefix, check) -> [calls, new, total, self]
        self.seen = {}              # prefix -> keys seen in the current call
        self.spans = []             # one dict per catalog check run
        self.psd_max_n = 0
        self.origin = time.perf_counter()

    def begin_call(self) -> None:
        """Start a cli.main call: its Algebra and memo tables are new."""
        self.call += 1
        for s in self.seen.values():
            s.clear()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, prefix, fn, keyed):
        agg, stack, clock = self.agg, self.stack, time.perf_counter
        seen = self.seen.setdefault(prefix, set())
        sized = prefix == "verify.psd_exact"
        tracer = self

        def traced(*args, **kwargs):
            new = 0
            if keyed:
                k = args[1]
                key = (args[0], tuple(k) if type(k) is list else k)
                if key not in seen:
                    seen.add(key)
                    new = 1
            if sized:
                tracer.psd_max_n = max(tracer.psd_max_n, args[0].size)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                stack[-1] += elapsed
                slot = (prefix, tracer.check)
                rec = agg.get(slot)
                if rec is None:
                    rec = agg[slot] = [0, 0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += new
                rec[2] += elapsed
                rec[3] += elapsed - child

        return traced

    def _wrap_check(self, cid, fn):
        stack, clock = self.stack, time.perf_counter
        tracer = self

        def traced_check(ctx):
            outer = tracer.check
            tracer.check = cid
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(ctx)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                stack[-1] += elapsed
                tracer.check = outer
                tracer.spans.append({
                    "call": tracer.call, "check": cid,
                    "start_s": t0 - tracer.origin, "s": elapsed,
                    "self_s": elapsed - child})

        return traced_check

    @contextmanager
    def installed(self):
        """Patch the targets and the catalog; restore them on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        undo = []
        try:
            for prefix, owner, cls, attr, keyed in TARGETS:
                home = sys.modules[f"{PACKAGE}.{owner}"]
                if cls is not None:
                    klass = getattr(home, cls)
                    original = klass.__dict__[attr]
                    setattr(klass, attr, self._wrap(prefix, original, keyed))
                    undo.append((klass, attr, original))
                    continue
                original = getattr(home, attr)
                wrapped = self._wrap(prefix, original, keyed)
                for mod in modules:
                    if mod.__dict__.get(attr) is original:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, original))
            verify = sys.modules[f"{PACKAGE}.verify"]
            catalog = verify.CATALOG
            verify.CATALOG = tuple((cid, needs, self._wrap_check(cid, fn))
                                   for cid, needs, fn in catalog)
            undo.append((verify, "CATALOG", catalog))
            yield self
        finally:
            for obj, attr, original in reversed(undo):
                setattr(obj, attr, original)

    # -- results ----------------------------------------------------------

    def layer_metrics(self, check_ids) -> dict:
        """Totals per function over all checks, keyed like
        layer_metric_names."""
        totals = {}
        for (prefix, _), rec in self.agg.items():
            acc = totals.setdefault(prefix, [0, 0, 0.0, 0.0])
            for i in range(4):
                acc[i] += rec[i]
        out = {}
        for name in layer_metric_names(check_ids):
            if name.startswith("verify.check."):
                cid = name[len("verify.check."):-len(".s")]
                out[name] = sum((s["s"] for s in self.spans
                                 if s["check"] == cid), 0.0)
                continue
            if name.startswith("presentation."):
                prefix, field = name[:-len("_s")], "s"
            else:
                prefix, field = name.rsplit(".", 1)
            calls, new, total, self_s = totals.get(prefix, (0, 0, 0.0, 0.0))
            out[name] = {
                "calls": calls, "distinct": new,
                "hit_ratio": (calls - new) / calls if calls else 0.0,
                "self_s": self_s, "s": total, "max_n": self.psd_max_n,
            }[field]
        return out

    def breakdown(self) -> list:
        """Rows per (function, enclosing check), for the result file."""
        return [{"function": prefix, "check": check, "calls": rec[0],
                 "distinct": rec[1], "total_s": rec[2], "self_s": rec[3]}
                for (prefix, check), rec in sorted(self.agg.items())]
