"""Run-time span tracing of the geomcrystal layers, from outside the package.

A :class:`Tracer` replaces public functions and methods of the package with
wrappers that record a span per call (name, start, end, parent) on a stack,
and puts every original back in :meth:`Tracer.restore`.  Nothing in the
package is edited.

Memory stays bounded however many calls a pass makes: suite and check spans
are kept one by one (a few hundred per pass), while the spans below the check
level are folded into one record per (name, parent name, inside a check).  A
span's self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import time

CHECK = "verify.check"
SUITE = "verify.suite"

# Record fields of an aggregated (name, parent, in_check) key.
CALLS, TOTAL, SELF, TERM_PRODUCTS, RESULT_TERMS = range(5)


def _poly_mul_counts(args, result, rec):
    a, b = args
    rec[TERM_PRODUCTS] += len(a.terms) * len(b.terms)
    rec[RESULT_TERMS] += len(result.terms)


def _ratfun_eq_counts(args, result, rec):
    a, b = args
    if type(b) is not type(a) or (a.num == b.num and a.den == b.den):
        return  # settled without the cross multiplication
    rec[TERM_PRODUCTS] += len(a.num.terms) * len(b.den.terms) + len(b.num.terms) * len(a.den.terms)


# (layer name, module, attribute path, counter) for every wrapped entry point.
TARGETS = (
    ("ratfun.poly_mul", "ratfun", "Poly.__mul__", _poly_mul_counts),
    ("ratfun.normalize", "ratfun", "RatFun.__init__", None),
    ("ratfun.eq", "ratfun", "RatFun.__eq__", _ratfun_eq_counts),
    ("ratfun.eval", "ratfun", "RatFun.eval", None),
    ("ratfun.subst_monomial", "ratfun", "RatFun.subst_monomial", None),
    ("slgroup.matmul", "slgroup", "MatRF.__mul__", None),
    ("slgroup.gauss", "slgroup", "gauss_decompose", None),
    ("slgroup.corner_minor", "slgroup", "corner_minor", None),
    ("slgroup.crystal_act", "slgroup", "crystal_act", None),
    ("slgroup.crystal_act_gauss", "slgroup", "crystal_act_gauss", None),
    ("charts.act_a", "charts", "TorusPointA.act", None),
    ("charts.act_b", "charts", "TorusPointB.act", None),
    ("charts.to_ratio", "charts", "TorusPointA.to_ratio", None),
    ("ud.tropicalize", "ud", "tropicalize", None),
    ("ud.trop_eval", "ud", "TropExpr.eval", None),
    ("ud.degree_oracle", "ud", "degree_oracle", None),
    ("gyt.etilde", "gyt", "etilde", None),
    ("gyt.ftilde", "gyt", "ftilde", None),
    ("gyt.crystal_power", "gyt", "crystal_power", None),
    ("gyt.stilde", "gyt", "stilde", None),
    ("gyt.tensor_e_pow", "gyt", "tensor_e_pow", None),
)
LAYERS = tuple(t[0] for t in TARGETS)
COUNTED = {"ratfun.poly_mul": ("term_products", "result_terms"), "ratfun.eq": ("term_products",)}


def resolve(module: str, path: str) -> tuple:
    """(owner, attribute name) of ``geomcrystal.<module>.<path>``."""
    owner = importlib.import_module(f"geomcrystal.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder.  Use :meth:`install` once, then :meth:`restore`."""

    def __init__(self):
        self.stack = []  # frames: [name, child_time, in_check]
        self.spans = []  # kept suite/check spans: dicts
        self.agg = {}  # (name, parent, in_check) -> record
        self._saved = []  # (owner, attribute, original, owned)

    # -- spans -----------------------------------------------------------

    def _enter(self, name):
        in_check = name == CHECK or (bool(self.stack) and self.stack[-1][2])
        frame = [name, 0.0, in_check]
        self.stack.append(frame)
        return frame

    def _leave(self, frame, dur):
        self.stack.pop()
        if self.stack:
            parent = self.stack[-1]
            parent[1] += dur
            return parent[0]
        return None

    def kept_span(self, name, label, fn, *args):
        """Call ``fn(*args)`` inside a span kept on its own."""
        frame = self._enter(name)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            dur = end - start
            parent = self._leave(frame, dur)
            self.spans.append(
                {"name": name, "label": label, "parent": parent,
                 "start": start, "end": end, "self": dur - frame[1]}
            )

    def _wrap(self, name, fn, count):
        enter, leave, clock, agg = self._enter, self._leave, time.perf_counter, self.agg

        def wrapper(*args, **kwargs):
            frame = enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                parent = leave(frame, dur)
                key = (name, parent, frame[2])
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0, 0, 0]
                rec[CALLS] += 1
                rec[TOTAL] += dur
                rec[SELF] += dur - frame[1]
            if count is not None:  # after the span: counting is tracing overhead
                count(args, result, rec)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr`` and remember how to undo it."""
        owned = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), owned))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every entry point in :data:`TARGETS`."""
        for name, module, path, count in TARGETS:
            owner, attr = resolve(module, path)
            self.patch(owner, attr, self._wrap(name, vars(owner)[attr], count))

    def restore(self):
        while self._saved:
            owner, attr, original, owned = self._saved.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- summaries -------------------------------------------------------

    def layer_totals(self, in_check=None):
        """{layer: {calls, self_s, ...}} summed over parents; ``in_check``
        selects spans inside (True) or outside (False) check spans."""
        out = {}
        for (name, _parent, inside), rec in self.agg.items():
            if in_check is not None and inside != in_check:
                continue
            tot = out.setdefault(name, [0, 0.0, 0.0, 0, 0])
            for k in range(5):
                tot[k] += rec[k]
        return {
            name: {"calls": rec[CALLS], "self_s": rec[SELF],
                   "term_products": rec[TERM_PRODUCTS], "result_terms": rec[RESULT_TERMS]}
            for name, rec in out.items()
        }
