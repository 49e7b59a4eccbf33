"""Spans around the public callables of each fpforms module, timed from outside.

``install`` replaces every reference to a wrapped callable that the
package holds: class attributes including aliases such as ``__radd__``,
and module globals in every fpforms module that imported the name (for
example ``fpforms.poincare.p_closed_failure``), so calls made inside the
library are timed too.  ``uninstall`` puts the originals back.  Nothing
here runs unless a traced run asks for it.

Spans are kept in memory as columns (span id, parent record, item,
start, end), up to MAX_RECORDS of them, and written out once the run is
over.  A span's self time is
its duration minus the time covered by its child spans and by the
counters' own inspection work.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from pathlib import Path

# span name -> "module:callable" targets; class targets also patch every
# alias of the same function in the class (``__radd__ = __add__``).
SPANS = {
    "scalar.prime": ["scalar:Prime.__init__"],
    "poly.ctor": ["poly:MultiPoly.__init__"],
    "poly.arith": [
        "poly:MultiPoly.__add__",
        "poly:MultiPoly.__sub__",
        "poly:MultiPoly.__rsub__",
        "poly:MultiPoly.__mul__",
        "poly:MultiPoly.__pow__",
        "poly:MultiPoly.__neg__",
    ],
    "poly.diff": [
        "poly:MultiPoly.partial",
        "poly:MultiPoly.partial_pow_fast",
        "poly:MultiPoly.partial_multi",
        "poly:MultiPoly.antiderivative",
    ],
    "poly.frob": [
        "poly:MultiPoly.frobenius_decompose",
        "poly:MultiPoly.substitute_pth",
        "poly:MultiPoly.unsubstitute_pth",
    ],
    "ratfun.ctor": ["ratfun:RatFun.__init__"],
    "ratfun.arith": [
        "ratfun:RatFun.__add__",
        "ratfun:RatFun.__sub__",
        "ratfun:RatFun.__rsub__",
        "ratfun:RatFun.__mul__",
        "ratfun:RatFun.__truediv__",
        "ratfun:RatFun.__neg__",
        "ratfun:RatFun.__eq__",
    ],
    "ratfun.clear": ["ratfun:clear_denominators"],
    "forms.ctor": ["forms:DiffForm.__init__"],
    "forms.arith": [
        "forms:DiffForm.__add__",
        "forms:DiffForm.__sub__",
        "forms:DiffForm.__neg__",
        "forms:DiffForm.__eq__",
    ],
    "forms.d": ["forms:DiffForm.d"],
    "forms.wedge": ["forms:DiffForm.wedge"],
    "operators.p_closed": ["operators:p_closed_failure"],
    "operators.decompose": ["operators:p_decompose_step"],
    "operators.ri": [
        "operators:irrational_part",
        "operators:p_operator",
        "operators:split_rational_irrational",
    ],
    "operators.ct": ["operators:o_operator", "operators:split_complete_restricted"],
    "poincare.integrate": ["poincare:integrate"],
    "poincare.oracle": ["poincare:exactness_oracle"],
    "cartier.cartier": ["cartier:cartier"],
    "cartier.gamma0": ["cartier:gamma0"],
    "parser.parse": ["parser:parse_form"],
    "printer.doc": ["printer:form_to_doc", "printer:doc_to_form"],
    "printer.text": ["printer:form_to_text"],
    "cli.run": ["cli:run_command"],
    "audit.run": ["audit:run_audit"],
    "sampling.draw": [
        "sampling:random_exps",
        "sampling:random_poly",
        "sampling:random_ratfun",
        "sampling:random_multi_index",
        "sampling:random_form",
        "sampling:random_exact_form",
        "sampling:random_gamma0_image",
        "sampling:random_closed_form",
        "sampling:random_p_closed_form",
    ],
}

SPAN_NAMES = tuple(SPANS)

# Records kept per run (34 bytes each); spans after the first MAX_RECORDS
# still count towards the totals but are not recorded.
MAX_RECORDS = 1_000_000


class Tracer:
    """Span stack, per-span totals, counters and the span records."""

    def __init__(self):
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.inspect_s = 0.0
        self.item = -1
        # counters measured where the work happens
        self.ctor_terms_in = 0
        self.ctor_clean = 0
        self.ratfun_inflate = 0
        # one record per span; parent is the record index of the enclosing
        # span, -1 for a call made directly by the benchmark
        self.rec_span = array("H")
        self.rec_parent = array("q")
        self.rec_item = array("q")
        self.rec_start = array("d")
        self.rec_end = array("d")
        self._stack = []  # [record index, time covered by children]
        self._patched = []

    # ------------------------------------------------------------------

    def wrap(self, fn, sid, probe=None):
        stack = self._stack
        clock = time.perf_counter
        rec_span, rec_parent, rec_item = self.rec_span, self.rec_parent, self.rec_item
        rec_start, rec_end = self.rec_start, self.rec_end
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            if probe is not None:
                t0 = clock()
                probe(self, args, kwargs)
                spent = clock() - t0
                self.inspect_s += spent
                if stack:
                    stack[-1][1] += spent
            idx = len(rec_start)
            if idx < MAX_RECORDS:
                rec_span.append(sid)
                rec_parent.append(stack[-1][0] if stack else -1)
                rec_item.append(self.item)
                rec_start.append(0.0)
                rec_end.append(0.0)
            else:
                idx = -1
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if idx >= 0:
                    rec_start[idx] = start
                    rec_end[idx] = end
                calls[sid] += 1
                self_s[sid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self, package):
        """Wrap every target of SPANS wherever the package refers to it."""
        for target in {t.split(":")[0] for targets in SPANS.values() for t in targets}:
            importlib.import_module("%s.%s" % (package.__name__, target))
        prefix = package.__name__ + "."
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(prefix))
        ]
        probes = {"poly.ctor": _probe_poly_ctor, "ratfun.ctor": _probe_ratfun_ctor}
        for sid, span in enumerate(SPAN_NAMES):
            for target in SPANS[span]:
                modname, qualname = target.split(":")
                module = sys.modules[prefix + modname]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    wrapper = self.wrap(original, sid, probes.get(span))
                    for name, value in list(vars(owner).items()):
                        if value is original:
                            self._replace(owner, name, original, wrapper)
                else:
                    original = getattr(module, qualname)
                    wrapper = self.wrap(original, sid, probes.get(span))
                    for holder in modules:
                        for name, value in list(vars(holder).items()):
                            if value is original:
                                self._replace(holder, name, original, wrapper)

    def _replace(self, holder, name, original, wrapper):
        setattr(holder, name, wrapper)
        self._patched.append((holder, name, original))

    def uninstall(self):
        while self._patched:
            holder, name, original = self._patched.pop()
            setattr(holder, name, original)

    # ------------------------------------------------------------------

    def write(self, path: Path):
        """Span records as <path>.bin (columns back to back) + <path>.json."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = [
            ("span", self.rec_span),
            ("parent", self.rec_parent),
            ("item", self.rec_item),
            ("start_s", self.rec_start),
            ("end_s", self.rec_end),
        ]
        with open(str(path) + ".bin", "wb") as f:
            for _name, col in columns:
                col.tofile(f)
        header = {
            "spans": len(self.rec_start),
            "not_recorded": sum(self.calls) - len(self.rec_start),
            "span_names": list(SPAN_NAMES),
            "byteorder": sys.byteorder,
            "columns": [[name, col.typecode, col.itemsize] for name, col in columns],
        }
        with open(str(path) + ".json", "w") as f:
            json.dump(header, f, indent=1)


def _probe_poly_ctor(tracer, args, kwargs):
    # MultiPoly(p, n, terms=None): count monomials in, and whether they
    # were already canonical, so that the constructor's validation was
    # redundant.  Malformed arguments are left to the constructor.
    p = args[1] if len(args) > 1 else kwargs.get("p")
    n = args[2] if len(args) > 2 else kwargs.get("n")
    terms = args[3] if len(args) > 3 else kwargs.get("terms")
    p = getattr(p, "p", p)  # a Prime or an int
    if isinstance(terms, dict):
        tracer.ctor_terms_in += len(terms)
    if type(p) is int and type(n) is int and _canonical(p, n, terms):
        tracer.ctor_clean += 1


def _canonical(p, n, terms):
    """Sorted, reduced, in range and of the right arity."""
    if not terms:
        return True
    if type(terms) is not dict:
        return False
    limit = sys.modules["fpforms.poly"].max_degree_limit()
    previous = None
    for exps, c in terms.items():
        if type(exps) is not tuple or len(exps) != n:
            return False
        if type(c) is not int or not 0 < c < p:
            return False
        for e in exps:
            if type(e) is not int or not 0 <= e <= limit:
                return False
        if previous is not None and exps <= previous:
            return False
        previous = exps
    return True


def _probe_ratfun_ctor(tracer, args, kwargs):
    # RatFun(num, den=None) inflates a denominator that is not a p-th power
    num = args[1] if len(args) > 1 else kwargs.get("num")
    den = args[2] if len(args) > 2 else kwargs.get("den")
    poly = sys.modules["fpforms.poly"].MultiPoly
    if not (isinstance(num, poly) and isinstance(den, poly)):
        return
    if num.is_zero() or den.is_zero():
        return
    if not den.is_differential_constant():
        tracer.ratfun_inflate += 1
