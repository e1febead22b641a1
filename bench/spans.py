"""Spans around the calls into icosym's layers, recorded from outside the package.

:func:`install` replaces the public functions and methods the per-layer
metrics need with wrappers.  Each call becomes one span
``[name, start, end, parent, op]``: the parent is the index of the enclosing
span (-1 at the top) and ``op`` the id of the benchmark operation that caused
it.  Spans stay in memory until :meth:`Tracer.dump`; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute) for plain functions; each is replaced in
# every icosym module that imported it, so calls between modules are seen
FUNCTIONS = (
    ("icostruct.scan_trivial", "icosym.icostruct", "scan_trivial"),
    ("siegel.report", "icosym.siegel", "siegel_report"),
    ("siegel.family", "icosym.isobaric", "icosahedral_family"),
    ("isobaric.decide", "icosym.isobaric", "decide_cuspidality"),
    ("isobaric.decide", "icosym.isobaric", "decide_cuspidality_via_poles"),
    ("isobaric.pole_order", "icosym.isobaric", "pole_order"),
    ("factsfile.load", "icosym.factsfile", "load_facts"),
    ("repexpr.parse", "icosym.repexpr", "parse"),
    ("repexpr.evaluate", "icosym.repexpr", "evaluate"),
    ("cli.dispatch", "icosym.cli", "cmd_dispatch"),
)

# (span name, module, class, method)
METHODS = (
    ("chartab.sym_power", "icosym.chartab", "CharacterTable", "sym_power"),
    ("chartab.decompose", "icosym.chartab", "CharacterTable", "decompose"),
    ("chartab.inner_product", "icosym.chartab", "CharacterTable", "inner_product"),
    ("isobaric.equivalent", "icosym.isobaric", "FactLedger", "equivalent"),
)

# spans whose calls and self time are reported
COUNTED = (
    "chartab.sym_power",
    "chartab.decompose",
    "chartab.inner_product",
    "icostruct.scan_trivial",
    "siegel.report",
    "isobaric.equivalent",
    "isobaric.decide",
    "isobaric.pole_order",
    "factsfile.load",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | str | None = None
        self.sym_keys: set = set()
        self.sym_repeats = 0
        self.pole_terms = 0
        self.facts_loaded = 0

    def wrap(self, name: str, fn, on_call=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            if on_call is not None:
                on_call(*args, **kwargs)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    # -- counters taken at the boundaries ---------------------------------

    def _sym_call(self, tab, f, n) -> None:
        values = tab.rows[f].values if isinstance(f, str) and f in tab.rows else f
        key = (id(tab), getattr(values, "values", values), n)
        if key in self.sym_keys:
            self.sym_repeats += 1
        else:
            self.sym_keys.add(key)

    def _pole_call(self, e, ledger) -> None:
        self.pole_terms += len(e.terms)

    def _load_call(self, doc) -> None:
        facts = doc.get("facts", []) if isinstance(doc, dict) else []
        self.facts_loaded += len(facts) if isinstance(facts, list) else 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer boundaries; import every icosym module first."""
        import icosym.cli  # noqa: F401  (pulls in every layer)

        hooks = {
            "chartab.sym_power": self._sym_call,
            "isobaric.pole_order": self._pole_call,
            "factsfile.load": self._load_call,
        }
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "icosym"]
        for name, module, cls, attr in METHODS:
            klass = getattr(sys.modules[module], cls)
            setattr(klass, attr, self.wrap(name, getattr(klass, attr), hooks.get(name)))
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            _replace(modules, original, self.wrap(name, original, hooks.get(name)))

    # -- results ------------------------------------------------------------

    def metrics(self, scale: float) -> dict[str, float]:
        """Calls, self time and the ratios taken at the traced boundaries;
        times are multiplied by *scale* (see speed.py)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        equiv_in_pole = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            if name == "isobaric.equivalent":
                while parent >= 0 and spans[parent][0] != "isobaric.pole_order":
                    parent = spans[parent][3]
                equiv_in_pole += parent >= 0
        out: dict[str, float] = {}
        for name in COUNTED:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0) * scale
        sym_calls = calls.get("chartab.sym_power", 0)
        out["chartab.sym_power.repeat_frac"] = self.sym_repeats / max(sym_calls, 1)
        out["siegel.family.calls"] = calls.get("siegel.family", 0)
        out["isobaric.pole_order.equiv_per_term"] = equiv_in_pole / max(
            self.pole_terms, 1
        )
        load_s = sum(e - s for n, s, e, _, _ in spans if n == "factsfile.load")
        out["factsfile.load.facts_per_s"] = self.facts_loaded / (load_s * scale) if load_s else 0.0
        for name in ("repexpr.parse", "repexpr.evaluate", "cli.dispatch"):
            out[f"{name}.self_s"] = self_s.get(name, 0.0) * scale
        return out

    def state(self) -> dict:
        return {
            "sym_repeats": self.sym_repeats,
            "pole_terms": self.pole_terms,
            "facts_loaded": self.facts_loaded,
            "spans": self.spans,
        }

    def absorb(self, state: dict) -> None:
        """Append the spans and counts another process recorded."""
        offset = len(self.spans)
        for name, start, end, parent, op in state["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, op])
        self.sym_repeats += state["sym_repeats"]
        self.pole_terms += state["pole_terms"]
        self.facts_loaded += state["facts_loaded"]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.state(), fh, separators=(",", ":"))


def _replace(modules, original, replacement) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
