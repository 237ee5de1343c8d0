"""Span tracing of beatty_kfree's layer functions, patched in from outside.

Callers inside the package import functions by name (beatty.frac_vector,
smoothing.is_member, ...), so patching the defining module alone would miss
them. install() replaces every binding of each traced function in every
loaded beatty_kfree module, and uninstall() puts the originals back.

A span records (name, start ns, end ns, parent span, op id, quantity), where
the quantity is the element count, the sieve window, or 1 for a precision
escalation. Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "beatty_kfree"
MODULES = ("fixed", "cfrac", "kfree", "beatty", "expsums", "smoothing", "discrepancy", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# traced function -> quantity recorded per call (None: no quantity)
LAYERS = {
    "fixed.frac_vector": lambda a, kw: len(_arg(a, kw, 2, "n")),
    "beatty.BeattyParams.level": lambda a, kw: int(_arg(a, kw, 1, "bits") > a[0].precision_bits),
    "beatty.beatty_term": None,
    "beatty.beatty_terms_block": lambda a, kw: _arg(a, kw, 2, "n_hi") - _arg(a, kw, 1, "n_lo") + 1,
    "beatty.is_member": None,
    "beatty.member_witness": None,
    "beatty.member_flags_block": lambda a, kw: _arg(a, kw, 2, "m_hi") - _arg(a, kw, 1, "m_lo") + 1,
    "beatty.count_kfree_beatty": None,
    "kfree.sieve_kfree": lambda a, kw: _arg(a, kw, 2, "hi") - _arg(a, kw, 1, "lo") + 1,
    "kfree.sieve_moebius": None,
    "kfree.count_kfree": None,
    "kfree.zeta": None,
    "cfrac.estimate_type": None,
    "cfrac.dirichlet_approx": None,
    "expsums.linear_exp_sum": None,
    "expsums.double_kfree_sum_naive": None,
    "expsums.double_kfree_sum_hyperbola": None,
    "expsums.double_sum_bound_check": None,
    "smoothing.build_smoothed": None,
    "smoothing.eval_truncated_series": None,
    "smoothing.smoothed_beatty_count": None,
    "discrepancy.build_pointset": None,
    "discrepancy.extreme_discrepancy": None,
    "discrepancy.decay_fit": None,
    "cli.main": None,
}

# A scalar call under one of these block functions is a border fallback.
_FALLBACKS = {
    ("beatty.beatty_term", "beatty.beatty_terms_block"),
    ("beatty.is_member", "beatty.member_flags_block"),
    ("beatty.is_member", "smoothing.smoothed_beatty_count"),
}


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self.spans: list = []
        self.recording = False
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        mods = [importlib.import_module(PACKAGE)]
        mods += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for name_id, name in enumerate(self.names):
            mod_name, _, attr = name.partition(".")
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:  # a method: patch the class attribute
                cls_name, _, attr = attr.partition(".")
                owner = getattr(owner, cls_name)
                holders = [owner]
            else:
                holders = mods
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name_id, LAYERS[name])
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def reset(self) -> None:
        del self.spans[:]

    def _wrap(self, fn, name_id, quantity):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            q = quantity(args, kwargs) if quantity else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (name_id, t0, t1, parent, tracer.op, q)

        return traced


def layer_metrics(spans: list, names: list[str]) -> dict[str, float]:
    """Per-function calls, self time and quantities, plus the derived counters.

    Self time is a span's duration minus the durations of its direct child
    spans; spans of one thread nest, so children never overlap.
    """
    child_ns = [0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    stats = {name: [0, 0, 0, 0] for name in names}  # calls, self ns, quantity sum, quantity max
    fallbacks = 0
    for i, (name_id, t0, t1, parent, _, q) in enumerate(spans):
        s = stats[names[name_id]]
        s[0] += 1
        s[1] += t1 - t0 - child_ns[i]
        s[2] += q
        s[3] = max(s[3], q)
        if parent >= 0 and (names[name_id], names[spans[parent][0]]) in _FALLBACKS:
            fallbacks += 1
    out: dict[str, float] = {}
    for name, (calls, self_ns, qsum, qmax) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_ns * 1e-9
        out[f"{name}.elems"] = qsum
        out[f"{name}.ns_per_elem"] = self_ns / qsum if qsum else 0.0
    out["kfree.sieve_kfree.entries"] = stats["kfree.sieve_kfree"][2]
    out["kfree.sieve_kfree.max_window"] = stats["kfree.sieve_kfree"][3]
    out["beatty.border_fallbacks"] = fallbacks
    out["beatty.precision_escalations"] = stats["beatty.BeattyParams.level"][2]
    return out
