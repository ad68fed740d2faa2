"""In-memory spans around arithcx's public layer functions.

A Tracer replaces each function named in SPANNED with a wrapper, in
every arithcx module that holds a reference to it, so calls made
through `from .x import f` bindings are timed too.  A span records its
name, its parent span, and its start and end times.  Deterministic work
counters are read from the wrapped functions' public return values.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# defining module -> public functions that get a span
SPANNED = {
    "cli": ("main",),
    "projmat": ("cayley_ball", "projective_plane_orbit"),
    "scx": (
        "clique_complex",
        "purity_report",
        "chamber_count",
        "induced_subcomplex",
        "star_vertices",
        "color_chambers",
    ),
    "autoeng": (
        "panel_flip_check",
        "is_isomorphic",
        "automorphisms_fixing",
        "automorphism_order",
        "verify_permutation",
    ),
    "qlat": (
        "lift_coloring",
        "color_automorphism_count",
        "ray_flip",
        "free_group_check",
    ),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in SPANNED.items() for f in fs)


def _count_ball(c: Counter, ball) -> None:
    c["projmat.ball_vertices"] += len(ball)
    # cayley_ball multiplies every vertex by every generator once
    c["projmat.pgl_mul_calls"] += len(ball) * len(ball.generators)


def _count_complex(c: Counter, cx) -> None:
    c["scx.simplices"] += sum(cx.simplex_count(d) for d in cx.dims())


def _count_group(c: Counter, grp) -> None:
    c["autoeng.search_nodes"] += grp.stats.get("nodes", 0)
    c["autoeng.searches"] += grp.stats.get("searches", 0)
    c["autoeng.generators_found"] += len(grp.generators)
    c["autoeng.perms_enumerated"] += len(grp.perms or ())


def _count_flips(c: Counter, rep) -> None:
    c["autoeng.flip_choices"] += rep.choices_total
    c["autoeng.flip_choices_satisfied"] += rep.choices_satisfied


COUNTERS = {
    "projmat.cayley_ball": _count_ball,
    "scx.clique_complex": _count_complex,
    "autoeng.automorphisms_fixing": _count_group,
    "autoeng.automorphism_order": _count_group,
    "autoeng.panel_flip_check": _count_flips,
}

COUNTER_NAMES = (
    "projmat.ball_vertices",
    "projmat.pgl_mul_calls",
    "scx.simplices",
    "autoeng.search_nodes",
    "autoeng.searches",
    "autoeng.generators_found",
    "autoeng.perms_enumerated",
    "autoeng.flip_choices",
    "autoeng.flip_choices_satisfied",
)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self) -> None:
        # each span is [name, parent index or -1, start, end]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append([name, stack[-1] if stack else -1, perf_counter(), 0.0])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][3] = perf_counter()
            if count is not None:
                count(self.counters, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Swap the wrappers into every arithcx module, restore on exit."""
        wrappers = {}
        for mod, names in SPANNED.items():
            home = sys.modules[f"arithcx.{mod}"]
            for f in names:
                orig = getattr(home, f)
                wrappers[id(orig)] = (orig, self._wrap(f"{mod}.{f}", orig))
        swapped = []
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("arithcx"):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    swapped.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in swapped:
                setattr(module, attr, value)

    def self_times(self) -> tuple[dict, dict, float]:
        """Per-name self seconds and call counts, and the summed
        duration of the root spans."""
        child = [0.0] * len(self.spans)
        roots = 0.0
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                roots += end - start
        self_s = {n: 0.0 for n in SPAN_NAMES}
        calls = {n: 0 for n in SPAN_NAMES}
        for (name, _, start, end), c in zip(self.spans, child):
            self_s[name] += end - start - c
            calls[name] += 1
        return self_s, calls, roots
