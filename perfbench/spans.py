"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from outside the library: `instrument` wraps the public
functions of each fpcredit module (and `_sbtv_step1`, which has no public
boundary) and every call becomes a span with a name and the span that
called it.  Spans are aggregated in memory per (parent, name) node with
their call count, total time and self time (total minus the time covered
by child spans), and are only read when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# Functions wrapped in the traced run, per fpcredit module.  A dotted name
# wraps a method on a class.  The span name is "<module>.<name>", and the
# module is the layer the span's self time is charged to.
TRACED = {
    "survival": ("at1p_survival", "sbtv_survival", "intensity_survival"),
    "cds": ("cds_price", "fair_spread"),
    "curves": ("DiscountCurve.discount", "DiscountCurve.forward_integral"),
    "calibration": ("bootstrap_intensity", "calibrate_at1p", "calibrate_sbtv",
                    "_sbtv_step1"),
    "mc": ("ers_fair_spread", "simulate_joint_paths", "simulate_intensity_paths",
           "ers_fair_spread_from_paths", "ers_cva_term"),
}


def layer_of(span: str) -> str:
    return span.split(".", 1)[0]


class Tracer:
    """Aggregating span recorder; spans are recorded only while `enabled`."""

    def __init__(self):
        self.enabled = False
        self.nodes: dict[tuple[str | None, str], list] = {}
        self._stack: list[list] = []  # [span name, time covered by child spans]

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        stack, nodes = self._stack, self.nodes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                node = nodes.get((parent, name))
                if node is None:
                    node = nodes[(parent, name)] = [0, 0.0, 0.0]
                node[0] += 1
                node[1] += elapsed
                node[2] += elapsed - frame[1]

        return traced

    @contextmanager
    def recording(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def calls(self, span: str) -> int:
        return sum(node[0] for (_, name), node in self.nodes.items() if name == span)

    def total_s(self, span: str) -> float:
        return sum(node[1] for (_, name), node in self.nodes.items() if name == span)

    def layer(self, layer: str) -> tuple[int, float]:
        """(entries into the layer from outside it, self time of all its spans)."""
        entries, busy = 0, 0.0
        for (parent, name), (calls, _, self_s) in self.nodes.items():
            if layer_of(name) != layer:
                continue
            busy += self_s
            if parent is None or layer_of(parent) != layer:
                entries += calls
        return entries, busy

    def profile_lines(self) -> list[str]:
        """Span nodes by self time, largest first, one line each."""
        rows = sorted(self.nodes.items(), key=lambda item: -item[1][2])
        return [f"  {name:<42} <- {parent or '(workload)':<42} "
                f"calls {calls:>9}  total {total:10.4f} s  self {self_s:10.4f} s"
                for (parent, name), (calls, total, self_s) in rows]


@contextmanager
def instrument(tracer: Tracer):
    """Replace every traced fpcredit function, wherever it is bound, by its span wrapper.

    Names missing from the library are skipped, so the metrics read from
    them stay 0 rather than the traced run failing.
    """
    modules = [mod for name, mod in list(sys.modules.items())
               if name == "fpcredit" or name.startswith("fpcredit.")]
    patches = []
    try:
        for module_name, attrs in TRACED.items():
            module = sys.modules.get(f"fpcredit.{module_name}")
            for attr in attrs:
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, leaf, None)
                if original is None:
                    continue
                wrapped = tracer.wrap(f"{module_name}.{attr}", original)
                holders = [(owner, leaf)] if owner_name else [
                    (mod, key) for mod in modules
                    for key, value in vars(mod).items() if value is original]
                for holder, key in holders:
                    patches.append((holder, key, original))
                    setattr(holder, key, wrapped)
        yield
    finally:
        for holder, key, original in reversed(patches):
            setattr(holder, key, original)
