"""In-memory span tracing of the package's public functions.

A :class:`Tracer` replaces each listed function by a wrapper in every
``regflood.*`` namespace that binds it, so calls from inside the package
(``regional_shape -> sigma_tail_hat -> sigma_r_hat``) are caught as well
as calls from outside.  Each call records one span (name, start, end,
parent) in flat arrays; nothing is aggregated while the program runs.
Self times are derived afterwards: a span's duration minus the time its
child spans cover.

Hot leaf functions whose own time is not reported can be wrapped as
counters instead: they record only how often they were called from
under each parent span.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# layer -> functions recorded as spans; the layer is the module name
SPANNED = {
    "ingest": ("ingest_monthly", "seasonal_maxima"),
    "gev": ("twocomp_quantile",),
    "moments": ("gev_fit_gradient",),
    "regional": (
        "sigma_r_hat",
        "sigma_tail_hat",
        "regional_shape",
        "homogeneity_test",
        "fit_gev_regional",
    ),
    "twocomp": ("fit_seasonal_regional", "twocomp_quantile_ci", "gev_quantile_ci"),
    "tail": (
        "pickands_cfg",
        "tail_dependence_empirical",
        "hill",
        "regional_tail_fit",
        "weissman_ci",
        "seasonal_weissman_quantile",
    ),
    "simlab": ("khoudraji_sample", "run_scenario"),
}
# layer -> functions recorded as call counts per parent span only
COUNTED = {"gev": ("twocomp_cdf",)}
ROOT = -1


class Tracer:
    """Span recorder; install wrappers for the traced stretch only."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [ROOT]
        self.counts: Counter = Counter()  # (name, parent name or None) -> calls
        self.fits = 0
        self.fallback_fits = 0
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a call made by the benchmark itself."""
        idx = self._enter(self._id(name))
        try:
            yield
        finally:
            self._exit(idx)

    def _span_wrapper(self, name: str, fn):
        nid = self._id(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx)

        if name == "regional.regional_shape":

            @functools.wraps(fn)
            def observed(*args, **kwargs):
                result = wrapper(*args, **kwargs)
                self.fits += 1
                if result.diagnostics["weights_source"] == "length-proportional":
                    self.fallback_fits += 1
                return result

            return observed
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts, stack, names, span_name = self.counts, self._stack, self.names, self.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            counts[(name, None if top == ROOT else names[span_name[top]])] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every listed function in all loaded ``regflood`` modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "regflood" or n.startswith("regflood."))
        ]
        for kinds, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for layer, fns in kinds.items():
                home = sys.modules[f"regflood.{layer}"]
                for fn_name in fns:
                    original = getattr(home, fn_name)
                    key = id(original)
                    if key not in self._wrappers:
                        self._wrappers[key] = make(f"{layer}.{fn_name}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._patches.append((mod, attr, original))
                                setattr(mod, attr, self._wrappers[key])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # ----------------------------------------------------------------------
    # derived quantities
    # ----------------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.names)
        }

    def durations(self, name: str) -> np.ndarray:
        if name not in self._ids:
            return np.zeros(0)
        mask = np.asarray(self.name) == self._ids[name]
        return (np.asarray(self.end) - np.asarray(self.start))[mask]

    def write(self, path: Path) -> None:
        """Write all spans (name, start, end, parent) to an ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.asarray(self.name),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
