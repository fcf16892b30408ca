"""Spans and counts taken at gp2d's module boundaries, from outside the package.

`Probe.install` replaces a function attribute of a gp2d module with a
wrapper in every gp2d module that holds it, so calls the package makes to
its own functions pass through the wrapper.  The source is never edited and
`Probe.uninstall` puts every original back.

Spans are kept in memory as [name, start, end, parent index, kept result,
transform counts] lists; `dump` writes them out once the run has ended.
`cost_per_call` measures what one pass through the probe costs, so that a
run can state the probe's overhead from its call counts.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import types
from statistics import median

FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2")

# function -> what its span keeps of the return value
_KEEP = {
    "minimizer.minimize": lambda r: {
        "iters": r.iters,
        "accepted": len(r.energy_trace) - 1,
        "converged": r.converged,
        "unresolved": r.resolution_warning,
    },
    "minimizer.continuation_sweep": lambda r: r,
}


def is_transform(key: str) -> bool:
    """Whether a count key names a transform (the rest count solve_ivp shots)."""
    return key.split(".")[0] in ("numpy", "scipy")


class _FFTCounter:
    """Stands in for an FFT namespace and counts calls to its transforms."""

    def __init__(self, probe: "Probe", inner, tag: str):
        self._probe, self._inner, self._tag = probe, inner, tag

    def __getattr__(self, name):
        fn = getattr(self._inner, name)
        if name not in FFT_NAMES:
            return fn
        counts, key = self._probe.counts, f"{self._tag}.{name}"

        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted


class _NumpyWithCountedFFT(types.ModuleType):
    """numpy, except that `np.fft` counts its transforms."""

    def __init__(self, probe: "Probe", np):
        super().__init__("numpy")
        self._probe, self._np = probe, np
        self.fft = _FFTCounter(probe, np.fft, "numpy")

    def __getattr__(self, name):
        self._probe.lookups += 1
        return getattr(self._np, name)


class Probe:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.opened = 0  # spans opened, over the whole run
        self.lookups = 0  # attributes looked up through the numpy stand-in
        self._undo: list[tuple] = []

    # --- spans -----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.opened += 1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None, dict(self.counts)])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx: int, result=None):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        keep = _KEEP.get(span[0])
        if keep is not None and result is not None:
            span[4] = keep(result)
        # counts made inside the span: end snapshot minus start snapshot
        start = span[5]
        span[5] = {k: v - start.get(k, 0) for k, v in self.counts.items() if v != start.get(k, 0)}
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def tally(self) -> tuple[int, int, int]:
        """(spans opened, transforms counted, numpy lookups) so far."""
        ffts = sum(v for k, v in self.counts.items() if is_transform(k))
        return self.opened, ffts, self.lookups

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    # --- installation ----------------------------------------------------

    def _wrap(self, name: str, fn):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = probe._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                probe._close(idx)
                raise
            probe._close(idx, result)
            return result

        return wrapper

    def _replace(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "gp2d" and not modname.startswith("gp2d."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self, names):
        """Wrap each 'module.function' of gp2d named."""
        for name in names:
            modname, func = name.split(".")
            original = getattr(sys.modules[f"gp2d.{modname}"], func)
            self._replace(original, self._wrap(name, original))

    def install_fft_counters(self):
        """Count the transforms gp2d's modules call, and the soliton's shots."""
        import numpy as np
        from scipy import fft as scipy_fft

        self._replace(np, _NumpyWithCountedFFT(self, np))
        self._replace(scipy_fft, _FFTCounter(self, scipy_fft, "scipy"))
        soliton = sys.modules["gp2d.soliton"]
        solve_ivp = soliton.solve_ivp
        counts = self.counts

        def counted_solve_ivp(*args, **kwargs):
            counts["soliton.shots"] = counts.get("soliton.shots", 0) + 1
            return solve_ivp(*args, **kwargs)

        self._undo.append((soliton, "solve_ivp", solve_ivp))
        soliton.solve_ivp = counted_solve_ivp

    def uninstall(self):
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()


def cost_per_call(probe: Probe, calls: int = 20000) -> tuple[float, float, float]:
    """Seconds one wrapped call, one counted transform and one numpy lookup
    add, in the order of `tally`: the same code paths timed on a no-op, less
    the no-op itself, median of five repeats.
    """

    def noop():
        return None

    def cost(via, direct):
        def clock(fn):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            return (time.perf_counter() - t0) / calls

        return max(median(clock(via) - clock(direct) for _ in range(5)), 0.0)

    scratch = Probe()
    scratch.counts = dict(probe.counts)  # the snapshot per span is as large as in the run
    wrapped = scratch._wrap("probe.noop", noop)

    def wrapped_call():
        wrapped()
        scratch.spans.clear()

    def bare_call():
        noop()
        scratch.spans.clear()

    namespace = types.SimpleNamespace(rfft2=noop, sum=noop, fft=None)
    counted = _FFTCounter(scratch, namespace, "scipy")
    stand_in = _NumpyWithCountedFFT(scratch, namespace)
    return (cost(wrapped_call, bare_call),
            cost(lambda: counted.rfft2(), lambda: namespace.rfft2()),
            cost(lambda: stand_in.sum, lambda: namespace.sum))


def dump(spans_by_round, path):
    """Write spans as JSON lines: round, name, start, end, parent, counts."""
    with open(path, "w") as f:
        for rnd, spans in enumerate(spans_by_round):
            for name, t0, t1, parent, _, counts in spans:
                rec = {"round": rnd, "name": name, "start": t0, "end": t1,
                       "parent": parent, "counts": counts}
                f.write(json.dumps(rec) + "\n")
