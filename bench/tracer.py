"""In-memory span tracer installed around gpplatoon's public functions.

Each hook replaces one attribute where its caller looks it up: a module
global such as ``gpplatoon.mpc.solve_qp`` (``mpc`` imported it by name, so
patching ``gpplatoon.qp.solve_qp`` would miss every call) or a class
attribute such as ``PlatoonController.step``. The wrapper records a span
(name, start, end, parent span, control-step index) and keeps it in memory
until the run ends. A hook whose target no longer exists raises
:class:`HookTargetMissing`, so a renamed layer fails the traced run instead
of reading zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

STEP_SPAN = "mpc.step"


class HookTargetMissing(RuntimeError):
    """A hooked function is gone from the place its caller looks it up."""


@dataclass(frozen=True)
class Hook:
    """One wrapped callable: span name, owning module, attribute path."""

    name: str
    module: str
    attr: str


# Set-up calls (the benchmark calls hv.generate_synthetic_trace and
# hv.fit_hv_correction through the module, the rest are looked up by their
# callers inside gpplatoon), then the closed loop.
HOOKS = (
    Hook("hv.traces", "gpplatoon.hv", "generate_synthetic_trace"),
    Hook("hv.fit", "gpplatoon.hv", "fit_hv_correction"),
    Hook("hv.dataset", "gpplatoon.hv", "build_discrepancy_dataset"),
    Hook("gp.train_exact", "gpplatoon.hv", "train_exact"),
    Hook("gp.lml", "gpplatoon.gp", "log_marginal_likelihood"),
    Hook("gp.build_sparse", "gpplatoon.hv", "build_sparse"),
    Hook("gp.fic_lml", "gpplatoon.gp", "fic_log_marginal_likelihood"),
    Hook("sim.loop", "gpplatoon.sim", "run_closed_loop"),
    Hook(STEP_SPAN, "gpplatoon.mpc", "PlatoonController.step"),
    Hook("gp.freeze", "gpplatoon.mpc", "evaluate_gp_along_trajectory"),
    Hook("gp.predict_batch", "gpplatoon.gp", "SparseGpModel.predict_batch"),
    Hook("mpc.condense", "gpplatoon.mpc", "condense"),
    Hook("dynamics.tightened_min_gap", "gpplatoon.mpc", "tightened_min_gap"),
    Hook("qp.solve", "gpplatoon.mpc", "solve_qp"),
    Hook("mpc.decode", "gpplatoon.mpc", "CondensedQp.decode"),
    Hook("sim.plant", "gpplatoon.sim", "HvPlant.advance"),
)

# Untraced runs keep only this probe: the wall time of each control step.
STEP_HOOK = next(h for h in HOOKS if h.name == STEP_SPAN)

# Spans the benchmark records around its own work inside a traced call
# (what observers compute, such as KKT residuals); their time is tracing
# overhead.
CHECK_SPAN = "trace.check"


def resolve(hook: Hook):
    """(owner object, attribute name, current value) of a hook target."""
    try:
        target = importlib.import_module(hook.module)
    except ImportError as exc:
        raise HookTargetMissing(f"{hook.name}: cannot import {hook.module}") from exc
    for part in hook.attr.split("."):
        owner, target = target, getattr(target, part, None)
    if not callable(target):
        raise HookTargetMissing(f"{hook.name}: {hook.module}.{hook.attr} no longer exists")
    return owner, part, target


class Tracer:
    """Spans of one phase of a run, recorded by wrappers around hooks.

    ``observers`` maps a span name to ``f(args, kwargs, result)``; it runs
    after the span closes, inside a :data:`CHECK_SPAN`, and whatever it
    returns is kept as that span's ``info``.
    """

    def __init__(self, hooks=HOOKS, observers=None):
        self.hooks = tuple(hooks)
        self.observers = dict(observers or {})
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.step: list[int] = []
        self.info: dict[int, object] = {}
        self.raised = 0
        self._stack: list[int] = []
        self._step = -1

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        if name == STEP_SPAN:
            self._step += 1
        self.step.append(self._step)
        self._stack.append(idx)
        return idx

    def _wrap(self, name: str, fn):
        observe = self.observers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            ok = False
            self.start[idx] = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                self.end[idx] = clock()
                self._stack.pop()
                if not ok and name == STEP_SPAN:
                    self.raised += 1
            if observe is not None:
                cidx = self._open(CHECK_SPAN)
                self.start[cidx] = clock()
                try:
                    self.info[idx] = observe(args, kwargs, out)
                finally:
                    self.end[cidx] = clock()
                    self._stack.pop()
            return out

        return traced

    @contextmanager
    def installed(self):
        """Patch every hook target for the duration of the block."""
        targets = [resolve(h) for h in self.hooks]
        patched = []
        try:
            for hook, (owner, attr, fn) in zip(self.hooks, targets):
                # class attributes: keep the descriptor semantics of a plain
                # function so the wrapper binds like the method it replaces
                setattr(owner, attr, self._wrap(hook.name, fn))
                patched.append((owner, attr, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(patched):
                setattr(owner, attr, fn)

    @property
    def steps(self) -> int:
        """Control steps entered so far."""
        return self._step + 1

    def table(self) -> "SpanTable":
        return SpanTable(self.names, self.start, self.end, self.parent, self.step,
                         self.info)


class SpanTable:
    """Columnar view of recorded spans with durations and self times."""

    def __init__(self, names, start, end, parent, step, info=None):
        self.names = np.asarray(names, dtype=object)
        self.start = np.asarray(start, dtype=float)
        self.end = np.asarray(end, dtype=float)
        self.parent = np.asarray(parent, dtype=int)
        self.step = np.asarray(step, dtype=int)
        self.info = dict(info or {})
        self.dur = self.end - self.start
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=self.dur[child],
                              minlength=self.names.size)
        # parents precede their children, so one pass marks step descendants
        in_step = np.zeros(self.names.size, dtype=bool)
        for i, (name, par) in enumerate(zip(self.names, self.parent)):
            in_step[i] = name == STEP_SPAN or (par >= 0 and in_step[par])
        self.self_time = self.dur - covered
        self.in_step = in_step

    def mask(self, name: str) -> np.ndarray:
        return self.names == name

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self.mask(name)]

    def count(self, name: str) -> int:
        return int(np.count_nonzero(self.mask(name)))

    def infos(self, name: str) -> list:
        return [self.info[i] for i in np.flatnonzero(self.mask(name)) if i in self.info]

    def layer_self_times(self) -> dict:
        """Self time summed per layer over spans inside control steps."""
        layers = np.array([n.split(".", 1)[0] for n in self.names], dtype=object)
        return {str(layer): float(self.self_time[self.in_step & (layers == layer)].sum())
                for layer in np.unique(layers[self.in_step])}

    def write_csv(self, fh, phase: str, origin: float) -> None:
        """One line per span; times in integer ns after ``origin``."""
        start = np.rint((self.start - origin) * 1e9).astype(np.int64)
        end = np.rint((self.end - origin) * 1e9).astype(np.int64)
        for i in range(self.names.size):
            fh.write(f"{phase},{i},{self.names[i]},{start[i]},{end[i]},"
                     f"{self.parent[i]},{self.step[i]}\n")
