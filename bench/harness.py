"""Closed-loop control benchmark for gpplatoon: workloads, runs and metrics.

A run is one process on one thread driving a closed loop with a single
caller: each control step waits for the previous one, and steps are not
paced to wall time. Set-up (training traces, GP fit, scenario and
controller build) is timed on its own and repeated; each repeat of a GP
workload draws its own training traces and fit from the seed, and the loops
take turns over the fitted models, so one run averages over several fits.
The measured phase runs whole ``run_closed_loop`` calls back to back until
``Workload.loops`` loops have finished and ``seconds`` have passed. Figures
that must repeat exactly for a seed (fallbacks, gaps, tracking error,
counts) come from the first ``Workload.loops`` loops only, so they do not
depend on machine speed; timings come from every loop.

The untraced run hooks only ``PlatoonController.step`` to time each step.
The traced run repeats set-up and every loop once untraced and once with all
of :data:`tracer.HOOKS` installed, checks that both produce bit-identical
results, and derives the per-layer figures from the traced spans.
"""

from __future__ import annotations

import inspect
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from gpplatoon import gp, hv, mpc, sim

from checks import CheckFailed, check_kkt_residuals, check_same_fit, check_same_result, \
    check_trajectory, kkt_residuals
from tracer import HOOKS, STEP_HOOK, STEP_SPAN, SpanTable, Tracer, resolve

# Training ramps for the discrepancy GP: the knots of the control
# experiments' profiles, recorded at a noise std of 0.08 m/s.
TRAINING_RAMPS = (
    ((0, 15, 30, 45, 60, 75, 90, 105, 120), (3, 20, 20, 8, 8, 28, 28, 5, 15)),
    ((0, 10, 25, 40, 55, 70, 85, 100, 120), (2, 10, 32, 12, 25, 4, 18, 18, 6)),
)
TRACE_NOISE_STD = 0.08
TRACE_DURATION = 120.0
TRACE_STEP = 0.1
FIT_FRACTION = 0.2
FIT_INDUCING = 20

# The tolerance run_closed_loop's controller passes to solve_qp.
SOLVER_TOL = inspect.signature(mpc.PlatoonController).parameters["solver_tol"].default

# Independent input streams drawn from the workload seed.
TRACE_STREAM, FIT_STREAM, PLANT_STREAM = 1, 2, 3


def derive_seed(seed: int, *stream: int) -> int:
    """32-bit seed of one input stream of a run."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def ramp_profile(knots_t, knots_v):
    kt = np.asarray(knots_t, dtype=float)
    kv = np.asarray(knots_v, dtype=float)
    return lambda t: float(np.interp(t, kt, kv))


@dataclass(frozen=True)
class Workload:
    """One benchmark input: controller, scenario overrides and run sizes."""

    name: str
    why: str
    controller: str                                   # "gp" | "nominal"
    scenario: dict = field(default_factory=dict)      # make_scenario overrides
    loops: int = 3                                    # loops with exact figures
    setup_reps: int = 3

    @property
    def fits_gp(self) -> bool:
        return self.controller == "gp"


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            "paper_gp",
            "paper setting: GP controller, n_av=2, N=20, 130 s emergency, plant noise "
            "0.0005; condense, the warm-hinted QP and GP predict set the step",
            "gp", dict(noise=True), loops=6),
        Workload(
            "large_nominal",
            "nominal controller, n_av=8, N=40 (320 vars, 1600 rows), 30 s emergency, no GP; "
            "cold QP solves and condense set the tail, GP changes must not move it",
            "nominal", dict(duration=30.0, cfg=mpc.MpcConfig(n_av=8, horizon=40), noise=True),
            setup_reps=25),
        Workload(
            "noisy_plant",
            "GP controller with plant noise 0.02: most QPs are infeasible, so cold solves "
            "run to a certificate and the fallback path is exercised",
            "gp", dict(noise=True, plant_noise_std=0.02), loops=6),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str


def _metrics(*rows):
    return tuple(Metric(*row) for row in rows)


# Gated end-to-end figures, printed with --trace 0. Each is positive on
# every workload; the zero or negative outcomes stay in CLOSED_LOOP.
END_TO_END = _metrics(
    ("setup_s", "s", "lower"),
    ("step_ms_p50", "ms", "lower"),
    ("step_ms_p95", "ms", "lower"),
    ("loop_steps_per_s", "1/s", "higher"),
    ("solved_share", "1", "higher"),
    ("gap_kept_share", "1", "higher"),
    ("track_rmse_mps", "m/s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Closed-loop outcomes that read 0 or below 0 on some workload: printed in
# both modes, reported with the per-layer figures, never gated.
CLOSED_LOOP = _metrics(
    ("fallback_share", "1", "lower"),
    ("gap_violation_share", "1", "lower"),
    ("min_hv_gap_m", "m", "higher"),
    ("fit_fic_lml", "nats/pt", "higher"),
)

PER_LAYER = CLOSED_LOOP + _metrics(
    ("hv.traces.s", "s", "lower"),
    ("hv.dataset.s", "s", "lower"),
    ("gp.train_exact.s", "s", "lower"),
    ("gp.lml.evals", "count", "lower"),
    ("gp.build_sparse.s", "s", "lower"),
    ("gp.fic_lml.evals", "count", "lower"),
    ("gp.predict_batch.us_p50", "us", "lower"),
    ("gp.predict_batch.calls", "count/loop", "lower"),
    ("gp.self_share", "1", "lower"),
    ("dynamics.tightened_min_gap.calls", "count/step", "lower"),
    ("dynamics.self_share", "1", "lower"),
    ("mpc.condense.ms_p50", "ms", "lower"),
    ("mpc.condense.share", "1", "lower"),
    ("mpc.decode.us_p50", "us", "lower"),
    ("mpc.step.self_ms_p50", "ms", "lower"),
    ("mpc.fallback.count", "count/loop", "lower"),
    ("mpc.self_share", "1", "lower"),
    ("qp.solve.ms_p50", "ms", "lower"),
    ("qp.solve.ms_p95", "ms", "lower"),
    ("qp.warm.hinted", "count/loop", "higher"),
    ("qp.warm.hit_share", "1", "higher"),
    ("qp.cold.ms_p50", "ms", "lower"),
    ("qp.cold.iters_mean", "count", "lower"),
    ("qp.active.size_mean", "count", "lower"),
    ("qp.infeasible.count", "count/loop", "lower"),
    ("qp.kkt_residual.max", "1", "lower"),
    ("qp.self_share", "1", "lower"),
    ("sim.plant.us_p50", "us", "lower"),
    ("sim.loop.overhead_share", "1", "lower"),
    ("trace.overhead_share", "1", "lower"),
    ("trace.step_excess_share", "1", "lower"),
    ("trace.self_share", "1", "lower"),
)

# Per-layer figures that have nothing to measure on a nominal workload
# (no fit, no GP predict) and read 0 there.
GP_ONLY = ("fit_fic_lml", "hv.traces.s", "hv.dataset.s", "gp.train_exact.s", "gp.lml.evals",
           "gp.build_sparse.s", "gp.fic_lml.evals", "gp.predict_batch.us_p50",
           "gp.predict_batch.calls", "gp.self_share", "dynamics.tightened_min_gap.calls",
           "dynamics.self_share")


def scenario(wl: Workload, seed: int, loop: int):
    return sim.make_scenario("emergency", seed=derive_seed(seed, PLANT_STREAM, loop),
                             **wl.scenario)


def set_up(wl: Workload, seed: int, rep: int):
    """Everything before the first control step; returns (fit or None, seconds)."""
    t0 = time.perf_counter()
    fit = None
    if wl.fits_gp:
        traces = [
            hv.generate_synthetic_trace(ramp_profile(kt, kv), duration=TRACE_DURATION,
                                        step=TRACE_STEP, noise_std=TRACE_NOISE_STD,
                                        seed=derive_seed(seed, TRACE_STREAM, rep, j))
            for j, (kt, kv) in enumerate(TRAINING_RAMPS)
        ]
        fit = hv.fit_hv_correction(traces, fraction=FIT_FRACTION,
                                   seed=derive_seed(seed, FIT_STREAM, rep), m=FIT_INDUCING)
    spec = scenario(wl, seed, 0)
    mpc.PlatoonController(spec.cfg, mode=wl.controller,
                          gp_model=None if fit is None else fit.sparse)
    return fit, time.perf_counter() - t0


def set_ups(wl: Workload, seed: int):
    """Every set-up repeat of a run: (fits, seconds), fits None when nominal."""
    fits, seconds = [], []
    for rep in range(wl.setup_reps):
        fit, dt = set_up(wl, seed, rep)
        fits.append(fit)
        seconds.append(dt)
    return fits, seconds


@dataclass
class Loop:
    """One closed-loop run with its wall time and recorded spans."""

    spec: object
    result: object
    wall: float
    spans: SpanTable

    @property
    def steps(self) -> int:
        return len(self.result.status)


def closed_loop(wl: Workload, fit, seed: int, index: int, tracer: Tracer) -> Loop:
    spec = scenario(wl, seed, index)
    gp_model = None if fit is None else fit.sparse
    with tracer.installed():
        t0 = time.perf_counter()
        try:
            result = sim.run_closed_loop(spec, controller=wl.controller, gp_model=gp_model)
        except Exception as exc:
            if not tracer.raised:
                raise
            raise CheckFailed(f"control step raised {exc!r}") from exc
        wall = time.perf_counter() - t0
    check_trajectory(result, spec.cfg, tol=SOLVER_TOL)
    spans = tracer.table()
    for fact in spans.infos("qp.solve"):
        if fact.kkt is not None:
            check_kkt_residuals(fact.kkt, fact.tol)
    return Loop(spec, result, wall, spans)


class SolveFact(NamedTuple):
    """What the traced run keeps of one solve_qp call."""

    hinted: bool
    iterations: int
    status: str
    active: int
    tol: float
    kkt: dict | None        # kkt_residuals of an optimal solve

    @property
    def warm_hit(self) -> bool:
        """Solved by the one-shot KKT solve on the hinted active set."""
        return self.hinted and self.iterations == 1 and self.status == "optimal"


def _qp_observer():
    """Keeps solve facts and the KKT residuals of every optimal solve against
    its own QP; they are checked after the loop, outside the program."""
    signature = inspect.signature(mpc.solve_qp)

    def observe(args, kwargs, res):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        kkt = kkt_residuals(bound.arguments["qp"], res) if res.status == "optimal" else None
        return SolveFact(bound.arguments["active_hint"] is not None, res.iterations,
                         res.status, len(res.active), bound.arguments["tol"], kkt)

    return observe


def traced_tracer() -> Tracer:
    return Tracer(HOOKS, observers={
        "qp.solve": _qp_observer(),
        "gp.lml": lambda args, kwargs, out: out[0],
    })


@dataclass
class Report:
    workload: str
    seed: int
    trace: bool
    metrics: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)   # printed, not in the result line
    correct: bool = True
    error: str = ""
    attempted: int = 0
    failed: int = 0
    layer_self_ms: dict = field(default_factory=dict)

    def result(self) -> dict:
        wanted = PER_LAYER if self.trace else END_TO_END
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {m.name: {"value": float(self.metrics[m.name]), "unit": m.unit}
                        for m in wanted if m.name in self.metrics},
        }


def run(wl: Workload, seed: int, seconds: float, trace: bool, span_path=None) -> Report:
    """One benchmark run; a failed check sets ``correct`` to False."""
    report = Report(wl.name, seed, trace)
    tracers = []
    try:
        if trace:
            _traced_run(wl, seed, seconds, report, tracers, span_path)
        else:
            _untraced_run(wl, seed, seconds, report, tracers)
        missing = [m.name for m in (PER_LAYER if trace else END_TO_END)
                   if not math.isfinite(report.metrics.get(m.name, math.nan))]
        if missing:
            raise CheckFailed(f"metrics missing or not finite: {', '.join(missing)}")
    except CheckFailed as exc:
        report.correct = False
        report.error = str(exc)
    report.attempted = sum(t.steps for t in tracers)
    report.failed = sum(t.raised for t in tracers)
    return report


def _run_loops(wl, fits, seed, seconds, make_tracers, tracers):
    """Loops (or tuples of loops, one per tracer) until both limits are met;
    loop ``i`` uses ``fits[i % len(fits)]``."""
    runs = []
    t0 = time.perf_counter()
    while len(runs) < wl.loops or time.perf_counter() - t0 < seconds:
        i = len(runs)
        group = []
        for make in make_tracers:
            tracer = make()
            tracers.append(tracer)
            group.append(closed_loop(wl, fits[i % len(fits)], seed, i, tracer))
        runs.append(group)
    return [list(col) for col in zip(*runs)]


def _untraced_run(wl, seed, seconds, report, tracers):
    fits, setup_times = set_ups(wl, seed)
    (loops,) = _run_loops(wl, fits, seed, seconds, [lambda: Tracer([STEP_HOOK])], tracers)
    report.metrics.update(end_to_end(loops, setup_times))
    report.metrics.update(outcomes(loops[: wl.loops], fits))
    report.extra.update(setup_reps=len(setup_times), loops=len(loops))


def _traced_run(wl, seed, seconds, report, tracers, span_path):
    for hook in HOOKS:
        resolve(hook)
    fits, setup_times = set_ups(wl, seed)
    setup_tracer = traced_tracer()
    with setup_tracer.installed():
        fit_traced, _ = set_up(wl, seed, 0)
    fit = fits[0]
    if fit is not None:
        check_same_fit(fit, fit_traced, "traced set-up")
        lml_init = setup_tracer.table().infos("gp.lml")[0]
        lml_fit = gp.log_marginal_likelihood(fit.dataset, fit.exact.hyper)[0]
        if not lml_fit >= lml_init:
            raise CheckFailed(f"fitted LML {lml_fit:.6g} below its initial value {lml_init:.6g}")
    plain, traced = _run_loops(wl, fits, seed, seconds,
                               [lambda: Tracer([STEP_HOOK]), traced_tracer], tracers)
    for i in range(wl.loops):
        check_same_result(plain[i].result, traced[i].result, f"traced loop {i}")
    report.metrics.update(end_to_end(plain, setup_times))
    report.metrics.update(outcomes(plain[: wl.loops], fits))
    report.metrics.update(layers(setup_tracer.table(), plain, traced, wl.loops))
    report.layer_self_ms = layer_self_ms(traced)
    report.extra.update(setup_reps=len(setup_times) + 1, loops=len(plain))
    if span_path is not None:
        write_spans(span_path, setup_tracer.table(), traced)
        report.extra["spans"] = str(span_path)


def _cat(loops, name) -> np.ndarray:
    return np.concatenate([lp.spans.durations(name) for lp in loops])


def end_to_end(loops, setup_times) -> dict:
    steps = _cat(loops, STEP_SPAN)
    return {
        "setup_s": statistics.median(setup_times),
        "step_ms_p50": 1e3 * float(np.median(steps)),
        "step_ms_p95": 1e3 * float(np.percentile(steps, 95)),
        "loop_steps_per_s": sum(lp.steps for lp in loops) / sum(lp.wall for lp in loops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def outcomes(loops, fits) -> dict:
    """Deterministic closed-loop figures of the given loops.

    Shares and the tracking error are medians of the per-loop values, so one
    unusual noise realisation does not move them; the minimum gap is the
    worst over all loops, so a collision in any loop shows.
    """
    fallback, violation, min_gap, rmse = [], [], [], []
    for lp in loops:
        res, cfg = lp.result, lp.spec.cfg
        gaps = res.hv_gap()
        profile = lp.spec.profile()
        ref = np.array([profile(t) for t in res.time])
        fallback.append(sum(s != "optimal" for s in res.status) / lp.steps)
        violation.append(int(np.count_nonzero(gaps < cfg.gap.delta)) / lp.steps)
        min_gap.append(float(gaps.min()))
        rmse.append(math.sqrt(float(np.mean((res.av_vel[0] - ref) ** 2))))
    fic = [gp.fic_log_marginal_likelihood(f.dataset, f.sparse.hyper, f.sparse.inducing)
           / f.dataset.n for f in fits if f is not None]
    return {
        "fallback_share": statistics.median(fallback),
        "solved_share": statistics.median(1.0 - f for f in fallback),
        "gap_violation_share": statistics.median(violation),
        "gap_kept_share": statistics.median(1.0 - v for v in violation),
        "min_hv_gap_m": min(min_gap),
        "track_rmse_mps": statistics.median(rmse),
        "fit_fic_lml": statistics.median(fic) if fic else 0.0,
    }


def _p50(values, scale) -> float:
    return scale * float(np.median(values)) if len(values) else 0.0


def _self_totals(traced) -> dict:
    """Self time per layer summed over the control steps of traced loops."""
    totals = {}
    for lp in traced:
        for layer, t in lp.spans.layer_self_times().items():
            totals[layer] = totals.get(layer, 0.0) + t
    return totals


def layers(setup: SpanTable, plain, traced, k) -> dict:
    """Per-layer figures; counts are medians over the first ``k`` traced loops."""
    first = traced[:k]
    step_total = float(_cat(traced, STEP_SPAN).sum())
    self_totals = _self_totals(traced)

    def per_loop(count):
        return float(statistics.median(count(lp) for lp in first))

    def share(layer):
        return self_totals.get(layer, 0.0) / step_total

    solves = [s for lp in first for s in lp.spans.infos("qp.solve")]
    hinted = [s for s in solves if s.hinted]
    all_solves = [s for lp in traced for s in lp.spans.infos("qp.solve")]
    solve_durs = _cat(traced, "qp.solve")
    cold = [s for s in solves if not s.warm_hit]
    cold_durs = [d for d, s in zip(solve_durs, all_solves) if not s.warm_hit]
    kkt = [max(s.kkt.values()) for s in all_solves if s.kkt is not None]
    loop_overhead = []
    for lp in traced:
        wall = float(lp.spans.durations("sim.loop").sum())
        inner = lp.spans.durations(STEP_SPAN).sum() + lp.spans.durations("sim.plant").sum()
        loop_overhead.append((wall - inner) / wall)
    program_self = sum(t for layer, t in self_totals.items() if layer != "trace")
    traced_steps = sum(lp.spans.count(STEP_SPAN) for lp in traced)
    untraced_step_mean = float(_cat(plain, STEP_SPAN).mean())
    wall_plain = statistics.median(lp.wall for lp in plain)
    wall_traced = statistics.median(lp.wall for lp in traced)

    return {
        "hv.traces.s": float(setup.durations("hv.traces").sum()),
        "hv.dataset.s": float(setup.durations("hv.dataset").sum()),
        "gp.train_exact.s": float(setup.durations("gp.train_exact").sum()),
        "gp.lml.evals": setup.count("gp.lml"),
        "gp.build_sparse.s": float(setup.durations("gp.build_sparse").sum()),
        "gp.fic_lml.evals": setup.count("gp.fic_lml"),
        "gp.predict_batch.us_p50": _p50(_cat(traced, "gp.predict_batch"), 1e6),
        "gp.predict_batch.calls": per_loop(lambda lp: lp.spans.count("gp.predict_batch")),
        "gp.self_share": share("gp"),
        "dynamics.tightened_min_gap.calls":
            sum(lp.spans.count("dynamics.tightened_min_gap") for lp in first)
            / sum(lp.spans.count(STEP_SPAN) for lp in first),
        "dynamics.self_share": share("dynamics"),
        "mpc.condense.ms_p50": _p50(_cat(traced, "mpc.condense"), 1e3),
        "mpc.condense.share": float(_cat(traced, "mpc.condense").sum()) / step_total,
        "mpc.decode.us_p50": _p50(_cat(traced, "mpc.decode"), 1e6),
        "mpc.step.self_ms_p50": _p50(np.concatenate(
            [lp.spans.self_time[lp.spans.mask(STEP_SPAN)] for lp in traced]), 1e3),
        "mpc.fallback.count": per_loop(lambda lp: sum(s != "optimal"
                                                      for s in lp.result.status)),
        "mpc.self_share": share("mpc"),
        "qp.solve.ms_p50": _p50(solve_durs, 1e3),
        "qp.solve.ms_p95": 1e3 * float(np.percentile(solve_durs, 95)),
        "qp.warm.hinted": per_loop(lambda lp: sum(s.hinted for s in lp.spans.infos("qp.solve"))),
        "qp.warm.hit_share": sum(s.warm_hit for s in hinted) / len(hinted) if hinted else 0.0,
        "qp.cold.ms_p50": _p50(cold_durs, 1e3),
        "qp.cold.iters_mean": float(np.mean([s.iterations for s in cold])) if cold else 0.0,
        "qp.active.size_mean": float(np.mean([s.active for s in solves])),
        "qp.infeasible.count": per_loop(lambda lp: sum(s.status == "infeasible"
                                                       for s in lp.spans.infos("qp.solve"))),
        "qp.kkt_residual.max": max(kkt) if kkt else 0.0,
        "qp.self_share": share("qp"),
        "sim.plant.us_p50": _p50(_cat(traced, "sim.plant"), 1e6),
        "sim.loop.overhead_share": statistics.median(loop_overhead),
        "trace.overhead_share": (wall_traced - wall_plain) / wall_plain,
        "trace.step_excess_share": program_self / traced_steps / untraced_step_mean - 1.0,
        "trace.self_share": share("trace"),
    }


def layer_self_ms(traced) -> dict:
    """Mean self time per control step of each layer, in ms."""
    steps = sum(lp.spans.count(STEP_SPAN) for lp in traced)
    return {layer: 1e3 * t / steps for layer, t in sorted(_self_totals(traced).items())}


def write_spans(path, setup: SpanTable, traced) -> None:
    """All traced spans as CSV: phase, index, name, start, end, parent, step."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    origin = float(setup.start.min()) if setup.start.size else 0.0
    with open(path, "w", newline="") as fh:
        fh.write("phase,index,name,start_ns,end_ns,parent,step\n")
        setup.write_csv(fh, "setup", origin)
        for i, lp in enumerate(traced):
            lp.spans.write_csv(fh, f"loop{i}", origin)


def environment(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
    }


def render(report: Report, env: dict) -> str:
    """Human-readable tables: every metric with its unit and direction."""
    lines = [
        f"workload {report.workload}  seed {report.seed}  trace {int(report.trace)}  "
        f"set-ups {report.extra.get('setup_reps', 0)}  loops {report.extra.get('loops', 0)}  "
        f"steps {report.attempted}",
        "  " + "  ".join(f"{k} {v}" for k, v in env.items()),
    ]

    def table(title, metrics):
        lines.append(title)
        for m in metrics:
            if m.name in report.metrics:
                lines.append(f"  {m.name:34s} {report.metrics[m.name]:>14.6g} "
                             f"{m.unit:10s} {m.better}")

    table("end-to-end (untraced loops)", END_TO_END + CLOSED_LOOP)
    if report.trace:
        table("per-layer (traced loops)", PER_LAYER[len(CLOSED_LOOP):])
        lines.append("self time per control step (traced)")
        for layer, ms in report.layer_self_ms.items():
            lines.append(f"  {layer:34s} {ms:>14.6g} ms")
    if "spans" in report.extra:
        lines.append(f"spans written to {report.extra['spans']}")
    if not report.correct:
        lines.append(f"CHECK FAILED: {report.error}")
    return "\n".join(lines)
