"""mmls benchmark: workloads, timed streams, correctness gate and per-layer trace.

Every stream goes through the public ``run_experiment`` path.  End-to-end
metrics come from untraced streams; per-layer metrics come from streams run
while :data:`trace_points` are wrapped by a :class:`tracer.Tracer`, and the
difference between the two is reported as the tracing overhead.

Set BLAS threads before this module imports numpy (``run.py`` does).
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import mmls
from mmls import datasets, engine, experiments, moments, penalties
from mmls.experiments import resolve_config

from tracer import END, NAME, NOTE, PARENT, START, Tracer, self_times

ROOT_SPAN = "experiments.run_experiment"
ORACLE_TOL = 1e-10
ORACLE_MAX_ITER = 2000
# objective of the stream's final iterate, evaluated by the engine's running
# statistics and by the benchmark's closed-form weighted sums
STATISTICS_RTOL = 1e-9
# a single stream of these workloads takes seconds; one that hangs fails the run
STREAM_TIMEOUT_S = 150
# glibc sysconf names for cache sizes, missing from os.sysconf_names
_SC_CACHE = {"l1d": 188, "l2": 191, "l3": 194}


@dataclass(frozen=True)
class Workload:
    """One benchmark input: the config of its stream and its correctness references.

    ``nrmse_max`` and ``gap_max`` sit above the largest values seen over
    seeds 1-20 (about 1.5x for the error, 5-20x for the gap), so only a
    broken solver misses them; ``tiny`` shrinks the stream for the smoke
    test without changing its dimension.
    """

    why: str
    config: dict
    tiny: dict
    nrmse_max: float
    gap_max: float

    def resolve(self, seed: int, tiny: bool = False):
        fields = {**self.config, **(self.tiny if tiny else {})}
        return resolve_config(experiments.ExperimentConfig(seed=int(seed), **fields))


# Both workloads run the memory-gradient subspace.  A 7x7-kernel control
# (512^2 image, N=49, where fixed per-step Python costs dominate) was left
# out: on a shared 2-core host its run-to-run spread reached 0.19, too wide
# for a 0.25 bound.
WORKLOADS = {
    "adaptive-n200-q1": Workload(
        why=(
            "switching sparse filter, 5000 single samples, forgetting 0.995: a rank-1 update "
            "of a 200^2 autocorr (320 KB, in the 2 MiB L2) per step dominates; 8 MB features"
        ),
        config=dict(
            experiment="adaptive", n_dim=200, n_samples=5000, block_size=1, vartheta=0.995,
            strategy="memory-gradient", operator="identity", penalty="welsch", lam=0.02,
            delta=0.1, kappa=1.0, tau=0.0, noise_sigma=float(np.sqrt(0.05)),
        ),
        tiny=dict(n_samples=400),
        nrmse_max=0.15,
        gap_max=1e-2,
    ),
    "deconv-k21-q64": Workload(
        why=(
            "full-scale 21x21 kernel, 256^2 image, 1024 blocks of 64: rank-64 update of a 441^2 "
            "autocorr (1.56 MB, in L2) and dense 882x441 tv2d products; 231 MB patch matrix"
        ),
        config=dict(
            experiment="deconv2d", image_size=256, kernel_size=21, block_size=64, vartheta=1.0,
            strategy="memory-gradient", operator="tv2d", penalty="l2lkappa-power", lam=1e-4,
            delta=1e-2, tau=1e-10, noise_sigma=0.03,
        ),
        tiny=dict(image_size=64),
        nrmse_max=0.1,
        gap_max=2e-4,
    ),
}


# --- environment and sizes ----------------------------------------------


def _openblas_threads(package) -> int | None:
    """Thread count reported by the OpenBLAS bundled with ``package``."""
    libs_dir = os.path.join(os.path.dirname(package.__file__), os.pardir, f"{package.__name__}.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _cache_bytes() -> dict:
    out = {}
    for level, name in _SC_CACHE.items():
        try:
            out[level] = int(os.sysconf(name))
        except (ValueError, OSError):
            out[level] = None
    return out


def environment() -> dict:
    """Thread pinning, library versions and the machine's cores and caches."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": {"numpy": _openblas_threads(np), "scipy": _openblas_threads(scipy)},
        "thread_env": {var: val for var, val in os.environ.items() if var.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cache_bytes": _cache_bytes(),
    }


def sizes(cfg) -> dict:
    """Computed problem sizes: dimension, blocks and the dense arrays' bytes."""
    if cfg.experiment == "deconv2d":
        n_dim, rows = cfg.kernel_size**2, cfg.image_size**2
    else:
        n_dim, rows = cfg.n_dim, cfg.n_samples
    blocks = rows // cfg.block_size
    return {
        "n_dim": n_dim,
        "block_size": cfg.block_size,
        "blocks": blocks,
        "observations": blocks * cfg.block_size,
        "autocorr_bytes": 8 * n_dim * n_dim,
        "features_bytes": 8 * rows * n_dim,
    }


def _owned_bytes(stream) -> int:
    """Bytes of the arrays a stream object holds and owns (not views)."""
    return sum(
        value.nbytes for value in vars(stream).values()
        if isinstance(value, np.ndarray) and value.flags.owndata
    )


def trace_points():
    """Entry points wrapped in a traced stream: ``(owner, attribute, span[, observe])``."""
    reg = penalties.Regularizer
    points = [
        (experiments, "gen_adaptive", "datasets.generate", lambda out: _owned_bytes(out[1])),
        (experiments, "gen_deconv2d", "datasets.generate", lambda out: _owned_bytes(out[1])),
        (datasets.ArrayStream, "block", "datasets.block"),
        (moments.Sample, "__init__", "moments.sample"),
        (moments, "update", "moments.update"),
        (engine.MMEngine, "step", "engine.step", lambda report: (report.rank, report.subspace_dim)),
        (engine, "build_subspace", "engine.build_subspace"),
        (engine, "reduced_matrix", "engine.reduced_matrix"),
        (engine, "_pinv_psd_solve", "engine.solve"),
        (experiments, "nrmse", "experiments.nrmse"),
    ]
    for method in ("residual", "block_norms", "weights_from_norms", "weights",
                   "penalty_sum", "value", "gradient"):
        points.append((reg, method, f"penalties.{method}"))
    return points


# --- timed streams ---------------------------------------------------------


@dataclass
class Rep:
    """One ``run_experiment`` call, made in a process of its own."""

    traced: bool
    blocks: int
    total_s: float = float("nan")
    stream_s: float = float("nan")
    step_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    digest: str = ""
    final_nrmse: float = float("nan")
    final_objective: float = float("nan")
    h_final: np.ndarray | None = None
    peak_rss_mb: float = float("nan")
    spans: list = field(default_factory=list)
    error: str | None = None


def stream_once(cfg, traced: bool) -> Rep:
    """Run ``cfg`` through ``run_experiment`` once, optionally traced.

    Meant for a fresh process: a one-shot run, as the command line makes it,
    pays first-call and allocator costs that a long-lived process would not.
    """
    rep = Rep(traced=traced, blocks=sizes(cfg)["blocks"])
    tracer = Tracer()
    start = perf_counter()
    try:
        if traced:
            with tracer.patched(trace_points()), tracer.span(ROOT_SPAN):
                trace = experiments.run_experiment(cfg)
        else:
            trace = experiments.run_experiment(cfg)
    except engine.DivergenceError as exc:
        rep.error = f"DivergenceError: {exc}"
        return rep
    rep.total_s = perf_counter() - start
    rep.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    rep.spans = tracer.spans
    rep.stream_s = float(trace.wall_time[-1])
    rep.step_ms = 1e3 * np.diff(trace.wall_time, prepend=0.0)
    rep.digest = hashlib.sha256(np.ascontiguousarray(trace.h_final).tobytes()).hexdigest()
    rep.final_nrmse = float(trace.final_nrmse)
    rep.final_objective = float(trace.final_objective)
    rep.h_final = trace.h_final
    if len(trace) != rep.blocks:
        rep.error = f"trace has {len(trace)} rows, expected {rep.blocks}"
    elif not (np.all(np.isfinite(trace.objective)) and np.all(np.isfinite(trace.nrmse))):
        rep.error = "non-finite objective or error in the trace"
    return rep


def measure(cfg, seconds: float, trace: bool) -> list[Rep]:
    """Stream ``cfg`` repeatedly for about ``seconds``, one fresh process per stream.

    Streams run one at a time.  A new one starts only if a stream of the
    median length so far, process start included, would still end within
    the budget; at least one runs.  With ``trace``, untraced and traced
    streams alternate, starting untraced, and at least one of each runs.
    """
    reps: list[Rep] = []
    lengths: list[float] = []
    start = perf_counter()
    while True:
        began = perf_counter()
        reps.append(_stream_in_child(cfg, traced=trace and len(reps) % 2 == 1))
        if reps[-1].error is not None:
            return reps
        now = perf_counter()
        lengths.append(now - began)
        if not (trace and len(reps) < 2) and now - start + statistics.median(lengths) > seconds:
            return reps


def _stream_in_child(cfg, traced: bool) -> Rep:
    """Run :func:`stream_once` in a fresh interpreter (``stream.py``) and wait for it."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(Path(mmls.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, str(here / "stream.py")], input=pickle.dumps((cfg, traced)),
        capture_output=True, env=env, cwd=here.parent, timeout=STREAM_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"stream process exited with {done.returncode}:\n{done.stderr.decode()}")
    return pickle.loads(done.stdout)


# --- correctness gate --------------------------------------------------------


def _problem(cfg):
    """Stream, final ground truth and regularizer, from the public mmls functions."""
    if cfg.experiment == "deconv2d":
        kernel, stream = mmls.gen_deconv2d(
            cfg.seed, image_size=cfg.image_size, kernel_size=cfg.kernel_size,
            sigma=cfg.noise_sigma,
        )
        reg = mmls.build_isotropic_tv_regularizer(
            cfg.kernel_size, cfg.kernel_size, cfg.lam, cfg.delta, tau=cfg.tau
        )
        return stream, kernel.ravel(), reg
    truth, stream = mmls.gen_adaptive(
        cfg.seed, n_taps=cfg.n_dim, n_samples=cfg.n_samples, noise_var=cfg.noise_sigma**2,
        change_point=cfg.change_point,
    )
    spec = mmls.PenaltySpec(cfg.penalty, lam=cfg.lam, delta=cfg.delta, kappa=cfg.kappa)
    reg = mmls.identity_blocks_regularizer(cfg.n_dim, spec, tau=cfg.tau)
    return stream, truth.at(stream.n_rows), reg


def final_statistics(stream, block_size: int, forgetting: float) -> moments.MomentState:
    """Statistics after the whole stream, as closed-form weighted sums.

    Block ``k`` of ``n`` carries weight ``forgetting**(n - k)``; this shares
    no code with the running update the engine applies.
    """
    n_blocks = stream.n_blocks(block_size)
    rows = n_blocks * block_size
    features = stream.features[:rows]
    obs = stream.observations[:rows]
    block_weights = forgetting ** np.arange(n_blocks - 1, -1, -1, dtype=float)
    total = float(block_weights.sum())
    row_weights = np.repeat(block_weights, block_size)
    scaled = features * np.sqrt(row_weights)[:, None]
    autocorr = scaled.T @ scaled / total
    return moments.MomentState(
        power=float(row_weights @ (obs * obs)) / total,
        cross=features.T @ (row_weights * obs) / total,
        autocorr=0.5 * (autocorr + autocorr.T),
        count=n_blocks,
        forgetting=forgetting,
        weight_total=total,
        block_size=block_size,
    )


@dataclass
class Gate:
    checks: dict
    objective_gap: float
    oracle_s: float
    oracle_iterations: int

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def gate(workload: Workload, cfg, reps: list[Rep]) -> Gate:
    """Check the streamed result against the batch oracle and the references."""
    done = [rep for rep in reps if rep.error is None]
    first = done[0]
    stream, truth, reg = _problem(cfg)
    state = final_statistics(stream, cfg.block_size, cfg.vartheta)
    del stream
    f_stream = moments.objective(state, reg, first.h_final)
    start = perf_counter()
    try:
        solution = mmls.batch_half_quadratic(
            state, reg, h0=first.h_final, tol=ORACLE_TOL, max_iter=ORACLE_MAX_ITER
        )
        converged = True
    except mmls.HalfQuadraticError as exc:
        solution, converged = exc.solution, False
    oracle_s = perf_counter() - start
    gap = (f_stream - solution.objective) / abs(solution.objective)
    checks = {
        "oracle converged": converged,
        "reruns bit-identical": len({rep.digest for rep in done}) == 1,
        "final objective matches closed-form statistics":
            abs(f_stream - first.final_objective) <= STATISTICS_RTOL * abs(f_stream),
        "final_nrmse matches truth":
            abs(mmls.nrmse(first.h_final, truth) - first.final_nrmse) <= 1e-12,
        f"final_nrmse <= {workload.nrmse_max:g}": 0.0 < first.final_nrmse <= workload.nrmse_max,
        f"objective_gap <= {workload.gap_max:g}": gap <= workload.gap_max,
    }
    return Gate(checks, gap, oracle_s, solution.iterations)


# --- metrics -------------------------------------------------------------------


def end_to_end(reps: list[Rep], cfg, gate_result: Gate | None, attempted: int,
               failed: int) -> dict:
    """The user-visible metrics of the untraced streams, as ``name: (value, unit)``.

    Host contention on a shared machine changes step times in bursts, so
    each metric is a median over streams, except ``step_ms_p50``, which
    pools every step; ``step_ms_p99`` is the median of each stream's p99.
    """
    plain = [rep for rep in reps if rep.error is None and not rep.traced]
    steps = np.concatenate([rep.step_ms for rep in plain])
    observations = sizes(cfg)["observations"]
    metrics = {
        "setup_s": (statistics.median(rep.total_s - rep.stream_s for rep in plain), "s"),
        "total_s": (statistics.median(rep.total_s for rep in plain), "s"),
        "samples_per_s": (statistics.median(observations / rep.stream_s for rep in plain), "1/s"),
        "step_ms_p50": (float(np.percentile(steps, 50)), "ms"),
        "step_ms_p99":
            (statistics.median(float(np.percentile(rep.step_ms, 99)) for rep in plain), "ms"),
        "peak_rss_mb": (statistics.median(rep.peak_rss_mb for rep in plain), "MiB"),
        "final_nrmse": (plain[0].final_nrmse, "ratio"),
        "failed_share": (failed / attempted, "ratio"),
    }
    if gate_result is not None:
        metrics["objective_gap"] = (gate_result.objective_gap, "ratio")
    return metrics


# per-call self-time metrics: metric prefix -> span name
_SELF_METRICS = {
    "datasets.block": "datasets.block",
    "moments.update": "moments.update",
    "moments.sample": "moments.sample",
    "penalties.block_norms": "penalties.block_norms",
    "penalties.weights": "penalties.weights_from_norms",
    "penalties.penalty_sum": "penalties.penalty_sum",
    "engine.build_subspace": "engine.build_subspace",
    "engine.reduced_matrix": "engine.reduced_matrix",
    "engine.solve": "engine.solve",
    "experiments.nrmse": "experiments.nrmse",
}


def _totals(spans) -> tuple[Counter, Counter, Counter]:
    """Per span name: calls, self seconds and inclusive seconds."""
    calls, busy, inclusive = Counter(), Counter(), Counter()
    for span, own in zip(spans, self_times(spans)):
        calls[span[NAME]] += 1
        busy[span[NAME]] += own
        inclusive[span[NAME]] += span[END] - span[START]
    return calls, busy, inclusive


def _stream_layers(spans) -> dict:
    """Aggregates of one traced stream, whose root span comes first."""
    calls, busy, inclusive = _totals(spans)
    root = spans[0]
    children = [span for span in spans if span[PARENT] == 0]
    first_block = next(s[START] for s in children if s[NAME] == "datasets.block")
    last_error = [s[END] for s in children if s[NAME] == "experiments.nrmse"][-1]

    def self_between(lo, hi):
        covered = sum(s[END] - s[START] for s in children if lo <= s[START] and s[END] <= hi)
        return (hi - lo) - covered

    setup_self = self_between(root[START], first_block)
    finalize_self = self_between(last_error, root[END])
    steps = [s[NOTE] for s in spans if s[NAME] == "engine.step"]
    generated = [s[NOTE] for s in children if s[NAME] == "datasets.generate"]
    return {
        "calls": calls,
        "busy": busy,
        "inclusive": inclusive,
        "generate_s": inclusive["datasets.generate"],
        "stream_bytes": sum(generated),
        "loop_self_s": busy[ROOT_SPAN] - setup_self - finalize_self,
        "finalize_s": root[END] - last_error,
        "rank_deficient": sum(1 for rank, dim in steps if rank < dim),
    }


def per_layer(reps: list[Rep], blocks: int, gate_result: Gate) -> dict:
    """Per-layer metrics of the traced streams, as ``name: (value, unit)``.

    ``_us`` metrics are mean self time per call (``engine.step_us`` is the
    whole step); ``_calls`` and ``_busy_s`` are per stream.  Counts must be
    identical in every traced stream.
    """
    streams = [_stream_layers(rep.spans) for rep in reps if rep.traced]
    count = len(streams)
    calls = streams[0]["calls"]
    for other in streams[1:]:
        if other["calls"] != calls or other["rank_deficient"] != streams[0]["rank_deficient"]:
            raise RuntimeError("traced streams disagree on call counts")

    def total(key, name):
        return sum(stream[key][name] for stream in streams)

    metrics = {}
    for prefix, name in _SELF_METRICS.items():
        metrics[f"{prefix}_us"] = (1e6 * total("busy", name) / max(1, count * calls[name]), "us")
        metrics[f"{prefix}_calls"] = (calls[name], "count")
        metrics[f"{prefix}_busy_s"] = (total("busy", name) / count, "s")
    steps = calls["engine.step"]
    step_total = total("inclusive", "engine.step")
    metrics.update({
        "datasets.generate_s": (sum(s["generate_s"] for s in streams) / count, "s"),
        "datasets.stream_mb": (streams[0]["stream_bytes"] / 2**20, "MiB"),
        "moments.update_share": (total("busy", "moments.update") / step_total, "ratio"),
        "moments.sample_calls_per_block": (calls["moments.sample"] / blocks, "ratio"),
        "engine.step_us": (1e6 * step_total / (count * steps), "us"),
        "engine.step_calls": (steps, "count"),
        "engine.step_busy_s": (step_total / count, "s"),
        "engine.self_us": (1e6 * total("busy", "engine.step") / (count * steps), "us"),
        "engine.self_busy_s": (total("busy", "engine.step") / count, "s"),
        "engine.rank_deficient_steps": (streams[0]["rank_deficient"], "count"),
        "engine.full_rank_ratio": (1.0 - streams[0]["rank_deficient"] / steps, "ratio"),
        "experiments.loop_self_us":
            (1e6 * sum(s["loop_self_s"] for s in streams) / (count * blocks), "us"),
        "experiments.finalize_s": (sum(s["finalize_s"] for s in streams) / count, "s"),
        "oracle.batch_s": (gate_result.oracle_s, "s"),
        "oracle.iterations": (gate_result.oracle_iterations, "count"),
    })
    plain = statistics.median(r.stream_s for r in reps if r.error is None and not r.traced)
    traced = statistics.median(r.stream_s for r in reps if r.error is None and r.traced)
    metrics["trace.overhead_share"] = (traced / plain - 1.0, "ratio")
    return metrics


def span_table(reps: list[Rep]) -> list[str]:
    """One line per span name: calls per stream, mean self and inclusive time."""
    traced = [rep.spans for rep in reps if rep.traced]
    streams = len(traced)
    calls, busy, inclusive = Counter(), Counter(), Counter()
    for spans in traced:
        for total, part in zip((calls, busy, inclusive), _totals(spans)):
            total.update(part)
    lines = [f"{'span':32s} {'calls/stream':>12s} {'self_us':>10s} {'incl_us':>10s} {'self_s':>9s}"]
    for name in sorted(calls, key=lambda n: -busy[n]):
        n = calls[name]
        lines.append(
            f"{name:32s} {n / streams:12.0f} {1e6 * busy[name] / n:10.2f} "
            f"{1e6 * inclusive[name] / n:10.2f} {busy[name] / streams:9.4f}"
        )
    return lines


# --- one benchmark run ---------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    report: list[str]
    reps: list[Rep]


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> Result:
    """Stream for ``seconds``, gate the result and compute the metrics.

    With ``trace`` the metrics are the per-layer ones, else the end-to-end
    ones; ``tiny`` shrinks the stream (for the smoke test).
    """
    workload = WORKLOADS[name]
    cfg = workload.resolve(seed, tiny)
    reps = measure(cfg, seconds, trace)

    report = [f"sizes {sizes(cfg)}"]
    for index, rep in enumerate(reps, 1):
        kind = "traced" if rep.traced else "untraced"
        report.append(
            f"stream {index} {kind}: total_s={rep.total_s:.4f} stream_s={rep.stream_s:.4f} "
            f"blocks={rep.blocks} error={rep.error} h_final sha256={rep.digest}"
        )
    gate_result = gate(workload, cfg, reps) if reps[0].error is None else None
    if gate_result is not None:
        report += [f"gate {'PASS' if ok else 'FAIL'}: {check}" for check, ok in gate_result.checks.items()]
        report.append(f"oracle: {gate_result.oracle_iterations} solves in {gate_result.oracle_s:.3f} s")
    gate_ok = gate_result is not None and gate_result.passed
    attempted = sum(rep.blocks for rep in reps)
    failed = sum(rep.blocks for rep in reps if rep.error is not None or not gate_ok)

    metrics: dict = {}
    if any(rep.error is None and not rep.traced for rep in reps):
        metrics = end_to_end(reps, cfg, gate_result, attempted, failed)
        plain = [rep for rep in reps if rep.error is None and not rep.traced]
        report.append(
            f"step latency samples: {sum(rep.blocks for rep in plain)} in {len(plain)} streams "
            f"(each stream's p99 has {plain[0].blocks // 100} beyond it)"
        )
        report += [f"e2e {key} = {value:.6g} {unit}" for key, (value, unit) in metrics.items()]
    if trace and gate_result is not None and all(rep.error is None for rep in reps):
        report += span_table(reps)
        metrics = per_layer(reps, sizes(cfg)["blocks"], gate_result)
        report += [f"layer {key} = {value:.6g} {unit}" for key, (value, unit) in metrics.items()]
    return Result(gate_ok and failed == 0, attempted, failed, metrics, report, reps)
