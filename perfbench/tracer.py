"""Per-layer tracer that lives entirely in the benchmark.

It rebinds module attributes at the boundaries where one module of
``tamedsde`` calls the next, and wraps the problem's coefficient callables,
so nothing under ``src/`` changes:

==========================  =====================================  ==========
boundary                    rebound attribute                      span
==========================  =====================================  ==========
cli -> analysis             ``cli.strong_error_table``,            ``entry``
                            ``cli.stability_study``
analysis fan-out            ``analysis._run_chunks`` (and the      ``fanout``,
                            chunk worker it is given)              ``chunk``
analysis -> paths           ``analysis._stack_increments``,        ``stack``,
                            ``analysis._draw_increments``          ``draw``
analysis propagation        ``analysis._batch_endpoints``,         ``propagate``
                            ``analysis._batch_grid_moments``
analysis -> schemes         ``analysis.step_function`` (wraps the  ``step``
                            step functions it returns)
schemes -> model            coefficient callables of the problem   ``coeff``
                            ``cli.builtin_problem`` returns
cli output                  ``cli._write_lines``                   ``write``
==========================  =====================================  ==========

Spans nest per thread; a span's self time is its duration minus the time of
the spans it directly encloses on the same thread. Counts are taken at the
same boundaries. Bookkeeping that costs real time (counting live rows) is
charged to no span.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import defaultdict

import numpy as np
from tamedsde.schemes import SchemeKind

from workloads import ALL_SCHEMES

_perf = time.perf_counter


class _Thread:
    """Per-thread accumulators and span stack (no locking on the hot path)."""

    def __init__(self):
        self.stack: list[list[float]] = []  # [child time] per open span
        self.incl = defaultdict(float)
        self.self_ = defaultdict(float)
        self.count = defaultdict(int)


class Tracer:
    def __init__(self, cli, analysis):
        self._cli = cli
        self._analysis = analysis
        self._local = threading.local()
        self._threads: list[_Thread] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self.max_increment_bytes = 0
        self.fanout_capacity_s = 0.0
        self.paused = False

    # -- accumulation -------------------------------------------------

    def _state(self) -> _Thread:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _Thread()
            with self._lock:
                self._threads.append(state)
        return state

    def _call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside span ``name`` on the current thread."""
        state = self._state()
        frame = [0.0]
        state.stack.append(frame)
        start = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _perf() - start
            state.stack.pop()
            state.incl[name] += elapsed
            state.self_[name] += elapsed - frame[0]
            state.count[name] += 1
            if state.stack:
                state.stack[-1][0] += elapsed

    def _add(self, key: str, amount: int) -> None:
        self._state().count[key] += amount

    def _exclude(self, elapsed: float) -> None:
        """Hide tracer bookkeeping from the enclosing span's self time."""
        state = self._state()
        if state.stack:
            state.stack[-1][0] += elapsed

    def totals(self):
        incl, self_, count = defaultdict(float), defaultdict(float), defaultdict(int)
        with self._lock:
            states = list(self._threads)
        for state in states:
            for key, value in state.incl.items():
                incl[key] += value
            for key, value in state.self_.items():
                self_[key] += value
            for key, value in state.count.items():
                count[key] += value
        return incl, self_, count

    # -- patching -----------------------------------------------------

    def _rebind(self, module, attr: str, make):
        original = getattr(module, attr)  # AttributeError: the boundary moved
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        cli, analysis = self._cli, self._analysis
        for attr in ("strong_error_table", "stability_study"):
            self._rebind(cli, attr, lambda fn: self._spanned("entry", fn))
        self._rebind(analysis, "_run_chunks", self._wrap_run_chunks)
        self._rebind(analysis, "_stack_increments", self._wrap_stack)
        self._rebind(analysis, "_draw_increments", self._wrap_draw)
        for attr in ("_batch_endpoints", "_batch_grid_moments"):
            self._rebind(analysis, attr, lambda fn: self._spanned("propagate", fn))
        self._rebind(analysis, "step_function", self._wrap_step_function)
        self._rebind(cli, "builtin_problem", self._wrap_builtin_problem)
        self._rebind(cli, "_write_lines", self._wrap_write_lines)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, *args, **kwargs)

        return wrapper

    def _wrap_run_chunks(self, run_chunks):
        def wrapper(worker, paths, threads):
            chunks = len(self._analysis._chunk_ranges(paths))
            start = _perf()
            try:
                return self._call(
                    "fanout", run_chunks, self._spanned("chunk", worker), paths, threads
                )
            finally:
                elapsed = _perf() - start
                with self._lock:
                    self.fanout_capacity_s += min(max(threads, 1), chunks) * elapsed

        return wrapper

    def _wrap_stack(self, stack):
        def wrapper(*args, **kwargs):
            block = self._call("stack", stack, *args, **kwargs)
            with self._lock:
                self.max_increment_bytes = max(self.max_increment_bytes, block.nbytes)
            return block

        return wrapper

    def _wrap_draw(self, draw):
        def wrapper(*args, **kwargs):
            block = self._call("draw", draw, *args, **kwargs)
            self._add("normals", block.size)
            return block

        return wrapper

    def _wrap_step_function(self, step_function):
        def wrapper(scheme):
            step = step_function(scheme)
            name = f"step.{SchemeKind.from_name(scheme).value}"

            def traced_step(problem, x, dW, h):
                start = _perf()
                live = int(np.count_nonzero(np.isfinite(x).all(axis=-1)))
                self._add(f"path_steps.{name}", x.shape[0])
                self._add(f"live_path_steps.{name}", live)
                self._exclude(_perf() - start)
                return self._call(name, step, problem, x, dW, h)

            return traced_step

        return wrapper

    def _wrap_builtin_problem(self, builtin_problem):
        def coeff(fn):
            def wrapper(*args):
                if self.paused:
                    return fn(*args)
                return self._call("coeff", fn, *args)

            return wrapper

        def wrapper(*args, **kwargs):
            problem = builtin_problem(*args, **kwargs)
            derivative = problem.diffusion_derivative_product
            self.paused = True  # SdeProblem validates its callables once on build
            try:
                return dataclasses.replace(
                    problem,
                    phi=coeff(problem.phi),
                    varphi=coeff(problem.varphi),
                    diffusion_column=coeff(problem.diffusion_column),
                    diffusion_derivative_product=None if derivative is None else coeff(derivative),
                )
            finally:
                self.paused = False

        return wrapper

    def _wrap_write_lines(self, write_lines):
        def wrapper(path, lines):
            self._add("bytes_written", len(("\n".join(lines) + "\n").encode("utf-8")))
            return self._call("write", write_lines, path, lines)

        return wrapper


def layer_metrics(tracer: Tracer, threads: int, load_config_s: float) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name."""
    incl, self_, count = tracer.totals()
    schemes = sorted({k.split(".", 1)[1] for k in incl if k.startswith("step.")})
    step_incl = sum(incl[f"step.{s}"] for s in schemes)
    step_calls = sum(count[f"step.{s}"] for s in schemes)
    path_steps = sum(count[f"path_steps.step.{s}"] for s in schemes)
    live_steps = sum(count[f"live_path_steps.step.{s}"] for s in schemes)
    workers = min(threads, max(count["chunk"], 1))
    out = {
        "paths.draw_calls": count["draw"],
        "paths.normals": count["normals"],
        "paths.draw_s": incl["draw"],
        "paths.us_per_stream": _ratio(incl["draw"] * 1e6, count["draw"]),
        "paths.ns_per_normal": _ratio(incl["draw"] * 1e9, count["normals"]),
        "model.coeff_calls": count["coeff"],
        "model.coeff_calls_per_step": _ratio(count["coeff"], step_calls),
        "model.coeff_s": incl["coeff"],
        "schemes.step_calls": step_calls,
        "schemes.path_steps": path_steps,
        "schemes.step_self_s": sum(self_[f"step.{s}"] for s in schemes),
        "schemes.ns_per_path_step": _ratio(step_incl * 1e9, path_steps),
        "analysis.chunks": count["chunk"],
        "analysis.chunk_busy_s": incl["chunk"],
        "analysis.worker_busy_frac": _ratio(incl["chunk"], tracer.fanout_capacity_s),
        "analysis.propagate_self_s": self_["propagate"],
        "analysis.stack_self_s": self_["stack"],
        "analysis.chunk_self_s": self_["chunk"],
        "analysis.reduce_s": incl["entry"] - incl["fanout"],
        "analysis.live_path_step_frac": _ratio(live_steps, path_steps),
        "analysis.chunk_increment_mb": tracer.max_increment_bytes * workers / 2**20,
        "cli.load_config_s": load_config_s,
        "cli.write_s": incl["write"],
        "cli.bytes_written": count["bytes_written"],
    }
    for scheme in ALL_SCHEMES:
        key = f"step.{scheme}"
        out[f"schemes.step_calls.{scheme}"] = count[key]
        out[f"schemes.path_steps.{scheme}"] = count[f"path_steps.{key}"]
        out[f"schemes.step_self_s.{scheme}"] = self_[key]
        out[f"schemes.ns_per_path_step.{scheme}"] = _ratio(
            incl[key] * 1e9, count[f"path_steps.{key}"]
        )
    return out


# Counters that must repeat exactly and match their closed-form values.
EXACT_COUNTS = (
    "paths.draw_calls",
    "paths.normals",
    "model.coeff_calls",
    "analysis.chunks",
) + tuple(f"schemes.{kind}.{s}" for kind in ("step_calls", "path_steps") for s in ALL_SCHEMES)


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 for a layer the workload never entered."""
    return num / den if den else 0.0
