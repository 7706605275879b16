"""Span tracer installed around anhgas from outside the package.

Every public function of a layer module (its ``__all__``, plus
``cli.main`` and ``cli.cmd_*``) is replaced by a wrapper in every
``anhgas`` module namespace that holds it, so names bound with
``from ... import`` are traced too. The callables handed to the
integrators, the tail-bounded summer and the Metropolis sampler are
wrapped as well and charged to the layer that passed them, so integrand
time counts against ``quantum_gas`` or ``classical_gas``, not
``oracles``.

A span opens only when the layer changes; nested calls within one layer
are counted but timed once. Spans are kept per thread. Self time is a
span's wall time minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from time import perf_counter, thread_time

LAYERS = ("cli", "quantum_gas", "classical_gas", "oracles", "specfun", "reports")
CALLABLE_TAKERS = {"integrate_finite", "integrate_semi_infinite",
                   "sum_until_tail_bound", "metropolis_expectation"}
INTEGRATORS = {"integrate_finite", "integrate_semi_infinite"}
# functions whose inclusive time is kept even when nested in their own layer
TIMED = {"massless_integrand"}
# thread-CPU time is read only this close to the root, which is all that
# cli.gil_wait_s needs; reading it on every integrand span doubles overhead
CPU_DEPTH = 2
# span records kept for the trace file: the outermost levels, and any
# deeper span at least this long; integrand callbacks are never kept, as
# there are millions. Every span counts towards self time.
KEEP_DEPTH = 2
KEEP_MIN_S = 1e-3


class _ThreadState:
    def __init__(self):
        self.thread = threading.current_thread()
        self.ident = threading.get_ident()
        self.stack: list[list] = []
        self.reset()

    def reset(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.incl_s: dict[str, float] = {}
        self.root_wall = 0.0
        self.root_cpu = 0.0
        self.spans: list[tuple] = []


class Tracer:
    """Install with ``install()``; ``take()`` returns and clears the
    counts and times gathered since the previous ``take()``."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._installed: list[tuple[object, str, object]] = []
        self.main_ident = threading.get_ident()
        self.spans: list[tuple] = []

    # -- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    # -- spans ------------------------------------------------------------

    def _span(self, st, layer, name, fn, args, kwargs):
        stack = st.stack
        depth = len(stack)
        parent = stack[-1][2] if stack else 0
        sid = next(self._ids)
        cpu0 = thread_time() if depth < CPU_DEPTH else 0.0
        frame = [layer, 0.0, sid]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            wall = t1 - t0
            self_s = st.self_s
            self_s[layer] = self_s.get(layer, 0.0) + wall - frame[1]
            cpu = thread_time() - cpu0 if depth < CPU_DEPTH else -1.0
            if stack:
                stack[-1][1] += wall
            else:
                st.root_wall += wall
                st.root_cpu += cpu
            if depth < KEEP_DEPTH or wall >= KEEP_MIN_S:
                st.spans.append((sid, parent, name, layer, st.ident, t0, t1, wall, cpu))

    def _callback(self, g, layer, st):
        """The integrand fast path: a span with no record and no CPU time,
        because it runs once per quadrature node."""
        stack = st.stack
        push, pop = stack.append, stack.pop
        self_s = st.self_s          # reset only between ops, never during one

        def cb(*args):
            top = stack[-1]
            if top[0] == layer:
                return g(*args)
            frame = [layer, 0.0]
            push(frame)
            t0 = perf_counter()
            try:
                return g(*args)
            finally:
                wall = perf_counter() - t0
                pop()
                self_s[layer] = self_s.get(layer, 0.0) + wall - frame[1]
                top[1] += wall

        return cb

    def _wrap(self, fn, layer: str, name: str):
        state = self._state
        span = self._span
        callback = self._callback
        takes_callables = name in CALLABLE_TAKERS
        timed = name in TIMED
        qualified = f"{layer}.{name}"
        observe = self._observer(layer, name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            calls = st.calls
            calls[qualified] = calls.get(qualified, 0) + 1
            stack = st.stack
            if stack and stack[-1][0] == layer:
                if not timed:
                    return fn(*args, **kwargs)
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                st.incl_s[name] = st.incl_s.get(name, 0.0) + perf_counter() - t0
                return result
            if takes_callables:
                caller = stack[-1][0] if stack else "cli"
                args = tuple(callback(a, caller, st) if callable(a) else a for a in args)
                kwargs = {k: callback(v, caller, st) if callable(v) else v
                          for k, v in kwargs.items()}
            t0 = perf_counter()
            result = span(st, layer, qualified, fn, args, kwargs)
            if timed:
                st.incl_s[name] = st.incl_s.get(name, 0.0) + perf_counter() - t0
            if observe is not None:
                observe(st.counters, args, kwargs, result)
            return result

        return wrapper

    def _observer(self, layer: str, name: str, fn):
        """Counts read from the results of outer calls into a layer."""

        def bump(counters, key, n=1):
            counters[key] = counters.get(key, 0) + n

        if name in INTEGRATORS:
            def observe(counters, args, kwargs, res):
                bump(counters, "oracles.quad_calls")
                bump(counters, "oracles.quad_evals", res.evaluations)
                if not res.converged:
                    bump(counters, "oracles.quad_unconverged")
            return observe
        if name == "metropolis_expectation":
            sig = inspect.signature(fn)

            def observe(counters, args, kwargs, res):
                bound = sig.bind(*args, **kwargs)
                bump(counters, "oracles.mc_samples",
                     bound.arguments["n_samples"] + bound.arguments["burn_in"])
            return observe
        if layer == "specfun":
            def observe(counters, args, kwargs, res):
                method = getattr(res, "method", None)
                if isinstance(method, str):
                    bump(counters, "specfun.method." + method)
            return observe
        if layer in ("quantum_gas", "classical_gas"):
            report_type = sys.modules["anhgas.reports"].ComparisonReport
            key = layer + ".report_calls"

            def observe(counters, args, kwargs, res):
                if isinstance(res, report_type):
                    bump(counters, key)
            return observe
        return None

    # -- installation -----------------------------------------------------

    def install(self):
        import anhgas.cli  # noqa: F401  (imports every layer module)

        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules["anhgas." + layer]
            names = list(getattr(mod, "__all__", ()))
            if layer == "cli":
                names += [n for n in vars(mod) if n == "main" or n.startswith("cmd_")]
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = self._wrap(fn, layer, name)
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "anhgas" or n.startswith("anhgas."))]
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                wrapper = originals.get(id(val))
                if wrapper is not None:
                    self._installed.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, val in reversed(self._installed):
            setattr(mod, attr, val)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ----------------------------------------------------------

    def take(self) -> dict:
        """Merge and clear what every thread gathered; call between ops."""
        merged = {"self_s": {}, "calls": {}, "counters": {}, "incl_s": {},
                  "threads": []}
        with self._lock:
            states = list(self._states)
            self._states = [s for s in states if s.thread.is_alive()]
        for st in states:
            for key in ("self_s", "calls", "counters", "incl_s"):
                dst = merged[key]
                for k, v in getattr(st, key).items():
                    dst[k] = dst.get(k, 0) + v
            merged["threads"].append({
                "thread": st.ident,
                "main": st.ident == self.main_ident,
                "self_s": dict(st.self_s),
                "root_wall_s": st.root_wall,
                "root_cpu_s": st.root_cpu,
            })
            self.spans.extend(st.spans)
            st.reset()
        return merged
