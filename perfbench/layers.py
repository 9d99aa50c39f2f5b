"""Per-layer measurements for the traced run.

``Tracer`` records a span around every call that crosses a layer boundary:
each public function of a ``quadprim`` layer is wrapped wherever another
layer module binds its name (for example ``quadprim.cli.scan_interval`` or
``quadprim.criteria.enumerate_odd_prime_powers``), and the benchmark wraps
``quadprim.cli.main`` itself.  Calls inside a module stay unwrapped, so
their time counts as that layer's self time: span time minus the time of
the spans it caused.

``QuadExtField`` methods run tens of millions of times per workload, too
often to wrap.  ``ffield_kernel`` times them instead in a fixed loop.
"""

from __future__ import annotations

import importlib
import inspect
from statistics import median
from time import perf_counter

LAYERS = ("arith", "ffield", "criteria", "verify", "charoracle", "cli")

# Work counted at a boundary: function name -> (counter, amount(args, result)).
_COUNTS = {
    "enumerate_odd_prime_powers": ("contexts", lambda args, res: len(res)),
    "ctx_for_prime_power": ("contexts", lambda args, res: 1),
    "prime_power_ctx": ("contexts", lambda args, res: 1),
    "scan_interval": ("classified", lambda args, res: len(res)),
    "verify_line_fast": ("slopes", lambda args, res: args[0].q + 1),
}


class Tracer:
    """Spans kept in memory as per-layer and per-function aggregates."""

    def __init__(self) -> None:
        # stack[i] accumulates the time of the spans opened directly under
        # the i-th open span; stack[0] is the benchmark's own frame.
        self.stack = [0.0]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.fn_s: dict[str, float] = {}
        self.fn_max: dict[str, float] = {}
        self.fn_calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, name: str, fn):
        stack, self_s, calls = self.stack, self.self_s, self.calls
        fn_s, fn_max, fn_calls, counts = self.fn_s, self.fn_max, self.fn_calls, self.counts
        count = _COUNTS.get(name)
        clock = perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                children = stack.pop()
                stack[-1] += dur
                self_s[layer] += dur - children
                calls[layer] += 1
                fn_s[name] = fn_s.get(name, 0.0) + dur
                fn_max[name] = max(fn_max.get(name, 0.0), dur)
                fn_calls[name] = fn_calls.get(name, 0) + 1
            if count is not None:
                counts[count[0]] = counts.get(count[0], 0) + count[1](args, result)
            return result

        return span

    def install(self) -> None:
        """Wrap every cross-layer binding of a public layer function."""
        modules = {name: importlib.import_module(f"quadprim.{name}") for name in LAYERS}
        public = {f"quadprim.{name}": (name, set(getattr(mod, "__all__", ("main",))))
                  for name, mod in modules.items()}
        for site_name, site in modules.items():
            for attr, obj in list(vars(site).items()):
                owner = public.get(getattr(obj, "__module__", None))
                if (owner is None or owner[0] == site_name or attr not in owner[1]
                        or not callable(obj) or inspect.isclass(obj)
                        or inspect.isgeneratorfunction(inspect.unwrap(obj))):
                    continue
                self._patched.append((site, attr, obj))
                setattr(site, attr, self.wrap(owner[0], attr, obj))

    def uninstall(self) -> None:
        for site, attr, obj in reversed(self._patched):
            setattr(site, attr, obj)
        self._patched.clear()

    def summary(self) -> dict:
        return {"self_s": self.self_s, "calls": self.calls, "fn_s": self.fn_s,
                "fn_max": self.fn_max, "fn_calls": self.fn_calls,
                "counts": self.counts, "spans_s": self.stack[0]}


# -- ffield kernel loop -------------------------------------------------------

# (q, chained mul calls per round): one field per extension degree k.
MUL_KERNELS = ((1021, 200_000), (529, 20_000), (125, 10_000), (81, 6_000))
POW_KERNEL = (125, 1_000)
KERNEL_ROUNDS = 5


def ffield_kernel(build_field, ctx_for_prime_power) -> tuple[dict, list]:
    """Time chained ``mul`` and ``pow`` calls; return (metrics, checks).

    Each check is an (ok, description) pair.  A loop's result must equal an
    independent route to the same element, so a broken ``mul`` or ``pow``
    fails instead of timing fast.  ``a`` is primitive and every chain is
    shorter than q**2 - 1, so a chained product is never 1.
    """
    metrics: dict[str, float] = {}
    checks = []
    for q, n in MUL_KERNELS:
        fld = build_field(ctx_for_prime_power(q))
        mul, a = fld.mul, fld.a
        times = []
        for _ in range(KERNEL_ROUNDS):
            x = fld.one
            t0 = perf_counter()
            for _ in range(n):
                x = mul(x, a)
            times.append(perf_counter() - t0)
        checks.append((x == fld.pow(a, n) and x != fld.one,
                       f"ffield kernel: {n} chained mul on q={q} disagree with pow"))
        metrics[f"ffield.mul_ns.k{fld.k}"] = median(times) / n * 1e9

    q, n = POW_KERNEL
    fld = build_field(ctx_for_prime_power(q))
    powf, a = fld.pow, fld.a
    exponents = [(7919 * i + 104729) % fld.m for i in range(n)]
    times = []
    for _ in range(KERNEL_ROUNDS):
        t0 = perf_counter()
        powers = [powf(a, e) for e in exponents]
        times.append(perf_counter() - t0)
    product = fld.one
    for x in powers:
        product = fld.mul(product, x)
    checks.append((product == fld.pow(a, sum(exponents)),
                   f"ffield kernel: product of {n} pow results on q={q} "
                   f"!= a**(sum of exponents)"))
    metrics[f"ffield.pow_us.k{fld.k}"] = median(times) / n * 1e6
    return metrics, checks
