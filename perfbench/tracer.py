"""Spans around the calls that cross zetamoments' module boundaries.

The benchmark records spans from its own files: it replaces, for the length
of one traced round, the public names that each module calls in another
module with wrappers.  A name bound by ``from .zetafn import hardy_z_grid``
is replaced in the importing module; a name called as ``moments.compute_Jk``
is replaced in its defining module.  One function object gets one wrapper,
wherever it is bound, so a call is never recorded twice.

Each span is ``[name, start, end, parent, items]`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (-1 at
top level).  ``items`` is the number of heights a batch call was given.
"""

from __future__ import annotations

import time

import numpy as np

_perf = time.perf_counter


def _n_heights(args, kwargs):
    return int(np.size(args[0] if args else next(iter(kwargs.values()))))


def _n_self_heights(args, kwargs):
    return int(np.size(args[0].gammas))


# (module that calls, attribute, span name, item counter).  Attributes owned
# by the module itself are the names other modules call as ``module.name``.
# Some spans feed no metric of their own; they keep the callers' self times
# (zeros.sweep, campaign.run_campaign) down to the callers' own work.
BOUNDARIES = (
    ("zeros", "hardy_z", "zetafn.hardy_z", None),
    ("zeros", "hardy_z_grid", "zetafn.hardy_z_grid", _n_heights),
    ("zeros", "theta", "zetafn.theta", None),
    ("zeros", "theta_deriv", "zetafn.theta_deriv", None),
    ("zetafn", "em_z_with_deriv", "zetafn.em_z_with_deriv", _n_heights),
    ("moments", "hardy_z_grid", "zetafn.hardy_z_grid", _n_heights),
    ("moments", "zeta", "zetafn.zeta", None),
    ("moments", "zeta_at_heights", "zetafn.zeta_at_heights", _n_heights),
    ("moments", "prime_sum", "primes.prime_sum", None),
    ("moments", "smoothed_sum", "primes.smoothed_sum", None),
    ("moments", "values_at_zeros", "moments.values_at_zeros", None),
    ("moments", "shift_evaluator", "moments.shift_evaluator", None),
    ("moments", "compute_Jk", "moments.compute_Jk", None),
    ("moments", "shifted_moment", "moments.shifted_moment", None),
    ("moments", "large_value_histogram", "moments.large_value_histogram", None),
    ("moments", "dyadic_reconstruction", "moments.dyadic_reconstruction", None),
    ("moments", "cauchy_transfer_report", "moments.cauchy_transfer_report", None),
    ("moments", "continuous_moment", "moments.continuous_moment", None),
    ("moments", "majorant_audit", "moments.majorant_audit", None),
    ("moments", "prime_lambda_difference", "moments.prime_lambda_difference", None),
    ("zerosums", "shared_sieve", "primes.shared_sieve", None),
    ("zerosums", "digamma", "zetafn.digamma", None),
    ("zerosums", "gonek_sum", "zerosums.gonek_sum", None),
    ("zerosums", "mean_square_over_zeros", "zerosums.mean_square_over_zeros", None),
    ("zerosums", "f_sum", "zerosums.f_sum", None),
    ("zerosums", "log_deriv_reconstruction", "zerosums.log_deriv_reconstruction", None),
    ("campaign", "load", "zeros.load", None),
    ("campaign", "count_audit", "zeros.count_audit", None),
    ("campaign", "chi", "zetafn.chi", None),
    ("campaign", "digamma", "zetafn.digamma", None),
    ("campaign", "log_deriv", "zetafn.log_deriv", None),
    ("campaign", "zeta", "zetafn.zeta", None),
)

# Methods of the shift evaluator, which moments builds and campaign drives.
METHODS = (
    ("ZeroShiftEvaluator", "__init__", "zetafn.ZeroShiftEvaluator.build",
     lambda args, kwargs: int(np.size(args[1]))),
    ("ZeroShiftEvaluator", "values", "zetafn.ZeroShiftEvaluator.values",
     _n_self_heights),
)


class Tracer:
    """Span recorder; spans stay in memory until the round ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, items=None):
        """fn wrapped so that every call records one span called name."""
        known = self._wrappers.get(id(fn))
        if known is not None:
            return known
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   items(args, kwargs) if items else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = _perf()
                stack.pop()

        traced.__wrapped__ = fn
        self._wrappers[id(fn)] = traced
        return traced

    def install(self, package) -> None:
        """Wrap every boundary of BOUNDARIES and METHODS in package's modules."""
        for mod_name, attr, span, items in BOUNDARIES:
            module = getattr(package, mod_name)
            self._patch(module, attr, span, items)
        for cls_name, attr, span, items in METHODS:
            self._patch(getattr(package.zetafn, cls_name), attr, span, items)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, span: str, items) -> None:
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(span, original, items))


def calibrate_span_cost(n: int = 200_000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    t0 = _perf()
    for _ in range(n):
        noop()
    bare = _perf() - t0
    t0 = _perf()
    for _ in range(n):
        traced()
    wrapped = _perf() - t0
    return max(wrapped - bare, 0.0) / n


def summarize(spans: list[list]) -> dict:
    """Per-name totals: calls, inclusive seconds, self seconds and items.

    Self time is a span's duration minus the durations of its direct
    children, whose intervals lie inside it.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, items) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "items": 0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[i]
        row["items"] += items
    return out


def values_hit_ratio(spans: list[list]) -> tuple[int, float]:
    """(values_at_zeros calls, share answered without a zeta_at_heights call)."""
    calls = [i for i, s in enumerate(spans) if s[0] == "moments.values_at_zeros"]
    computed = {s[3] for s in spans if s[0] == "zetafn.zeta_at_heights"}
    if not calls:
        return 0, 0.0
    misses = sum(i in computed for i in calls)
    return len(calls), 1.0 - misses / len(calls)
