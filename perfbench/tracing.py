"""Outside-in span tracer for the qeuler layers.

``install()`` wraps, at run time, the functions and methods it lists
and changes nothing under ``src/``.  The package's modules
bind each other's names with ``from ... import``, so a wrapper replaces
the original wherever it is bound: in every ``qeuler`` module namespace
and on every qeuler class (which also catches aliases such as
``RatFunc.__radd__ = __add__``).  A listed name that a later version of
the package no longer has is skipped and reported under ``missing``.

Each call of a wrapped function is one span: its name, start, end and
the span that was open when it began (its parent).  Spans are kept in
flat arrays in memory and written out by ``write_spans`` after the run.
A span's self time is its duration minus the durations of its child
spans; work in functions that are not wrapped stays in the self time
of the nearest wrapped caller.  ``total_s`` sums only the outermost span
of each name, so a name nested in itself is not counted twice.

A few spans carry a hook that counts something at the return of the
call (gcd results of positive degree, cache hits, coefficient sizes,
summed p-adic terms).  A hook runs after the span's end timestamp and
its time is removed from the parent's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

clock = time.perf_counter


def _bits(value: object) -> int:
    num = getattr(value, "numerator", None)
    if num is None:
        return 0
    return max(num.bit_length(), value.denominator.bit_length())


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.hook_time = array("d")
        self.outermost = bytearray()
        self._stack = [-1]
        self._active: list[int] = []
        self.missing: list[str] = []
        self.gcd_nontrivial = 0
        self.number_hits = 0
        self.max_index = 0
        self.max_coeff_bits = 0
        self.padic_terms = 0
        self._computed_up_to: dict[int, int] = {}
        self._witt_signature: inspect.Signature | None = None

    def declare(self, name: str) -> int:
        """Give a span name its id; a declared name reports zeros if unused."""
        self.names.append(name)
        self._active.append(0)
        return len(self.names) - 1

    def wrap(self, name: str, fn, after=None):
        nid = self.declare(name)
        name_of, parent_of = self.name_of, self.parent_of
        starts, ends, hook_time = self.starts, self.ends, self.hook_time
        outermost, stack, active = self.outermost, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_of.append(nid)
            parent_of.append(stack[-1])
            ends.append(0.0)
            hook_time.append(0.0)
            outermost.append(active[nid] == 0)
            active[nid] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                active[nid] -= 1
            if after is not None:
                after(args, kwargs, result)
                if stack[-1] >= 0:
                    hook_time[stack[-1]] += clock() - ends[idx]
            return result

        return traced

    # -- hooks ---------------------------------------------------------------

    def after_gcd(self, args, kwargs, result) -> None:
        if result.degree > 0:
            self.gcd_nontrivial += 1

    def after_canon(self, args, kwargs, result) -> None:
        value = args[0]
        for part in (value.num, value.den):
            for c in getattr(part, "coeffs", ()):
                bits = _bits(c)
                if bits > self.max_coeff_bits:
                    self.max_coeff_bits = bits

    def after_index(self, args, kwargs, result) -> None:
        n = args[1] if len(args) > 1 else kwargs.get("n", 0)
        self.max_index = max(self.max_index, n)

    def after_number(self, args, kwargs, result) -> None:
        # number(n) computes every index up to n, so a call is a hit when
        # an earlier call on the same cache already reached n.
        n = args[1] if len(args) > 1 else kwargs.get("n", 0)
        key = id(args[0])
        reached = self._computed_up_to.get(key, -1)
        if n <= reached:
            self.number_hits += 1
        else:
            self._computed_up_to[key] = n
        self.max_index = max(self.max_index, n)

    def after_witt(self, args, kwargs, result) -> None:
        bound = self._witt_signature.bind(*args, **kwargs).arguments
        self.padic_terms += bound["p"] ** bound["N_max"]

    # -- results -------------------------------------------------------------

    def _per_name(self) -> dict[str, dict[str, float]]:
        count = len(self.starts)
        child_time = array("d", bytes(8 * count))
        starts, ends, parent_of = self.starts, self.ends, self.parent_of
        for i in range(count):
            parent = parent_of[i]
            if parent >= 0:
                child_time[parent] += ends[i] - starts[i]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for name in self.names}
        for i in range(count):
            entry = stats[self.names[self.name_of[i]]]
            duration = ends[i] - starts[i]
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[i] - self.hook_time[i]
            if self.outermost[i]:
                entry["total_s"] += duration
        return stats

    def summary(self) -> dict:
        stats = self._per_name()
        out: dict[str, float] = {}
        for name, entry in stats.items():
            for key, value in entry.items():
                out[f"{name}.{key}"] = value
        gcd_calls = stats["exactalg.poly_gcd"]["calls"]
        number_calls = stats["euler.number"]["calls"]
        witt_self = stats["padic.witt_convergence_check"]["self_s"]
        out["exactalg.poly_gcd.nontrivial_ratio"] = (
            self.gcd_nontrivial / gcd_calls if gcd_calls else 0.0)
        out["exactalg.max_coeff_bits"] = self.max_coeff_bits
        out["euler.number.hit_ratio"] = (
            self.number_hits / number_calls if number_calls else 0.0)
        out["euler.max_index"] = self.max_index
        out["padic.terms"] = self.padic_terms
        out["padic.terms_per_s"] = (
            self.padic_terms / witt_self if witt_self > 0 else 0.0)
        out["spans"] = len(self.starts)
        out["missing"] = self.missing
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as a tab-separated line, times relative to the first."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.starts)):
                handle.write(
                    f"{i}\t{self.names[self.name_of[i]]}\t{self.parent_of[i]}"
                    f"\t{self.starts[i] - origin:.9f}"
                    f"\t{self.ends[i] - origin:.9f}\n")


def install() -> Tracer:
    """Wrap every listed qeuler function and method; return the tracer."""
    from qeuler import bernstein, cli, euler, exactalg, identities, padic

    tracer = Tracer()
    spans = (
        (cli, "main", "cli", None),
        (identities, "run_suite", "identities.run_suite", None),
        (identities, "verify_identity", "identities.verify_identity", None),
        (identities, "moment_reduce", "identities.moment_reduce", None),
        (bernstein, "bernstein_basis", "bernstein.basis", None),
        (euler, "table_rows", "euler.table_rows", None),
        (euler, "euler_poly_q", "euler.poly", None),
        (euler.EulerCache, "number", "euler.number", tracer.after_number),
        (euler.EulerCache, "number_inverse", "euler.number_inverse",
         tracer.after_index),
        (euler.EulerCache, "frobenius", "euler.frobenius", tracer.after_index),
        (exactalg.RatFunc, "__init__", "exactalg.ratfunc_canon",
         tracer.after_canon),
        (exactalg.RatFunc, "__add__", "exactalg.ratfunc_add", None),
        (exactalg.RatFunc, "__mul__", "exactalg.ratfunc_mul", None),
        (exactalg, "poly_gcd", "exactalg.poly_gcd", tracer.after_gcd),
        (exactalg.PolyQ, "__mul__", "exactalg.polyq_mul", None),
        (exactalg.PolyQ, "__divmod__", "exactalg.polyq_divmod", None),
        (exactalg.XPoly, "__mul__", "exactalg.xpoly_mul", None),
        (padic, "witt_convergence_check", "padic.witt_convergence_check",
         tracer.after_witt),
        (padic, "padic_from_rational", "padic.padic_from_rational", None),
    )
    modules = [module for name, module in sorted(sys.modules.items())
               if name == "qeuler" or name.startswith("qeuler.")]
    classes = {value for module in modules for value in vars(module).values()
               if inspect.isclass(value)
               and value.__module__.startswith("qeuler")}
    scopes = modules + sorted(classes, key=lambda cls: cls.__qualname__)
    for owner, attr, name, after in spans:
        original = vars(owner).get(attr)
        if original is None:
            tracer.missing.append(name)
            tracer.declare(name)
            continue
        if name == "padic.witt_convergence_check":
            tracer._witt_signature = inspect.signature(original)
        wrapper = tracer.wrap(name, original, after)
        for scope in scopes:
            for key, value in list(vars(scope).items()):
                if value is original:
                    setattr(scope, key, wrapper)
    return tracer
