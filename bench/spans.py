"""Span tracer and the hooks that attach it to `dyadic_cascade`.

Spans are recorded from the benchmark's side only: `install` replaces public
names in the library's modules with wrappers for the duration of a traced job
and `uninstall` puts the originals back.  The library itself is not edited.

A span is (name, start, end, parent), kept in memory and written out when the
benchmark ends.  Self time is a span's duration minus the part of it covered
by its child spans.
"""

from __future__ import annotations

import collections
import functools
import importlib
import time

import numpy as np

PACKAGE = "dyadic_cascade"

#: (module, attribute, span name, kind).  kind "span" records a span around
#: the call; "kernels" also wraps the `rhs`/`rhs_work` methods of every kernel
#: the factory returns; "shooting" also counts calls of the classify callable
#: passed as the first argument.  Names are looked up in the module that
#: calls them (cli imports the solvers by name).
HOOKS = (
    ("cli", "main", "cli.main", "span"),
    ("cli", "build_initial", "cli.build_initial", "span"),
    ("cli", "integrate", "dynamics.integrate", "span"),
    ("cli", "energy_report", "cli.energy_report", "span"),
    ("cli", "balance_residual", "cli.balance_residual", "span"),
    ("cli", "dump_state", "stateio.dump_state", "span"),
    ("cli", "solve_viscous_stationary", "stationary.solve_viscous_stationary", "span"),
    ("cli", "solve_selfsimilar_classic", "selfsimilar.solve_selfsimilar_classic", "span"),
    ("cli", "lift_selfsimilar", "selfsimilar.lift_selfsimilar", "span"),
    ("dynamics", "make_kernel", "dynamics.make_kernel", "kernels"),
    ("stationary", "bisect_shooting", "stationary.bisect_shooting", "shooting"),
    ("selfsimilar", "bisect_shooting", "selfsimilar.bisect_shooting", "shooting"),
)

#: kernel methods wrapped on the objects `make_kernel` returns
KERNEL_METHODS = ("rhs", "rhs_work")
#: hook name recorded as missing when a kernel exposes none of KERNEL_METHODS
KERNEL_METHODS_HOOK = "kernels.rhs"


class Tracer:
    """In-memory span and counter store for one benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.missing: set[str] = set()
        self._stack: list[int] = []

    def span(self, name: str, fn):
        """Wrap fn so that each call records a span called name."""
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        """Wrap fn so that each call increments counts[name]."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def mark(self) -> tuple[int, dict]:
        """Position to slice spans and counters between two points."""
        return len(self.names), dict(self.counts)

    def write(self, path) -> None:
        """Write every span recorded so far as a numpy .npz archive."""
        uniq = sorted(set(self.names))
        index = {n: i for i, n in enumerate(uniq)}
        np.savez(path, names=np.array(uniq, dtype=str),
                 name_id=np.array([index[n] for n in self.names], dtype=np.int32),
                 start_ns=np.array(self.starts, dtype=np.int64),
                 end_ns=np.array(self.ends, dtype=np.int64),
                 parent=np.array(self.parents, dtype=np.int64))


def self_times(starts, ends, parents, first: int = 0, last: int | None = None):
    """Self time (same unit as the inputs) of spans[first:last].

    Parents are global span indices; a parent outside the slice is ignored.
    Overlapping children are merged, so no instant is subtracted twice, and
    children are clipped to their parent's interval.
    """
    last = len(starts) if last is None else last
    children = collections.defaultdict(list)
    for i in range(first, last):
        p = parents[i]
        if first <= p < last:
            children[p].append((starts[i], ends[i]))
    out = []
    for i in range(first, last):
        s, e = starts[i], ends[i]
        covered = 0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, s), min(ce, e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(e - s - covered)
    return out


def _wrap_kernels(tracer: Tracer, make_kernel):
    # no span for the factory itself: building a kernel stays in the caller's
    # self time (integrate, or the reporting functions)
    @functools.wraps(make_kernel)
    def wrapper(*args, **kwargs):
        kernel = make_kernel(*args, **kwargs)
        wrapped = 0
        for meth in KERNEL_METHODS:
            fn = getattr(kernel, meth, None)
            if fn is None:
                continue
            try:
                setattr(kernel, meth, tracer.span(f"kernels.{meth}", fn))
                wrapped += 1
            except AttributeError:  # slotted or immutable kernel object
                pass
        if not wrapped:
            tracer.missing.add(KERNEL_METHODS_HOOK)
        return kernel

    return wrapper


def _wrap_shooting(tracer: Tracer, name: str, bisect):
    layer = name.split(".", 1)[0]
    span = tracer.span(name, bisect)

    @functools.wraps(bisect)
    def wrapper(classify, *args, **kwargs):
        return span(tracer.counted(f"{layer}.classify", classify), *args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> list:
    """Wrap every hook present in the library; record absent ones in
    tracer.missing.  Returns what `uninstall` needs to undo it."""
    undo = []
    for mod_name, attr, name, kind in HOOKS:
        try:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            tracer.missing.add(f"{mod_name}.{attr}")
            continue
        if kind == "kernels":
            wrapped = _wrap_kernels(tracer, original)
        elif kind == "shooting":
            wrapped = _wrap_shooting(tracer, name, original)
        else:
            wrapped = tracer.span(name, original)
        setattr(module, attr, wrapped)
        undo.append((module, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)
