"""In-memory span tracer that wraps bubblelab's public functions from outside.

``Tracer.install`` replaces every public function defined in the seven
layer modules (and the ``ReducedEnergyModel`` constructor) with a wrapper
that records a span ``(op, span_id, parent_id, name, t0, t1)``, and rebinds
the wrapper in every bubblelab module that imported the function by name
(``cli.rate_sweep`` and ``solver.rate_sweep``, ``solver.critical_point``
and ``energy.critical_point``, ...).  ``uninstall`` restores the originals.

Scalar integrand kernels that quadrature calls millions of times are only
counted, not timed, so the trace stays small: their time stays in the self
time of the span that called them.

The guard fails loudly (``TraceGuardError``) when a function named in
``required`` (the ones the per-layer metrics read) no longer exists, or
when an importing module binds one of the wrapped names to a different
object, so a refactor cannot silently drop a layer's spans.
"""

import functools
import importlib
import sys
import time
import types
from collections import defaultdict

PACKAGE = "bubblelab"
LAYERS = ("cli", "asymptotics", "solver", "energy", "coupling", "greens", "bubbles")

# classes whose construction is a layer operation (b1/b2 quadrature)
CONSTRUCTORS = {"energy.ReducedEnergyModel"}

# called once per integrand evaluation: counted only
COUNT_ONLY = {"asymptotics.radial_profile", "bubbles.bubble_eval"}


class TraceGuardError(RuntimeError):
    """A traced name is missing or bound to an unexpected object."""


def _newton_counts(result, counts):
    """Counters read off a solver.solve_radial result."""
    iters = result.report.iterations
    counts["solver.newton_iters"] += iters
    counts["solver.node_iters"] += iters * len(result.grid.nodes)


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                and obj.__module__ == module.__name__):
            yield attr, obj


class Tracer:
    """Single-threaded span recorder; spans stay in memory until read."""

    def __init__(self, required=()):
        self.required = tuple(required)   # names that must exist and be wrapped
        self.spans = []                  # (op, span_id, parent_id, name, t0, t1)
        self.counts = defaultdict(int)   # count-only calls and result counters
        self.op = None
        self._stack = [0]
        self._next_id = 1
        self._undo = []                  # (owner, attr, original) to restore

    # ---------------------------------------------------------- wrappers

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = _newton_counts if name == "solver.solve_radial" else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((self.op, sid, parent, name, t0, t1))
            if hook is not None:
                hook(result, self.counts)
            return result

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------ install/guard

    def _modules(self):
        layers = {
            layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        }
        importers = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        return layers, importers

    def install(self):
        """Wrap and rebind every public function; raise TraceGuardError
        when the bindings are not what the per-layer metrics assume."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        layers, importers = self._modules()
        wrapped = {}    # id(original) -> (name, wrapper)
        for layer, module in layers.items():
            for attr, fn in _public_functions(module):
                name = f"{layer}.{attr}"
                make = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
                wrapped[id(fn)] = (name, make(name, fn))
        names = {name for name, _ in wrapped.values()}
        for name in sorted(CONSTRUCTORS):
            layer, attr = name.split(".")
            cls = getattr(layers[layer], attr, None)
            if isinstance(cls, type):
                self._undo.append((cls, "__init__", cls.__dict__["__init__"]))
                cls.__init__ = self._span_wrapper(name, cls.__init__)
                names.add(name)
        missing = [name for name in self.required if name not in names]
        if missing:
            self.uninstall()
            raise TraceGuardError(
                "traced functions no longer exist: " + ", ".join(missing)
            )
        by_attr = {name.split(".")[1]: name for name, _ in wrapped.values()}
        try:
            for module in importers:
                for attr, obj in list(vars(module).items()):
                    hit = wrapped.get(id(obj))
                    if hit is not None:
                        self._undo.append((module, attr, obj))
                        setattr(module, attr, hit[1])
                    elif attr in by_attr and callable(obj) and not isinstance(obj, type):
                        raise TraceGuardError(
                            f"{module.__name__}.{attr} is bound to {obj!r}, "
                            f"not to {PACKAGE}.{by_attr[attr]}"
                        )
                    else:
                        self._check_container(module, attr, obj, wrapped)
        except TraceGuardError:
            self.uninstall()
            raise
        return self

    @staticmethod
    def _check_container(module, attr, obj, wrapped):
        """A function stored inside a module-level table would keep
        calling the unwrapped original."""
        if isinstance(obj, dict):
            items = obj.values()
        elif isinstance(obj, (list, tuple)):
            items = obj
        else:
            return
        for item in items:
            if id(item) in wrapped:
                raise TraceGuardError(
                    f"{module.__name__}.{attr} holds {wrapped[id(item)][0]} "
                    "in a table the tracer cannot rebind"
                )

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


# ------------------------------------------------------------ aggregation


def span_table(spans):
    """Per-name (calls, inclusive seconds, self seconds).

    Self time is a span's duration minus its children's durations;
    inclusive time counts only the outermost span of a name on a call
    chain, so recursion is not counted twice.
    """
    children = defaultdict(float)
    for _op, _sid, parent, _name, t0, t1 in spans:
        children[parent] += t1 - t0
    by_id = {sid: (parent, name) for _op, sid, parent, name, _t0, _t1 in spans}
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for _op, sid, parent, name, t0, t1 in spans:
        row = table[name]
        row[0] += 1
        row[2] += (t1 - t0) - children[sid]
        ancestor = parent
        while ancestor in by_id and by_id[ancestor][1] != name:
            ancestor = by_id[ancestor][0]
        if ancestor not in by_id:
            row[1] += t1 - t0
    return {name: tuple(row) for name, row in table.items()}


def write_spans(path, spans):
    """Write the spans once, as CSV, relative to the first span's start."""
    base = spans[0][4] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("op,span,parent,name,start_s,end_s\n")
        for op, sid, parent, name, t0, t1 in spans:
            fh.write(f"{op},{sid},{parent},{name},{t0 - base:.9f},{t1 - base:.9f}\n")
