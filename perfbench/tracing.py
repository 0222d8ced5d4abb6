"""The traced run: wrappers at the layer boundaries, spans and counters.

Each layer is one ``motivic_kit`` module.  `Tracer.install` replaces every
public function of a layer in every module namespace that binds it (the
modules use ``from .qlinalg import matmul``), and wraps ``__init__`` and a
few hot methods on the classes themselves.  Nothing under ``src/`` changes,
and `Tracer.uninstall` puts every original back.

Every wrapped call is counted.  A span (name, start, end, parent span, task
id) is recorded only when the caller's layer differs from the callee's, so
span memory grows with boundary crossings, not with calls.  Spans stay in
flat arrays until the run ends and `write_spans` stores them.
"""

from __future__ import annotations

import collections
import functools
import gzip
import inspect
import sys
import time
import types
from array import array

PACKAGE = "motivic_kit"
LAYERS = ("cli", "qlinalg", "finsets", "artin", "galois", "resolution",
          "monad", "hypercube")
BENCH = "bench"  # layer 0: the benchmark's own code, root of every task
# Methods traced besides module functions and constructors.
METHODS = {"FinDiagram": ("relabel",), "ChainComplex": ("homology_dims",)}


def _shape_work(key, size):
    def hook(tracer, args, result):
        tracer.work[key] += size(*args)
    return hook


def _result_work(key, size):
    def hook(tracer, args, result):
        tracer.work[key] += size(result)
    return hook


def _distinct_classes(tracer, args, result):
    tracer.classes.add((tracer.task, result))


def _hooks(*hooks):
    def hook(tracer, args, result):
        for h in hooks:
            h(tracer, args, result)
    return hook


# Work counters derived from argument shapes or results ("computed").
HOOKS = {
    "qlinalg.matmul": _shape_work(
        "qlinalg.matmul.madds", lambda a, b: a.rows * a.cols * b.cols),
    "qlinalg.kron": _shape_work(
        "qlinalg.kron.out_entries",
        lambda a, b: a.rows * b.rows * a.cols * b.cols),
    "qlinalg.rank": _shape_work("qlinalg.elim.cells", lambda a: a.rows * a.cols),
    "qlinalg.kernel_basis": _shape_work(
        "qlinalg.elim.cells", lambda a: a.rows * a.cols),
    "qlinalg.QMatrix.__init__": _shape_work(
        "qlinalg.QMatrix.entries", lambda self, rows, cols, entries: rows * cols),
    "artin.solve_coalgebra_morphisms": _hooks(
        _shape_work("artin.solve.candidates", lambda x, y: y.size ** x.size),
        _result_work("artin.solve.returned", len)),
    "resolution.equalizer": _hooks(
        _shape_work("resolution.equalizer.candidates",
                    lambda x, y, bound=2: x.size ** y.size),
        _result_work("resolution.equalizer.accepted", len)),
    "hypercube.punctured_cube_hocolim": _result_work(
        "hypercube.total_dim", lambda c: sum(c.dims.values())),
    "finsets.canonical_form": _distinct_classes,
}


class Tracer:
    """Counters and spans of one traced run; owns the installed wrappers."""

    def __init__(self):
        self.layer_ids = {BENCH: 0}
        self.layer_ids.update({name: i + 1 for i, name in enumerate(LAYERS)})
        self.names = []        # "layer.qualname" per wrapped callable
        self.index = {}        # name -> position in `names`
        self.name_layer = []   # layer id per wrapped callable
        self.calls = []        # call count per wrapped callable
        self.errors = [0] * len(self.layer_ids)
        self.work = collections.Counter()  # HOOKS keys -> computed work
        self.classes = set()   # (task, canonical form) pairs
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.layer_stack = [0]
        self.span_stack = [-1]
        self.task = -1
        self._restore = []

    # --- installing ---------------------------------------------------------

    def install(self):
        """Wrap every layer's public callables and constructors."""
        wrapped = {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (isinstance(obj, types.FunctionType)
                        and not attr.startswith("_")):
                    layer = self._layer_of(obj.__module__)
                    if layer is None:
                        continue
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = self._wrap(
                            obj, f"{layer}.{obj.__name__}", layer)
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])
                elif (isinstance(obj, type) and obj.__module__ == module.__name__
                      and self._layer_of(module.__name__) is not None):
                    layer = self._layer_of(module.__name__)
                    for meth in ("__init__",) + METHODS.get(obj.__name__, ()):
                        fn = obj.__dict__.get(meth)
                        if isinstance(fn, types.FunctionType):
                            self._restore.append((obj, meth, fn))
                            setattr(obj, meth, self._wrap(
                                fn, f"{layer}.{obj.__name__}.{meth}", layer))

    def uninstall(self):
        """Put back every original callable, in reverse order."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _layer_of(self, module_name):
        parts = module_name.split(".")
        if len(parts) == 2 and parts[0] == PACKAGE and parts[1] in LAYERS:
            return parts[1]
        return None

    def _wrap(self, fn, name, layer_name):
        name_id = len(self.names)
        layer = self.layer_ids[layer_name]
        self.index[name] = name_id
        self.names.append(name)
        self.name_layer.append(layer)
        self.calls.append(0)
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            # the work happens while the caller iterates: count only
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                calls[name_id] += 1
                return fn(*args, **kwargs)
            return counting

        hook = HOOKS.get(name)
        layer_stack, span_stack = self.layer_stack, self.span_stack
        names, parents = self.span_name, self.span_parent
        tasks, starts, ends = self.span_task, self.span_start, self.span_end
        errors = self.errors
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name_id] += 1
            if layer_stack[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                idx = len(starts)
                names.append(name_id)
                parents.append(span_stack[-1])
                tasks.append(tracer.task)
                layer_stack.append(layer)
                span_stack.append(idx)
                ends.append(0.0)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    errors[layer] += 1
                    raise
                finally:
                    ends[idx] = clock()
                    layer_stack.pop()
                    span_stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result
        return wrapper

    # --- reading ------------------------------------------------------------

    def count(self, *names):
        """Total calls of the named callables ("layer.qualname")."""
        return sum(self.calls[self.index[n]] for n in names if n in self.index)

    def self_times(self):
        """Per layer: span time minus the time its direct child spans cover."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = [0.0] * len(self.layer_ids)
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            out[self.name_layer[self.span_name[i]]] += dur - child[i]
        return {name: out[i] for name, i in self.layer_ids.items()}

    def child_span_count(self, child_name, parent_layer):
        """Spans of `child_name` whose parent span belongs to `parent_layer`."""
        if child_name not in self.index:
            return 0
        target, want = self.index[child_name], self.layer_ids[parent_layer]
        return sum(1 for i in range(len(self.span_name))
                   if self.span_name[i] == target and self.span_parent[i] >= 0
                   and self.name_layer[self.span_name[self.span_parent[i]]]
                   == want)

    def write_spans(self, path):
        """Store the spans as gzip CSV: name, layer, start, end, parent, task."""
        layer_names = {i: n for n, i in self.layer_ids.items()}
        with gzip.open(path, "wt") as fh:
            fh.write("name,layer,start_s,end_s,parent,task\n")
            for i in range(len(self.span_start)):
                k = self.span_name[i]
                fh.write(f"{self.names[k]},{layer_names[self.name_layer[k]]},"
                         f"{self.span_start[i]!r},{self.span_end[i]!r},"
                         f"{self.span_parent[i]},{self.span_task[i]}\n")


def _ratio(num, den):
    return num / den if den else 0.0


def _per_layer_table():
    """(metric, unit, reader(tracer, self times by layer)) in report order."""
    rows = []

    def add(name, unit, read):
        rows.append((name, unit, read))

    def calls(*names):
        return lambda t, e: t.count(*names)

    def work(key):
        return lambda t, e: t.work[key]

    for layer in LAYERS:
        add(f"{layer}.self_s", "s",
            lambda t, e, layer=layer: e[layer])
        add(f"{layer}.errors", "count",
            lambda t, e, layer=layer: t.errors[t.layer_ids[layer]])
    add("cli.main.calls", "count", calls("cli.main"))
    add("qlinalg.matmul.calls", "count", calls("qlinalg.matmul"))
    add("qlinalg.matmul.madds", "count-computed", work("qlinalg.matmul.madds"))
    add("qlinalg.kron.calls", "count", calls("qlinalg.kron"))
    add("qlinalg.kron.out_entries", "count-computed",
        work("qlinalg.kron.out_entries"))
    add("qlinalg.rank.calls", "count", calls("qlinalg.rank"))
    add("qlinalg.elim.cells", "count-computed", work("qlinalg.elim.cells"))
    add("qlinalg.QMatrix.constructed", "count",
        calls("qlinalg.QMatrix.__init__"))
    add("qlinalg.QMatrix.entries", "count-computed",
        work("qlinalg.QMatrix.entries"))
    add("qlinalg.ChainComplex.constructed", "count",
        calls("qlinalg.ChainComplex.__init__"))
    add("finsets.relabel.calls", "count", calls("finsets.FinDiagram.relabel"))
    add("finsets.canonical_form.calls", "count",
        calls("finsets.canonical_form"))
    add("finsets.automorphisms.calls", "count", calls("finsets.automorphisms"))
    add("finsets.automorphism_group.calls", "count",
        calls("finsets.automorphism_group"))
    add("finsets.classes_per_canonicalised", "ratio",
        lambda t, e: _ratio(len(t.classes), t.count("finsets.canonical_form")))
    add("artin.solve.calls", "count", calls("artin.solve_coalgebra_morphisms"))
    add("artin.solve.candidates", "count-computed",
        work("artin.solve.candidates"))
    add("artin.solve.returned", "count", work("artin.solve.returned"))
    add("artin.check.calls", "count",
        calls("artin.coalgebra_morphism_violations"))
    add("artin.checks_per_morphism", "ratio",
        lambda t, e: _ratio(t.count("artin.coalgebra_morphism_violations"),
                            t.work["artin.solve.returned"]))
    add("artin.artin_comonoid.calls", "count", calls("artin.artin_comonoid"))
    add("artin.CoalgMorphism.constructed", "count",
        calls("artin.CoalgMorphism.__init__"))
    add("galois.fixed.calls", "count", calls("galois.fixed_coalgebra_morphisms"))
    add("galois.equivariant.calls", "count",
        calls("galois.equivariant_set_maps"))
    add("galois.GSet.constructed", "count", calls("galois.GSet.__init__"))
    add("galois.matmul.calls", "count",
        lambda t, e: t.child_span_count("qlinalg.matmul", "galois"))
    add("resolution.equalizer.calls", "count", calls("resolution.equalizer"))
    add("resolution.equalizer.candidates", "count-computed",
        work("resolution.equalizer.candidates"))
    add("resolution.equalizer.accepted", "count",
        work("resolution.equalizer.accepted"))
    add("resolution.coface.calls", "count",
        calls("resolution.coface_d0", "resolution.coface_d1",
              "resolution.level2_coface_d0", "resolution.level2_coface_d1",
              "resolution.level2_coface_d2"))
    add("resolution.mult_along.calls", "count", calls("resolution.mult_along"))
    add("monad.verify.calls", "count", calls("monad.verify_m_identity"))
    add("monad.assemble.calls", "count", calls("monad.assemble"))
    add("monad.wreath_order.calls", "count", calls("monad.wreath_order"))
    add("hypercube.total.calls", "count",
        calls("hypercube.punctured_cube_hocolim"))
    add("hypercube.ks.calls", "count", calls("hypercube.ks_hocolim"))
    add("hypercube.total_dim", "count-computed", work("hypercube.total_dim"))
    add("hypercube.CubeDiagram.constructed", "count",
        calls("hypercube.CubeDiagram.__init__"))
    add("hypercube.ChainMap.constructed", "count",
        calls("hypercube.ChainMap.__init__"))
    add("trace.spans", "count", lambda t, e: len(t.span_start))
    return rows


PER_LAYER = _per_layer_table()


def per_layer_metrics(tracer):
    """Every per-layer metric as {name: {"value": v, "unit": u}}."""
    self_times = tracer.self_times()
    return {name: {"value": read(tracer, self_times), "unit": unit}
            for name, unit, read in PER_LAYER}
