"""Spans around the calls into each layer of ``krausblocks``, recorded from
outside the package.

``Tracer.installed()`` wraps, for the duration of a ``with`` block:

- every public function of each module (the names in ``krausblocks.__all__``
  plus the public functions of ``serialize`` and ``cli``), patched in every
  ``krausblocks`` module that holds a reference to it, so calls between
  modules and inside the defining module are both seen;
- the ``KrausChannel`` methods, on the class;
- the CLI verb handlers, as spans named ``cli.<verb>``;
- the kernel: ``numpy.linalg.eigh``/``eigvalsh`` and ``svd``.

Spans are kept in memory as ``(name, start, end, parent)`` tuples and are
written out only after the traced round. A span's self time is its duration
minus the durations of its children; calls are strictly nested, so children
never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import time

LAYERS = ("cli", "serialize", "channel", "linalg", "fixed_points", "decomposition",
          "measurement", "capacity")
VERBS = ("validate", "decompose", "fixed-states", "check-measurement", "match", "restrict",
         "capacity")
KRAUS_METHODS = ("apply", "adjoint", "superoperator_matrix", "remix", "from_kraus")
KERNEL = {"eigh": "kernel.eigh", "eigvalsh": "kernel.eigvalsh", "svd": "kernel.svd"}
PARSE = ("serialize.parse_channel_ops", "serialize.parse_measurement", "serialize.parse_operator")
EMIT = ("serialize.dumps_report", "serialize.matrix_to_wire", "serialize.channel_to_document",
        "serialize.tolerances_to_document")


def _public_functions(package, module):
    """Functions a layer exposes: exported by the package, or, for the
    modules the package does not re-export, every public function."""
    exported = set(package.__all__)
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != module.__name__:
            continue
        if module.__name__.endswith((".serialize", ".cli")) or name in exported:
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack = [-1]
        self.bytes_in = 0
        self.bytes_out = 0
        self.null_space_max_mb = 0.0

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, on_call=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)

        return traced

    def _hook(self, name):
        """Counters recorded from a call's arguments, where the layer has them."""
        if name in PARSE:
            def count_in(args):
                data = args[0]
                self.bytes_in += len(data.encode() if isinstance(data, str) else data)
            return count_in
        if name == "linalg.null_space":
            def input_size(args):
                rows, cols = args[0].shape
                self.null_space_max_mb = max(self.null_space_max_mb, rows * cols * 16 / 1e6)
            return input_size
        return None

    def _count_out(self, dumps):
        """Count the report bytes the CLI emits (the call itself is already traced)."""
        @functools.wraps(dumps)
        def counted(obj):
            text = dumps(obj)
            self.bytes_out += len(text.encode())
            return text

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch the wrappers in, and restore every original on exit."""
        import numpy.linalg

        package = importlib.import_module("krausblocks")
        modules = [package] + [importlib.import_module(f"krausblocks.{m}") for m in LAYERS]
        undo = []

        def patch(owner, attr, value):
            undo.append((owner, attr, getattr(owner, attr) if not inspect.isclass(owner)
                         else vars(owner)[attr]))
            setattr(owner, attr, value)

        for module in modules[1:]:
            layer = module.__name__.rsplit(".", 1)[1]
            for fname, fn in list(_public_functions(package, module)):
                name = f"{layer}.{fname}"
                wrapped = self.wrap(name, fn, self._hook(name))
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            patch(holder, attr, wrapped)

        cls = importlib.import_module("krausblocks.channel").KrausChannel
        for meth in KRAUS_METHODS:
            raw = vars(cls)[meth]
            if isinstance(raw, classmethod):
                patch(cls, meth, classmethod(self.wrap(f"channel.{meth}", raw.__func__)))
            else:
                patch(cls, meth, self.wrap(f"channel.{meth}", raw))

        cli = importlib.import_module("krausblocks.cli")
        patch(cli, "dumps_report", self._count_out(cli.dumps_report))
        handlers = dict(cli._HANDLERS)
        for verb, handler in handlers.items():
            cli._HANDLERS[verb] = self.wrap(f"cli.{verb}", handler)

        for attr, name in KERNEL.items():
            patch(numpy.linalg, attr, self.wrap(name, getattr(numpy.linalg, attr)))
        try:
            yield self
        finally:
            cli._HANDLERS.update(handlers)
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    # -- aggregation --------------------------------------------------------

    def _totals(self):
        """Per span name: calls, inclusive seconds (outermost spans only) and
        self seconds; per layer: self seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, incl, self_s, layer_self = {}, {}, {}, {}
        for i, (name, t0, t1, parent) in enumerate(spans):
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + dur - child[i]
            # inclusive time counts a call once even when it nests in itself
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] = incl.get(name, 0.0) + dur
        return calls, incl, self_s, layer_self

    def _top_level(self, names) -> float:
        """Seconds in the named spans that no other serialize span encloses."""
        total = 0.0
        for name, t0, t1, parent in self.spans:
            if name in names and (parent < 0 or not self.spans[parent][0].startswith("serialize.")):
                total += t1 - t0
        return total

    def metrics(self) -> dict[str, float]:
        """The traced per-layer metrics, by name (see BENCHMARK.json)."""
        calls, incl, self_s, layer_self = self._totals()

        def n(name):
            return calls.get(name, 0)

        def s(name):
            return incl.get(name, 0.0)

        out = {
            "cli.self_s": layer_self.get("cli", 0.0),
            "serialize.parse_s": self._top_level(PARSE),
            "serialize.emit_s": self._top_level(EMIT),
            "serialize.bytes_in": self.bytes_in,
            "serialize.bytes_out": self.bytes_out,
            "linalg.null_space.max_input_mb": self.null_space_max_mb,
            "fixed_points.commutant_basis.self_s": self_s.get("fixed_points.commutant_basis", 0.0),
            "kernel.eigh.calls": n("kernel.eigh") + n("kernel.eigvalsh"),
            "kernel.eigh.s": s("kernel.eigh") + s("kernel.eigvalsh"),
        }
        for name in ("channel.validate_kraus", "channel.apply", "channel.superoperator_matrix",
                     "linalg.null_space", "linalg.hermitian_eig", "fixed_points.commutant_basis",
                     "decomposition.iris_decompose", "decomposition.restrict",
                     "capacity.exchange_matrix", "kernel.svd"):
            out[f"{name}.calls"] = n(name)
            out[f"{name}.s"] = s(name)
        for name in ("channel.adjoint", "decomposition.is_invariant_subspace",
                     "measurement.povm_structural_decomposition"):
            out[f"{name}.calls"] = n(name)
        for name in ("fixed_points.classify_fixed_state", "measurement.measurement_preserved",
                     "measurement.projection_intertwines", "measurement.channels_commute",
                     "capacity.min_output_renyi", "capacity.ent_assisted_capacity",
                     "capacity.coherent_information"):
            out[f"{name}.s"] = s(name)
        return out

    def write(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def verb_latency_p50(verbs: list[str], latencies: list[list[float]]) -> dict[str, float]:
    """``cli.<verb>.p50_s`` from the untraced per-operation latencies."""
    by_verb: dict[str, list[float]] = {}
    for verb, lat in zip(verbs, latencies):
        by_verb.setdefault(verb, []).extend(lat)
    return {f"cli.{v}.p50_s": statistics.median(by_verb[v]) for v in VERBS}
