"""Spans around the library's public functions, recorded from outside it.

:meth:`Tracer.install` replaces every public module-level function of the
layer modules (``matrices``, ``circuits``, ``synthesis``, ``exact``,
``bounds``, ``lab``) by a wrapper, in every ``lincirc`` namespace that binds
it: the modules import each other's functions by name, and ``exact``
reaches ``synthesis`` through a module attribute, so patching only the
defining module would miss most calls.  Methods are left alone
(``BitMatrix.row`` runs about 10^5 times per separation trial), and so is
``rng``: its time lands in the ``matrices.gen_random`` and ``lab`` spans
that call it.

A span records its name, start, end, parent span and request.  A layer's
self time is its span time minus the time of its child spans.  Counts are
taken at the same boundaries from the arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("matrices", "circuits", "synthesis", "exact", "bounds", "lab")
SYNTHESIS_OUTPUTS = (
    "naive_rowwise",
    "paar_greedy",
    "boyar_peralta",
    "lupanov",
    "lupanov_depth2",
    "product_circuit",
)


def _gates(circuit) -> int:
    return circuit.n_gates if hasattr(circuit, "layers") else len(circuit.gates)


def _count_hooks() -> dict:
    """Span name -> function(counters, args, result) adding its counts."""

    def nodes(counters, args, out):
        counters["exact.nodes_expanded"] += out.nodes_expanded

    def gates_out(counters, args, res):
        counters["synthesis.gates_out"] += _gates(res.circuit)

    def verify_gates(counters, args, ok):
        counters["circuits.verify.gates"] += len(args[0].gates)

    def slp_bytes(counters, args, text):
        counters["circuits.slp_bytes"] += len(text.encode())

    def witness(counters, args, found):
        counters["matrices.find_allones_submatrix.hits"] += found is not None

    def evidence(counters, args, status):
        counters["bounds.kfree.evidence"] += status.kind == "evidence-free"

    hooks = {f"synthesis.{name}": gates_out for name in SYNTHESIS_OUTPUTS}
    hooks.update(
        {
            "exact.optimal_size": nodes,
            "circuits.verify": verify_gates,
            "circuits.slp_dumps": slp_bytes,
            "matrices.find_allones_submatrix": witness,
            "bounds.kfree_quantity": evidence,
        }
    )
    return hooks


class Tracer:
    """In-memory span recorder; records only while ``active``."""

    def __init__(self):
        self.active = False
        self.request = None  # label of the request in flight
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, request)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [span id, child time] of open spans
        self._patched: list[tuple] = []  # (namespace, attribute, original)
        self._hooks = _count_hooks()

    def install(self) -> None:
        """Wrap every public function of the layer modules, in every
        ``lincirc`` namespace that binds it."""
        names = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"lincirc.{layer}")
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    names[fn] = f"{layer}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "lincirc" and not modname.startswith("lincirc."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    self._patched.append((mod, attr, val))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @contextmanager
    def paused(self):
        """Calls made inside (result checks) are not recorded."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, name: str, fn):
        tracer = self
        hook = self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = len(tracer.spans)
            tracer.spans.append(None)  # reserve the id; filled in on exit
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                tracer.spans[span_id] = (
                    span_id, name, start, end,
                    None if parent is None else parent[0], tracer.request,
                )
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
            if hook is not None:
                hook(tracer.counters, args, out)
            return out

        return span

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, request in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "request": request}
                    )
                    + "\n"
                )
