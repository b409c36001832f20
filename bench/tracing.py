"""Per-layer tracing from outside the program.

``install(tracer)`` replaces chosen public functions and methods of
``cstarseq`` with wrappers that record a span (name, start, end, parent) per
call.  A function is replaced in every ``cstarseq`` module that binds it, so
callers that imported it by name (``reporting`` imports the engines, ``cli``
imports ``run``) go through the wrapper too.  A direct recursive call of the
same function (``stable_dumps``) is folded into the outer span.

A layer's self time is its spans' durations minus the part covered by wrapped
children.  Time the benchmark spends checking an output inside a wrapper is
excluded from every open span, so checks do not show up as program time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

ENGINES = {
    "i_convergence_verdict": "i_convergence",
    "i_cauchy_def_verdict": "i_cauchy_def",
    "i_cauchy_pair_verdict": "i_cauchy_pair",
    "i_cauchy_ek_verdict": "i_cauchy_ek",
    "i_star_cauchy_verdict": "i_star_cauchy",
    "i_star_convergence_verdict": "i_star_convergence",
}

# (module, attribute path) -> layer name.  Kept to the functions the layer
# table names; tiny hot helpers such as ``block_index`` stay unwrapped
# because a span per call would cost more than the work it measures.
TARGETS = {
    ("sequences", "SequenceScenario.points"): "sequences.points",
    ("ideals", "SetDescription.full"): "ideals.set_ops",
    ("ideals", "SetDescription.empty"): "ideals.set_ops",
    ("ideals", "SetDescription.from_members"): "ideals.set_ops",
    ("ideals", "SetDescription.complement"): "ideals.set_ops",
    ("ideals", "SetDescription.union"): "ideals.set_ops",
    ("ideals", "SetDescription.intersection"): "ideals.set_ops",
    ("ideals", "SetDescription.minus"): "ideals.set_ops",
    ("ideals", "block_union"): "ideals.set_ops",
    ("ideals", "membership"): "ideals.membership",
    ("ideals", "filter_membership"): "ideals.membership",
    ("convergence", "a_epsilon_set"): "convergence.a_epsilon_set",
    **{("convergence", fn): "convergence." + short
       for fn, short in ENGINES.items()},
    ("convergence", "implication_audit"): "convergence.implication_audit",
    ("convergence", "counterexample_audit"): "convergence.counterexample_audit",
    ("convergence", "cauchy_criteria_cross_check"): "convergence.cross_check",
    ("algebra", "op_norm"): "algebra.op_norm",
    ("algebra", "is_positive"): "algebra.is_positive",
    ("algebra", "spectrum"): "algebra.spectrum",
    ("algebra", "precedes"): "algebra.precedes",
    ("metrics", "distance_norm"): "metrics.distance_norm",
    ("metrics", "verify_axioms"): "metrics.verify_axioms",
    ("norms", "verify_norm_axioms"): "norms",
    ("norms", "induce_metric"): "norms",
    ("norms", "invariance_audit"): "norms",
    ("norms", "discrete_metric_homogeneity_witness"): "norms",
    ("norms", "norm_convergence_verdict"): "norms",
    ("reporting", "stable_dumps"): "reporting.stable_dumps",
    ("reporting", "run"): "reporting.run",
    ("reporting", "audit_paper"): "reporting.audit_paper",
    ("cli", "main"): "cli.main",
}


class Tracer:
    """Spans kept in memory, per-layer totals and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []      # (name id, start, end, parent index)
        self.stack: list[list] = []       # [fn, span index, start, excluded, child]
        self.excluded = 0.0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.engine_depth = 0
        self.errors: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, layer: str, fn, after=None):
        """A wrapper recording one span per call of ``fn`` under ``layer``.

        ``after(result, args, kwargs)`` runs once the span is closed; its
        time is excluded from every span still open.
        """
        name = self.name_id(layer)
        engine = layer.removeprefix("convergence.") in ENGINES.values()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            if stack and stack[-1][0] is fn:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = stack[-1][1] if stack else -1
            self.spans.append(None)
            frame = [fn, index, 0.0, self.excluded, 0.0]
            stack.append(frame)
            self.engine_depth += engine
            frame[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.engine_depth -= engine
                excluded = self.excluded - frame[3]
                duration = end - frame[2] - excluded
                self.spans[index] = (name, frame[2], end - excluded, parent)
                self.self_s[layer] += duration - frame[4]
                self.calls[layer] += 1
                if stack:
                    stack[-1][4] += duration
            if after is not None:
                start = time.perf_counter()
                try:
                    after(result, args, kwargs)
                finally:
                    self.excluded += time.perf_counter() - start
            return result

        return wrapper

    def span_table(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def _lookup(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer, after: dict | None = None) -> None:
    """Wrap every target; ``after`` maps a layer to a post-call hook."""
    from cstarseq import ideals

    after = after or {}
    for mod_name, _ in TARGETS:
        importlib.import_module("cstarseq." + mod_name)
    modules = [m for name, m in sys.modules.items()
               if name == "cstarseq" or name.startswith("cstarseq.")]
    for (mod_name, path), layer in TARGETS.items():
        owner, attr = _lookup(sys.modules["cstarseq." + mod_name], path)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        wrapped = tracer.wrap(layer, fn, after.get(layer))
        if isinstance(owner, type):
            setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)

    _count_constructions(tracer, ideals.SetDescription, "ideals.sets.built",
                         "ideals.sets.members", lambda obj: len(obj.window))
    _count_constructions(tracer, ideals.TailCertificate, "ideals.tail.built",
                         "ideals.tail.blocks", lambda obj: len(obj.blocks))


def _count_constructions(tracer, cls, built, held, size):
    """Count instances of ``cls`` and the members ``size`` says each holds."""
    init = cls.__init__

    @functools.wraps(init)
    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.counters[built] += 1
        tracer.counters[held] += size(self)

    cls.__init__ = counted
