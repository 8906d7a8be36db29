"""Outside tracer: spans around permlab's layer functions, from the benchmark.

Nothing in ``src/`` is changed.  ``Tracer.install`` replaces each target
function with a wrapper that records a span (name, start, end, parent span)
and, where asked, counts distinct arguments.  Three things make that work:

* ``permlab.fo`` re-exports the function ``evaluate``, which shadows the
  submodule of the same name as an attribute, so modules are looked up in
  ``sys.modules`` rather than by attribute access;
* a name bound by ``from .x import f`` is a separate binding in every
  importing module (``cli`` and ``rigidity`` call through theirs), so every
  ``permlab.*`` binding of the original function is replaced;
* ``FiniteGroup`` methods and ``Permutation.__post_init__`` (a slots
  dataclass) are replaced on the class.

Spans stay in memory and are written as JSONL when the job ends, followed
by one record of counts.  ``summarize`` turns a job's records into self
times: a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


class TracerError(RuntimeError):
    """A target is missing, or was never hit where it must be."""


@dataclass(frozen=True)
class Target:
    span: str                 # span name; the metric is <span>_s
    module: str
    attr: str                 # "func" or "Class.method"
    heavy: str                # workload on which it must be hit
    calls: bool = False       # also report <span>_calls
    key: Callable | None = None      # (args, kwargs) -> hashable, for _unique_ratio
    variant: Callable | None = None  # (args, kwargs) -> suffix, for <span>_s.<suffix>
    variants: tuple[str, ...] = ()   # every suffix variant can return
    spans: bool = True        # False: count calls only (hot, tiny functions)

    @property
    def ident(self) -> str:
        return f"{self.module}:{self.attr}"


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _centralizer_key(args, kwargs):
    G, indices = args[0], _arg(args, kwargs, 1, "indices")
    return G.name, frozenset(indices)


def _macro_key(args, kwargs):
    return args[0].name, args[1], args[2]


def _homs_key(args, kwargs):
    return args[0].name, _arg(args, kwargs, 1, "m")


def _strategy(args, kwargs):
    return _arg(args, kwargs, 2, "strategy", "class")


G, FO, SE, SC, RI, ST = ("permlab.groups", "permlab.fo.evaluate",
                         "permlab.sentences", "permlab.schreier",
                         "permlab.rigidity", "permlab.stability")
V = "verify"
AC = "actions"

TARGETS = (
    Target("groups.construct", G, "construct_group", V, calls=True),
    Target("groups.classes", G, "FiniteGroup.conjugacy_classes", V),
    Target("groups.centralizer", G, "FiniteGroup.centralizer_of", V,
           calls=True, key=_centralizer_key),
    Target("groups.subgroup", G, "is_subgroup", V, calls=True),
    Target("groups.simple", G, "is_simple_bruteforce", V),
    Target("fo.parse", "permlab.fo.parser", "parse_formula", V),
    Target("fo.eval", FO, "evaluate_detailed", V, calls=True,
           variant=_strategy, variants=("naive", "class", "centralizer")),
    Target("fo.macro", "permlab.fo.macros", "call_macro", V, calls=True,
           key=_macro_key),
    Target("fo.macro", "permlab.fo.macros", "call_set_function", V,
           calls=True, key=_macro_key),
    Target("sentences.coverage", SE, "commutator_coverage_bruteforce", V),
    Target("sentences.classify", SE, "classify_nonabelian_simple", V),
    Target("sentences.oracle", SE, "congruence_oracle_alt", V),
    Target("sentences.oracle", SE, "prime_remark_oracle", V),
    Target("schreier.build", SC, "regular_action_graph", AC),
    Target("schreier.build", SC, "read_graph_file", AC),
    Target("schreier.components", SC, "components", AC, calls=True),
    Target("schreier.gap", SC, "spectral_gap", AC),
    Target("schreier.exact_autos", SC, "exact_automorphisms", AC),
    Target("schreier.eps_autos", SC, "enumerate_eps_automorphisms", AC),
    Target("schreier.cluster", SC, "cluster_scan", AC),
    Target("rigidity.biregular", RI, "biregular_double_centralizer", AC),
    Target("rigidity.action_centralizer", RI, "action_centralizer", AC),
    Target("rigidity.bruteforce", RI, "centralizer_in_sym_bruteforce", AC),
    Target("stability.enumerate_homs", ST, "enumerate_homs", AC, calls=True,
           key=_homs_key),
    Target("stability.nearest", ST, "nearest_hom", AC),
    Target("stability.scan", ST, "identity_preserving_scan", AC),
    Target("perms.word", "permlab.perms", "evaluate_word", AC, calls=True),
    Target("perms.validations", "permlab.perms", "Permutation.__post_init__",
           AC, spans=False),
    Target("arithmetic.witness", "permlab.arithmetic", "find_witness_prime", AC),
    Target("cli.write", "permlab.cli", "_write_output", AC),
)


class Tracer:
    """Wraps every target in this process and keeps the spans in memory."""

    def __init__(self, job: str, targets=TARGETS):
        self.job = job
        self.targets = targets
        self.spans: list = []     # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)   # per target ident
        self.keys: dict[str, set] = defaultdict(set)    # per span name

    def install(self) -> None:
        for t in self.targets:
            importlib.import_module(t.module)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "permlab" or name.startswith("permlab.")]
        for t in self.targets:
            module = sys.modules[t.module]
            owner_name, _, meth = t.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(meth) if owner is not None else None
                if original is None:
                    raise TracerError(f"missing target {t.ident}")
                setattr(owner, meth, self._wrap(t, original))
                continue
            original = getattr(module, t.attr, None)
            if original is None or not callable(original):
                raise TracerError(f"missing target {t.ident}")
            wrapper = self._wrap(t, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)

    def _wrap(self, t: Target, fn):
        calls, ident = self.calls, t.ident
        if not t.spans:
            def counted(*args, **kwargs):
                calls[ident] += 1
                return fn(*args, **kwargs)
            return counted
        spans, stack, clock = self.spans, self.stack, time.monotonic_ns
        keys = self.keys[t.span] if t.key is not None else None

        def traced(*args, **kwargs):
            calls[ident] += 1
            name = t.span if t.variant is None else \
                f"{t.span}_s.{t.variant(args, kwargs)}"
            if keys is not None:
                keys.add(t.key(args, kwargs))
            record = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", t.attr)
        return traced

    def dump(self, path: str, start_s: float, end_s: float) -> None:
        """Write the spans and one summary record as JSONL."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"job": self.job, "id": i, "name": name,
                                     "start": t0, "end": t1,
                                     "parent": None if parent < 0 else parent})
                         + "\n")
            fh.write(json.dumps({
                "job": self.job, "start": int(start_s * 1e9),
                "end": int(end_s * 1e9), "calls": dict(self.calls),
                "unique": {k: len(v) for k, v in self.keys.items()}}) + "\n")


# -- analysis (parent side) ---------------------------------------------------------------

def summarize(records: list[dict]) -> dict:
    """Self time per span name, covered time and call/unique counts of one job.

    Spans nest (one thread), so a span's self time is its duration minus the
    durations of its direct children, and the job time inside named spans is
    the summed duration of the root spans.
    """
    spans = [r for r in records if "name" in r]
    summary = next(r for r in records if "calls" in r)
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end"] - s["start"]
    self_s: dict[str, float] = defaultdict(float)
    covered_ns = 0
    for s in spans:
        dur = s["end"] - s["start"]
        self_s[s["name"]] += (dur - child_ns[s["id"]]) / 1e9
        if s["parent"] is None:
            covered_ns += dur
    return {"self_s": dict(self_s), "covered_s": covered_ns / 1e9,
            "wall_s": (summary["end"] - summary["start"]) / 1e9,
            "calls": summary["calls"], "unique": summary["unique"]}


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_hits(workload: str, calls: dict[str, int], targets=TARGETS) -> None:
    """Raise unless every target marked heavy on this workload was called."""
    missed = [t.ident for t in targets
              if t.heavy == workload and not calls.get(t.ident)]
    if missed:
        raise TracerError(f"never hit on {workload}: {', '.join(missed)}")


def layer_metrics(summaries: list[dict], targets=TARGETS) -> dict[str, float]:
    """Per-layer metrics over a workload's traced jobs (tracing metrics aside)."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    unique: dict[str, int] = defaultdict(int)
    for s in summaries:
        for k, v in s["self_s"].items():
            self_s[k] += v
        for k, v in s["calls"].items():
            calls[k] += v
        for k, v in s["unique"].items():
            unique[k] += v
    out: dict[str, float] = {}
    for t in targets:
        span_calls = sum(calls[u.ident] for u in targets if u.span == t.span)
        if not t.spans:
            out[t.span] = span_calls
            continue
        if t.variant is None:
            out[f"{t.span}_s"] = self_s[t.span]
        for v in t.variants:
            out[f"{t.span}_s.{v}"] = self_s[f"{t.span}_s.{v}"]
        if t.calls:
            out[f"{t.span}_calls"] = span_calls
        if t.key is not None:
            out[f"{t.span}_unique_ratio"] = \
                unique[t.span] / span_calls if span_calls else 0.0
    return out
