"""Span tracer installed from outside the package.

The tracer replaces public functions of ``veriforget`` modules with thin
wrappers.  A function is replaced under every module attribute that holds
it (the defining module, re-exports, and ``from x import f`` copies in
``cli`` and ``pipeline``), so calls are seen wherever the name is looked
up.  Spans are kept in memory; each records its name, start, end, parent
span and the benchmark unit it belongs to.  Only spans opened while a
unit is active are recorded, so correctness checks and quality panels
run by the benchmark stay out of the per-layer figures.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    unit: int = -1
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def layer_of(span_name: str) -> str:
    """``zkp.field.sponge`` -> ``zkp.field``; ``cli.train`` -> ``cli``."""
    return span_name.rsplit(".", 1)[0]


def _field_key(ints) -> str:
    """Digest of a vector as field elements, whatever its container."""
    from veriforget.zkp.field import MODULUS

    flat = ints.ravel().tolist() if hasattr(ints, "ravel") else list(ints)
    text = ",".join(str(int(x) % MODULUS) for x in flat)
    return hashlib.sha256(text.encode()).hexdigest()


def _files_bytes(path: str) -> int:
    """Bytes of the artifact at ``path``: the file itself or ``path.*``."""
    directory, base = os.path.split(path)
    try:
        names = os.listdir(directory or ".")
    except OSError:
        return 0
    return sum(
        os.path.getsize(os.path.join(directory, n))
        for n in names
        if n == base or n.startswith(base + ".")
    )


# -- counter hooks: (tracer, unit, args, kwargs, result) -> None ---------------


def _sponge(tr, unit, args, kwargs, result):
    elements = args[0] if args else kwargs["elements"]
    domain = args[1] if len(args) > 1 else kwargs["domain"]
    n = len(elements)
    tr.count("zkp.field.elements", n)
    tr.count("zkp.field.permutations", (n + 1) // 2)
    if domain == "leaf":
        tr.count("zkp.field.leaves", 1)


def _merkle_root(tr, unit, args, kwargs, result):
    ints = args[0] if args else kwargs["ints"]
    randomness = args[1] if len(args) > 1 else kwargs["randomness"]
    tr.distinct["zkp.field.merkle_root"].add((unit, _field_key(ints), randomness))


def _per_example_grads(tr, unit, args, kwargs, result):
    tr.count("model.per_example_grads.bytes", result.nbytes)


def _fisher(tr, unit, args, kwargs, result):
    blocks = result.fisher.blocks
    tr.count("curvature.empirical_fisher_blockwise.blocks", len(blocks))
    tr.count(
        "curvature.empirical_fisher_blockwise.fisher_bytes",
        sum(b.nbytes for b in blocks),
    )


def _diag_curvature(tr, unit, args, kwargs, result):
    model, data = args[0], args[1]
    seed = kwargs.get("seed", args[2] if len(args) > 2 else None)
    key = (unit, hashlib.sha256(model.params.values.tobytes()).hexdigest(),
           data.digest(), seed)
    tr.distinct["curvature.diag_curvature"].add(key)


def _group_obs(tr, unit, args, kwargs, result):
    tr.count("obs.group_obs_solve.k", result.multipliers.size)
    tr.count("obs.group_obs_solve.method_cg", result.method == "cg")


def _check_kkt(tr, unit, args, kwargs, result):
    margin = max(result.inf_norms) / result.tolerance
    tr.maxima["certify.kkt_margin"] = max(
        tr.maxima.get("certify.kkt_margin", 0.0), margin
    )


def _synthesize(tr, unit, args, kwargs, result):
    tr.count("zkp.circuit.constraints", sum(result.counts.values()))


def _path_bytes(key):
    def hook(tr, unit, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        tr.count(key, _files_bytes(path))

    return hook


# (module, attribute, span name, hook).  An attribute may be "Class.method".
TARGETS = [
    ("veriforget.zkp.field", "sponge", "zkp.field.sponge", _sponge),
    ("veriforget.zkp.field", "merkle_root", "zkp.field.merkle_root", _merkle_root),
    ("veriforget.zkp.circuit", "verify_commit", "zkp.circuit.verify_commit", None),
    ("veriforget.zkp.circuit", "synthesize", "zkp.circuit.synthesize", _synthesize),
    ("veriforget.zkp.circuit", "mock_prove", "zkp.circuit.mock_prove", None),
    ("veriforget.zkp.witness", "encode_fixed_witness",
     "zkp.witness.encode_fixed_witness", None),
    ("veriforget.zkp.witness", "default_t_int", "zkp.witness.default_t_int", None),
    ("veriforget.zkp.backend", "MockBackend.prove", "zkp.backend.prove", None),
    ("veriforget.zkp.backend", "MockBackend.verify", "zkp.backend.verify", None),
    ("veriforget.model", "train_sgd", "model.train_sgd", None),
    ("veriforget.model", "personalize", "model.personalize", None),
    ("veriforget.model", "per_example_grads", "model.per_example_grads",
     _per_example_grads),
    ("veriforget.evals", "gold_standard", "evals.gold_standard", None),
    ("veriforget.evals", "evaluate", "evals.evaluate", None),
    ("veriforget.curvature", "empirical_fisher_blockwise",
     "curvature.empirical_fisher_blockwise", _fisher),
    ("veriforget.curvature", "diag_curvature", "curvature.diag_curvature",
     _diag_curvature),
    ("veriforget.obs", "group_obs_solve", "obs.group_obs_solve", _group_obs),
    ("veriforget.obs", "apply_unlearn", "obs.apply_unlearn", None),
    ("veriforget.certify", "check_kkt", "certify.check_kkt", _check_kkt),
    ("veriforget.certify", "forget_gain_report", "certify.forget_gain_report", None),
    ("veriforget.masking", "saliency_scores", "masking.saliency_scores", None),
    ("veriforget.masking", "select_topk", "masking.select_topk", None),
    ("veriforget.pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("veriforget.pipeline", "run_zk_layer", "pipeline.run_zk_layer", None),
    ("veriforget.pipeline", "select_mask", "pipeline.select_mask", None),
    ("veriforget.artifacts", "file_digest", "artifacts.file_digest", None),
] + [
    ("veriforget.artifacts", f"{verb}_{kind}", f"artifacts.{verb}",
     _path_bytes(f"artifacts.{verb}.bytes"))
    for verb in ("save", "load")
    for kind in ("model", "dataset", "mask", "fisher", "comp", "public", "proof")
]


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(float))
    distinct: dict = field(default_factory=lambda: defaultdict(set))
    maxima: dict = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    unit: int = -1  # -1 while no unit is running: nothing is recorded
    _stack: list[int] = field(default_factory=list)
    _restore: list = field(default_factory=list)

    # -- recording -----------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, time.perf_counter(), parent=parent, unit=self.unit)
        )
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start

    def wrap(self, fn, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.unit < 0:
                return fn(*args, **kwargs)
            tracer.count(name + ".calls")
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, tracer.unit, args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target under every veriforget module name bound to it.

        A target whose module or attribute no longer exists is recorded in
        ``missing`` and reported, never skipped silently.
        """
        for mod_name, attr, name, hook in targets:
            try:
                owner = importlib.import_module(mod_name)
                path = attr.split(".")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self.wrap(original, name, hook)
            if isinstance(owner, type):
                self._rebind(owner, path[-1], wrapped)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("veriforget"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapped)

    def _rebind(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- reporting -------------------------------------------------------------

    def per_layer(self, units: int) -> dict[str, float]:
        """Per-unit self time and counters, keyed by metric name."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name + ".s"] += span.self_s / units
            out[layer_of(span.name) + ".s"] += span.self_s / units
        for key, value in self.counters.items():
            out[key] += value / units
        for key, seen in self.distinct.items():
            calls = self.counters.get(key + ".calls", 0)
            out[key + ".useful_ratio"] = len(seen) / calls if calls else 0.0
        out.update(self.maxima)
        obs_calls = self.counters.get("obs.group_obs_solve.calls", 0)
        if obs_calls:
            out["obs.group_obs_solve.k"] = (
                self.counters["obs.group_obs_solve.k"] / obs_calls
            )
        sponge_s = out.get("zkp.field.sponge.s", 0.0)
        out["zkp.field.permutations_per_s"] = (
            out.get("zkp.field.permutations", 0.0) / sponge_s if sponge_s else 0.0
        )
        out["trace.spans"] = len(self.spans) / units
        out["trace.missing_targets"] = float(len(self.missing))
        return dict(out)

    def dump(self) -> dict:
        return {
            "missing_targets": self.missing,
            "spans": [
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "unit": s.unit,
                    "self_s": s.self_s,
                }
                for s in self.spans
            ],
        }
