"""Span tracer for the traced benchmark run.

``Tracer`` wraps public functions and methods of the twistlab modules in
span recorders while it is installed.  A span records its name, start, end,
parent span and the job it belongs to.  Spans stay in memory; ``summary``
turns them into the per-layer metrics and ``write`` dumps them when the run
ends.  Nothing under ``src/`` changes: every wrapped name is rebound in each
twistlab module that holds it (``from .matrices import solve`` binds by
value) and restored on ``uninstall``.

Per-element ``rings`` operations are deliberately not wrapped: a large job
makes about half a million of them, which would swamp the run.  Their time
stays in the self time of the calling ``matrices`` span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from fractions import Fraction
from time import perf_counter

# (module, attribute path[, span name]).  A class target wraps its __init__
# and names the span after the class: LocalSystem's span is its construction,
# including the invertibility and flatness checks.
TARGETS = [
    ("complexes", "parse_complex"),
    ("complexes", "validate_complex"),
    ("complexes", "pseudomanifold_check"),
    ("complexes", "parse_subcomplex"),
    ("systems", "orientation_system"),
    ("systems", "is_trivializable"),
    ("systems", "LocalSystem"),
    ("systems", "parse_system"),
    ("maps", "parse_map"),
    ("matrices", "smith_normal_form"),
    ("matrices", "Matrix.mul"),
    ("matrices", "Matrix.mul_vec"),
    ("matrices", "solve"),
    ("matrices", "inverse"),
    ("matrices", "kernel_basis"),
    ("matrices", "image_basis"),
    ("matrices", "determinant"),
    ("matrices", "block_matrix"),
    ("homology", "FreeComplex.homology_ctx", "homology.homology_ctx"),
    ("homology", "FreeComplex.class_coordinates", "homology.class_coordinates"),
    ("homology", "presentation_of_quotient"),
    ("homology", "induced_map_on_homology"),
    ("homology", "exactness_check"),
    ("homology", "FreeComplex"),
    ("homology", "ChainMapData"),
    ("homology", "mapping_cone"),
    ("homology", "is_quasi_iso"),
    ("twisted", "TwistedComplex"),
    ("twisted", "assemble_les"),
    ("twisted", "compare_les"),
    ("twisted", "cellular_boundary_via_triple"),
    ("twisted", "induced_chain_map"),
    ("duality", "fundamental_class"),
    ("duality", "cap_with_fundamental_class"),
    ("duality", "cap_product"),
    ("duality", "duality_report"),
    ("cli", "run_cli"),
]

MODULES = ("complexes", "systems", "maps", "matrices", "homology", "twisted",
           "duality", "cli")

# The per-layer metrics of one traced pass, with units.  Counts repeat
# exactly between passes; times are seconds of self time summed over a pass.
PER_LAYER = {
    "complexes.parse_complex.self_s": "s",
    "complexes.validate_complex.self_s": "s",
    "complexes.pseudomanifold_check.calls": "count",
    "complexes.pseudomanifold_check.self_s": "s",
    "systems.orientation_system.self_s": "s",
    "systems.is_trivializable.self_s": "s",
    "systems.LocalSystem.calls": "count",
    "systems.LocalSystem.self_s": "s",
    "systems.parse_system.self_s": "s",
    "maps.parse_map.self_s": "s",
    "matrices.smith_normal_form.calls": "count",
    "matrices.smith_normal_form.self_s": "s",
    "matrices.smith_normal_form.cells": "count",
    "matrices.smith_normal_form.max_entry_bits": "bits",
    "matrices.Matrix.mul.calls": "count",
    "matrices.Matrix.mul.self_s": "s",
    "matrices.Matrix.mul.mult_adds": "count",
    "matrices.Matrix.mul.nonzero_frac": "ratio",
    "matrices.solve.calls": "count",
    "matrices.solve.self_s": "s",
    "matrices.inverse.calls": "count",
    "matrices.inverse.self_s": "s",
    "homology.homology_ctx.calls": "count",
    "homology.homology_ctx.hit_frac": "ratio",
    "homology.presentation_of_quotient.calls": "count",
    "homology.presentation_of_quotient.self_s": "s",
    "homology.class_coordinates.calls": "count",
    "homology.class_coordinates.self_s": "s",
    "homology.induced_map_on_homology.calls": "count",
    "homology.induced_map_on_homology.self_s": "s",
    "homology.exactness_check.calls": "count",
    "homology.exactness_check.self_s": "s",
    "homology.FreeComplex.self_s": "s",
    "homology.ChainMapData.self_s": "s",
    "homology.mapping_cone.self_s": "s",
    "homology.is_quasi_iso.calls": "count",
    "homology.is_quasi_iso.self_s": "s",
    "twisted.TwistedComplex.calls": "count",
    "twisted.TwistedComplex.self_s": "s",
    "twisted.TwistedComplex.dup_frac": "ratio",
    "twisted.assemble_les.self_s": "s",
    "twisted.compare_les.self_s": "s",
    "twisted.cellular_boundary_via_triple.calls": "count",
    "twisted.cellular_boundary_via_triple.self_s": "s",
    "twisted.induced_chain_map.self_s": "s",
    "duality.fundamental_class.self_s": "s",
    "duality.cap_with_fundamental_class.self_s": "s",
    "duality.cap_product.calls": "count",
    "duality.cap_product.self_s": "s",
    "duality.duality_report.self_s": "s",
    "cli.run_cli.self_s": "s",
    **{f"{m}.self_frac": "ratio" for m in MODULES},
    "trace.overhead_frac": "ratio",
}

# Per-layer values that are times, so they vary; the rest must repeat exactly.
TIMED = tuple(n for n in PER_LAYER if n.endswith((".self_s", ".self_frac")))


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(x).bit_length()


class Tracer:
    """Records spans and layer counters between ``install`` and ``uninstall``.

    Each span is ``[name, start, end, parent, job, covered]`` where
    ``covered`` is the part of the parent's interval the span takes,
    including the time its counters spend measuring, so that counter work is
    nobody's self time.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.reset_counters()

    # -- counters ------------------------------------------------------------

    def reset_counters(self):
        self.snf_cells = 0
        self.snf_max_bits = 0
        self.mul_mult_adds = 0
        self.mul_nonzero = 0
        self.ctx_hits = 0
        self.tc_builds = 0
        self.tc_dups = 0
        self._tc_seen: set = set()
        self._tc_job = None

    def _pre(self, name, args, kwargs):
        if name == "matrices.Matrix.mul":
            A, B = args[0], args[1]
            self.mul_mult_adds += A.nrows * A.ncols * B.ncols
            if A.nrows and B.ncols:
                col_nz = [0] * A.ncols
                for row in A.rows:
                    for t, a in enumerate(row):
                        if a != 0:
                            col_nz[t] += 1
                self.mul_nonzero += sum(
                    c * sum(1 for b in brow if b != 0)
                    for c, brow in zip(col_nz, B.rows) if c
                )
        elif name == "matrices.smith_normal_form":
            self.snf_cells += args[0].nrows * args[0].ncols
        elif name == "homology.homology_ctx":
            if args[1] in args[0]._homology:
                self.ctx_hits += 1
        elif name == "twisted.TwistedComplex":
            self._count_build(args, kwargs)

    def _post(self, name, result):
        if name == "matrices.smith_normal_form":
            top = self.snf_max_bits
            for M in (result.U, result.D, result.V):
                for row in M.rows:
                    for x in row:
                        if x != 0:
                            b = _bits(x)
                            if b > top:
                                top = b
            self.snf_max_bits = top

    def _count_build(self, args, kwargs):
        bound = self._tc_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        G = a["system"]
        content = (
            G.ring.token, G.rank,
            tuple(sorted((e, tuple(map(tuple, T.rows))) for e, T in G.transports.items())),
        )
        # Holding the base in the key keeps its id from being reused.
        key = (a["base"], content, a["direction"], a["keep"])
        if self._tc_job != self.job:
            self._tc_seen = set()
            self._tc_job = self.job
        self.tc_builds += 1
        if key in self._tc_seen:
            self.tc_dups += 1
        self._tc_seen.add(key)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, counted):
        tracer = self
        spans = self.spans
        stack = self._stack

        def span(*args, **kwargs):
            t_in = perf_counter()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, 0.0]
            if counted:
                tracer._pre(name, args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counted:
                tracer._post(name, result)
            rec[5] = perf_counter() - t_in
            return result

        span.__wrapped__ = fn
        return span

    def install(self):
        """Wrap every target and rebind every module-level alias of it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "twistlab" or n.startswith("twistlab.")]
        counted = {"matrices.Matrix.mul", "matrices.smith_normal_form",
                   "homology.homology_ctx", "twisted.TwistedComplex"}
        for modname, path, *alias in TARGETS:
            mod = importlib.import_module(f"twistlab.{modname}")
            name = alias[0] if alias else f"{modname}.{path}"
            parts = path.split(".")
            obj = getattr(mod, parts[0])
            if inspect.isclass(obj) and len(parts) == 1:
                owner, attr = obj, "__init__"
            elif len(parts) == 2:
                owner, attr = obj, parts[1]
            else:
                owner, attr = None, parts[0]
            if owner is not None:
                original = owner.__dict__[attr]
                if name == "twisted.TwistedComplex":
                    self._tc_signature = inspect.signature(original)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, name in counted))
                continue
            original = obj
            wrapper = self._wrap(original, name, name in counted)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, original))
                        setattr(m, attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def summary(self, first: int = 0) -> dict[str, float]:
        """Per-layer totals over the spans recorded since index ``first``:
        ``<name>.calls`` and ``<name>.self_s`` for every span name, plus
        ``<module>.self_s`` and the sum of all self times as ``total_s``
        (the traced jobs' time less what the counters spent measuring)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for i in range(first, len(spans)):
            parent = spans[i][3]
            if parent >= first:
                child_time[parent] += spans[i][5]
        out: dict[str, float] = {"total_s": 0.0}
        for i in range(first, len(spans)):
            name, start, end = spans[i][0], spans[i][1], spans[i][2]
            own = end - start - child_time[i]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
            module = name.split(".", 1)[0]
            out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + own
            out["total_s"] += own
        return out

    def metrics(self, first: int = 0) -> dict[str, float]:
        """Every PER_LAYER metric but the overhead, for spans from ``first``."""
        s = self.summary(first)
        total = s["total_s"]
        out = {}
        for name in PER_LAYER:
            prefix, _, measure = name.rpartition(".")
            if measure == "calls":
                out[name] = s.get(name, 0)
            elif measure == "self_s":
                out[name] = s.get(name, 0.0)
            elif measure == "self_frac":
                out[name] = s.get(f"{prefix}.self_s", 0.0) / total if total else 0.0
        out["matrices.smith_normal_form.cells"] = self.snf_cells
        out["matrices.smith_normal_form.max_entry_bits"] = self.snf_max_bits
        out["matrices.Matrix.mul.mult_adds"] = self.mul_mult_adds
        out["matrices.Matrix.mul.nonzero_frac"] = _ratio(self.mul_nonzero, self.mul_mult_adds)
        out["homology.homology_ctx.hit_frac"] = _ratio(
            self.ctx_hits, s.get("homology.homology_ctx.calls", 0))
        out["twisted.TwistedComplex.dup_frac"] = _ratio(self.tc_dups, self.tc_builds)
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, _ in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, job]))
                fh.write("\n")
