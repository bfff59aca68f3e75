"""Out-of-program layer tracer for the traced benchmark run.

The engine has no spans of its own, so the tracer wraps public functions of
the ``wtc.*`` layers from outside.  Layers import each other with
``from .x import y``, so a function is replaced in every ``wtc.*`` namespace
that binds it, not only in the module that defines it.  Methods are replaced
on their class.  ``uninstall`` puts every original back.

Spans are kept in memory as ``[name, start, end, parent, op]`` lists, where
``parent`` is the index of the enclosing span (-1 at the top) and ``op`` the
operation id set by the caller.  Self time is a span's duration minus the
durations of its direct children; the engine is single-threaded, so children
never overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path); a dotted path names a method
TARGETS = (
    ("abelian.smith_normal_form", "wtc.abelian", "smith_normal_form"),
    ("abelian.solve_linear", "wtc.abelian", "solve_linear"),
    ("abelian.canonical_sqrt", "wtc.abelian", "canonical_sqrt"),
    ("abelian.two_torsion", "wtc.abelian", "two_torsion"),
    ("abelian.hom_analyze", "wtc.abelian", "hom_analyze"),
    ("abelian.cokernel_of", "wtc.abelian", "cokernel_of"),
    ("f2.coset_min", "wtc.f2", "coset_min"),
    ("f2.F2Map.solve", "wtc.f2", "F2Map.solve"),
    ("align.pull_alignment", "wtc.align", "pull_alignment"),
    ("align.compose", "wtc.align", "compose"),
    ("descent.certify_smpic", "wtc.descent", "certify_smpic"),
    ("descent.descend_alignment", "wtc.descent", "descend_alignment"),
    ("descent.relative_class_mod2", "wtc.descent", "relative_class_mod2"),
    ("expr.normalize", "wtc.expr", "normalize"),
    ("expr.ExprParser.parse", "wtc.expr", "ExprParser.parse"),
    ("module.eval_expr", "wtc.module", "eval_expr"),
    ("module.lax_product", "wtc.module", "lax_product"),
    ("module.apply_registered", "wtc.module", "apply_registered"),
    ("module.PieceStore.canonical_transport", "wtc.module", "PieceStore.canonical_transport"),
    ("module.validate_registered_map", "wtc.module", "validate_registered_map"),
    ("basis.check_total_basis", "wtc.basis", "check_total_basis"),
    ("basis.check_localization", "wtc.basis", "check_localization"),
    ("basis.transfer_basis", "wtc.basis", "transfer_basis"),
    ("workspace.loads", "wtc.workspace", "loads"),
    ("workspace.workspace_from_dict", "wtc.workspace", "workspace_from_dict"),
    ("workspace.serialize", "wtc.workspace", "serialize"),
    ("cli.main", "wtc.cli", "main"),
    ("cli.emit_report", "wtc.cli", "emit_report"),
)


class LayerTracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.on = False
        self.op = None
        self._stack = []
        self._undo = []

    # -- installation ---------------------------------------------------------

    def install(self):
        wtc_modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "wtc" or name.startswith("wtc."))
        ]
        for name, modname, path in TARGETS:
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if cls_path:
                self._replace(owner, attr, original, wrapper)
                continue
            for mod in wtc_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, original, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr, original, wrapper):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter
        counts_theta = name == "basis.check_total_basis"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts_theta:  # read from the returned ThetaReport
                counters["basis.theta.cells"] += len(result.cells)
                counters["basis.theta.choices_checked"] += result.choices_checked
            return result

        return traced

    # -- analysis -------------------------------------------------------------

    def per_name(self, scale):
        """name -> [calls, total seconds, self seconds].

        Each span's times are multiplied by ``scale[op]`` of its operation.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, op) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += (end - start) * scale[op]
            agg[2] += (end - start - child[i]) * scale[op]
        return out

    def durations(self, name):
        """op -> durations of the spans called ``name``."""
        out = defaultdict(list)
        for span in self.spans:
            if span[0] == name:
                out[span[4]].append(span[2] - span[1])
        return out

    def write(self, path, labels, scale):
        """Write every span as gzipped JSON, with each traced operation's
        label and the factor that scales its times to reference speed."""
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
            "ops": {op: [labels[op], factor] for op, factor in scale.items()},
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
