"""Span tracing for the traced benchmark run, kept outside simploc.

``Tracer.install`` replaces every public function of each simploc module, in
every module namespace that binds it (``classify`` is bound in dsl, engine,
cli and the package), with a wrapper that records a span: id, name, start,
end and the id of the enclosing span.  The listed methods are wrapped on
their class.  ``dsl.children`` runs once per node visit, so it is only
counted, together with the distinct nodes it sees (by ``id()``: the frozen
dataclasses hash recursively).  ``restore`` puts every original binding
back.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("script", "dsl", "engine", "coeff", "group_rep", "schubert", "cli")
METHODS = (
    ("engine", "DegreeWindow", "value_at"),
    ("coeff", "FgAbGroup", "__post_init__"),
    ("coeff", "CoefficientTable", "group_at"),
)
COUNTED = "dsl.children"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.children_calls = 0
        self.nodes = 0
        self.matrices: set = set()
        self.snf_max_bits = 0
        self._script_nodes: set[int] = set()
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._active: Counter = Counter()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        import simploc

        modules = {name: importlib.import_module(f"simploc.{name}") for name in MODULES}
        wrappers = {}
        for mod_name, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                name = f"{mod_name}.{attr}"
                if name == COUNTED:
                    wrappers[obj] = self._counter(obj)
                elif name == "coeff.snf":
                    wrappers[obj] = self._span(name, obj, after=self._after_snf)
                else:
                    wrappers[obj] = self._span(name, obj)
        for namespace in (simploc, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(namespace, attr, wrappers[obj])
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            self._patch(cls, attr, self._span(f"{mod_name}.{cls_name}.{attr}", cls.__dict__[attr]))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.next_script()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = tracer._stack[-1][0] if tracer._stack else 0
            tracer._stack.append(frame)
            tracer._active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer._active[name] -= 1
                tracer._close(name, frame, parent, start, end)
            if after is not None:
                after(args, result)
                # bookkeeping after the span is not the caller's work
                if tracer._stack:
                    tracer._stack[-1][1] += perf_counter() - end
            return result

        return wrapper

    def _close(self, name: str, frame: list, parent: int, start: float, end: float) -> None:
        duration = end - start
        self.calls[name] += 1
        self.self_time[name] += duration - frame[1]
        if not self._active[name]:
            # recursive calls count once in the outermost span
            self.inclusive[name] += duration
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append((frame[0], name, start, end, parent))

    def _counter(self, fn):
        tracer = self
        nodes = self._script_nodes

        @functools.wraps(fn)
        def wrapper(tree):
            tracer.children_calls += 1
            nodes.add(id(tree))
            return fn(tree)

        return wrapper

    def _after_snf(self, args, form) -> None:
        self.matrices.add(tuple(tuple(row) for row in args[0]))
        for transform in (form.left, form.right):
            for row in transform:
                for x in row:
                    bits = abs(x).bit_length()
                    if bits > self.snf_max_bits:
                        self.snf_max_bits = bits

    def next_script(self) -> None:
        """Close the distinct-node count of one script: node ids are only
        stable while that script's trees are alive."""
        self.nodes += len(self._script_nodes)
        self._script_nodes.clear()

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("id\tname\tstart\tend\tparent\n")
            for span_id, name, start, end, parent in self.spans:
                out.write(f"{span_id}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def layer_metrics(self, lines_parsed: int, records: int, overhead_s: float) -> dict[str, float]:
        """Per-layer values by metric name (see BENCHMARK.json)."""
        incl, own, calls = self.inclusive, self.self_time, self.calls

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        parse_s = incl["script.parse"]
        return {
            "script.parse.s": parse_s,
            "script.parse.lines_per_s": ratio(lines_parsed, parse_s),
            "dsl.validate.s": incl["dsl.validate"],
            "dsl.classify.s": incl["dsl.classify"],
            "dsl.walk_per_node": ratio(self.children_calls, self.nodes),
            "dsl.classify.calls_per_node": ratio(calls["dsl.classify"], self.nodes),
            "dsl.nodes": self.nodes,
            "engine.compute_degree0.self_s": own["engine.compute_degree0"],
            "engine.compute_graded.self_s": own["engine.compute_graded"],
            "engine.solve_blowup_les.self_s": own["engine.solve_blowup_les"],
            "engine.solve_blowup_les.calls": calls["engine.solve_blowup_les"],
            "engine.refute_membership_b.s": incl["engine.refute_membership_b"],
            "engine.value_at.s": incl["engine.DegreeWindow.value_at"],
            "engine.value_at.calls": calls["engine.DegreeWindow.value_at"],
            "coeff.snf.s": incl["coeff.snf"],
            "coeff.snf.calls_per_matrix": ratio(calls["coeff.snf"], len(self.matrices)),
            "coeff.snf.matrices": len(self.matrices),
            "coeff.snf.max_bits": self.snf_max_bits,
            "coeff.fgab.s": incl["coeff.FgAbGroup.__post_init__"],
            "coeff.fgab.calls": calls["coeff.FgAbGroup.__post_init__"],
            "coeff.group_at.s": incl["coeff.CoefficientTable.group_at"],
            "coeff.group_at.calls": calls["coeff.CoefficientTable.group_at"],
            "group_rep.elementary_symmetric_class.s": incl["group_rep.elementary_symmetric_class"],
            "group_rep.elementary_symmetric_class.calls": calls["group_rep.elementary_symmetric_class"],
            "schubert.tree.s": incl["schubert.finite_schubert_tree"] + incl["schubert.affine_schubert_tree"],
            "schubert.cell_count.s": incl["schubert.cell_count_finite"] + incl["schubert.affine_cell_count"],
            "cli.run_script.self_s": own["cli.run_script"],
            "cli.records": records,
            "trace.spans": len(self.spans),
            "trace.overhead_s": overhead_s,
        }
