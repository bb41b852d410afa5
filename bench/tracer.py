"""Spans around the calls into cremonalab's public functions, from outside.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent) in flat arrays kept in
memory; `uninstall()` puts the originals back.  Nothing in `src/` changes.
Self time is a span's duration minus the durations of its direct children.
A name's inclusive time counts only its outermost spans, so recursion and
methods traced under one name are not counted twice.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

from workloads import PACKAGE

# span name -> "module:qualname" targets traced under that name.  A module's
# whole public function set is written "module:*".
SPANS = {
    "corpus.row": ["corpus:verify_row"],
    "expr.parse": ["expr:parse_expression"],
    "maps.new": ["maps:ProjMap.__init__"],
    "maps.compose": ["maps:ProjMap.compose"],
    "maps.canonical": ["maps:ProjMap.canonical_components", "maps:ProjMap.canonical_key"],
    "maps.order": ["maps:order_of_map"],
    "maps.structure": ["maps:abelian_structure_matches"],
    "maps.closure": ["maps:group_closure"],
    "multipoly.gcd": ["multipoly:gcd_many"],
    "multipoly.subs": ["multipoly:MultiPoly.subs"],
    "multipoly.mul": ["multipoly:MultiPoly.__mul__", "multipoly:MultiPoly.__rmul__"],
    "cyclo.new": ["cyclo:CycloNumber.__init__"],
    "cyclo.mul": ["cyclo:CycloNumber.__mul__", "cyclo:CycloNumber.__rmul__"],
    "cyclo.inverse": ["cyclo:CycloNumber.inverse"],
    "poly.gcd": ["poly:poly_gcd"],
    "poly.divmod": ["poly:UniPoly.divmod"],
    "poly.ratfunc.new": ["poly:RatFunc.__init__"],
    "poly.squarefree": ["poly:squarefree_part"],
    "jonq.compose": ["jonq:JonqElement.compose"],
    "jonq.order": ["jonq:order_j"],
    "jonq.det_class": ["jonq:det_class"],
    "lattice.arcond": ["lattice:arcond_search"],
    "lattice.enumerate": ["lattice:enumerate_exceptional", "lattice:enumerate_conic_classes"],
    "weyl": ["weyl:*"],
}

# Counts read off a call's result, at the same boundary as its span.
RESULT_COUNTS = {
    "multipoly.gcd": ("useful", lambda g: int(not g.is_constant())),
    "maps.closure": ("elements", len),
}


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self._active = [0] * len(self.names)
        self.counts = {f"{n}.{key}": 0 for n, (key, _) in RESULT_COUNTS.items()}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, fn, nid: int, name: str):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        outer, active, stack = self.outer, self._active, self._stack
        clock = time.perf_counter
        on_result = RESULT_COUNTS.get(name)
        counts = self.counts
        count_key = f"{name}.{on_result[0]}" if on_result else None

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            outer.append(not active[nid])
            active[nid] += 1
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                active[nid] -= 1
            if on_result is not None:
                counts[count_key] += on_result[1](result)
            return result

        return traced

    def _targets(self, spec: str):
        mod_name, _, qual = spec.partition(":")
        module = sys.modules.get(f"{PACKAGE}.{mod_name}")
        if module is None:  # a module the workload never imports is never called
            return
        if qual == "*":
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    yield module, attr
            return
        owner = module
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part)
        yield owner, attr

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for nid, name in enumerate(self.names):
            for spec in SPANS[name]:
                for owner, attr in self._targets(spec):
                    original = vars(owner)[attr]
                    wrapped = self._wrapper(original, nid, name)
                    self._patch(owner, attr, wrapped)
                    if isinstance(owner, type):
                        continue
                    # Module functions are also bound by name in the modules
                    # that imported them; patch those references too.
                    for m in modules:
                        for other_attr, obj in list(vars(m).items()):
                            if obj is original and (m, other_attr) != (owner, attr):
                                self._patch(m, other_attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """calls, s (outermost spans) and self_s per span name, plus result counts."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for i in range(n):
            name = self.names[self.name_id[i]]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur[i] - child[i]
            if self.outer[i]:
                out[f"{name}.s"] += dur[i]
        out.update(self.counts)
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Spans go to <path>.spans as five little-endian columns, each whole
        in turn (name id u16, parent i32, outermost-of-its-name i8, start f64,
        end f64); names, counts and metadata go to <path>.json."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".spans"), "wb") as fh:
            for col in (self.name_id, self.parent, self.outer, self.start, self.end):
                if sys.byteorder != "little":
                    col = array(col.typecode, col)
                    col.byteswap()
                col.tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": ["name_id:u16", "parent:i32", "outer:i8", "start_s:f64", "end_s:f64"],
            "counts": self.counts,
            **meta,
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
