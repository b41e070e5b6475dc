"""Compiler-style file-layout selection for disk-resident arrays.

Implements the analysis the paper points to in §4.4 (ref [7]): inspect
every loop nest's references to each out-of-core array and choose, per
array, the file layout (column- or row-major) that makes the
innermost-loop traversal contiguous for the largest (weighted) share of
accesses.

The contiguity rule for a reference ``A[row_expr, col_expr]`` under
innermost loop variable ``v``:

* column-major is contiguous iff ``row_expr`` moves with ``v`` at unit
  stride and ``col_expr`` does not depend on ``v``;
* row-major is contiguous iff the transposed condition holds;
* if neither index depends on ``v`` the reference is loop-invariant and
  costs nothing either way;
* anything else (coupled or non-unit-stride subscripts) is strided under
  both layouts.

Costs are *requests per nest execution*: a contiguous traversal issues one
request per outer-iteration panel; a strided one issues one request per
innermost iteration.  This is exactly the quantity the simulator charges,
so the advisor's choice can be validated against measured I/O time (see
``tests/test_advisor_layout.py``, which checks it picks the FFT's
measured winner).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.advisor.access import ArrayRef, LoopNest
from repro.iolib.passion.oocarray import Layout

__all__ = ["RefCost", "LayoutCost", "analyze_ref", "choose_layouts",
           "LayoutPlan"]


@dataclass(frozen=True)
class RefCost:
    """Requests one reference generates under each layout, per execution
    of its loop nest."""

    ref: ArrayRef
    column_major: float
    row_major: float

    def cost(self, layout: Layout) -> float:
        return (self.column_major if layout is Layout.COLUMN_MAJOR
                else self.row_major)


def analyze_ref(nest: LoopNest, ref: ArrayRef) -> RefCost:
    """Request counts for one reference under both candidate layouts."""
    v = nest.innermost.var
    inner_trips = nest.innermost.trip_count
    outer_iters = nest.total_iterations // inner_trips

    row_c = ref.row.coeff(v)
    col_c = ref.col.coeff(v)

    if row_c == 0 and col_c == 0:
        # Loop-invariant w.r.t. the innermost loop: one request per outer
        # iteration under either layout.
        return RefCost(ref, outer_iters, outer_iters)
    col_major_contig = (abs(row_c) == 1 and col_c == 0)
    row_major_contig = (abs(col_c) == 1 and row_c == 0)
    strided = outer_iters * inner_trips      # one request per iteration
    contiguous = outer_iters                 # one request per panel
    return RefCost(
        ref,
        column_major=contiguous if col_major_contig else strided,
        row_major=contiguous if row_major_contig else strided,
    )


@dataclass
class LayoutCost:
    """Aggregated per-array request counts under each layout."""

    array: str
    column_major: float = 0.0
    row_major: float = 0.0
    refs: List[RefCost] = field(default_factory=list)

    def add(self, rc: RefCost, weight: float) -> None:
        self.refs.append(rc)
        self.column_major += weight * rc.column_major
        self.row_major += weight * rc.row_major

    @property
    def best(self) -> Layout:
        # Ties break toward column-major, the Fortran default the original
        # programs started from (no transformation needed).
        if self.row_major < self.column_major:
            return Layout.ROW_MAJOR
        return Layout.COLUMN_MAJOR

    @property
    def improvement(self) -> float:
        """Request-count ratio worst/best (1.0 = layout doesn't matter)."""
        lo = min(self.column_major, self.row_major)
        hi = max(self.column_major, self.row_major)
        return hi / lo if lo > 0 else 1.0


@dataclass(frozen=True)
class LayoutPlan:
    """The advisor's output: a layout per array, with cost evidence."""

    layouts: Dict[str, Layout]
    costs: Dict[str, LayoutCost]

    def layout_of(self, array: str) -> Layout:
        return self.layouts[array]

    def to_text(self) -> str:
        lines = ["file-layout plan:"]
        for array in sorted(self.layouts):
            cost = self.costs[array]
            lines.append(
                f"  {array}: {self.layouts[array].value}-major "
                f"(requests col={cost.column_major:,.0f} "
                f"row={cost.row_major:,.0f}, "
                f"{cost.improvement:.1f}x at stake)")
        return "\n".join(lines)


def choose_layouts(nests: Sequence[LoopNest]) -> LayoutPlan:
    """Pick a file layout per array over a whole program's loop nests.

    Each array's two candidate costs are the weighted sums of its
    reference costs over all nests; the cheaper layout wins.  (Arrays are
    independent here because a reference constrains only its own array —
    the coupling the paper describes, "optimizing the block dimension for
    one array has a negative impact on the other", shows up as *both*
    arrays wanting contiguity in the same nest and exactly one reference
    per array being satisfiable; the per-array argmin resolves it the way
    ref [7]'s heuristic does.)
    """
    if not nests:
        raise ValueError("no loop nests to analyze")
    costs: Dict[str, LayoutCost] = {}
    for nest in nests:
        for ref in nest.refs:
            rc = analyze_ref(nest, ref)
            costs.setdefault(ref.array, LayoutCost(ref.array)).add(
                rc, nest.weight)
    layouts = {array: cost.best for array, cost in costs.items()}
    return LayoutPlan(layouts=layouts, costs=costs)
