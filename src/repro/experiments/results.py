"""Structured experiment results: series, tables, text rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Series", "crossover", "ExperimentResult", "ascii_chart"]


@dataclass
class Series:
    """One labelled curve: x values (e.g. processor counts) to y values."""

    label: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.points.append((float(x), float(y)))

    @property
    def xs(self) -> List[float]:
        return [p[0] for p in self.points]

    @property
    def ys(self) -> List[float]:
        return [p[1] for p in self.points]

    def y_at(self, x: float) -> float:
        for px, py in self.points:
            if px == x:
                return py
        raise KeyError(f"no point at x={x} in series {self.label!r}")

    def is_increasing_after(self, x: float) -> bool:
        """True if y grows monotonically for points with x' >= x."""
        tail = [(px, py) for px, py in sorted(self.points) if px >= x]
        return all(b[1] >= a[1] for a, b in zip(tail, tail[1:])) \
            and len(tail) >= 2

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation (round-trips via from_dict)."""
        return {"label": self.label,
                "points": [[x, y] for x, y in self.points]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Series":
        return cls(label=str(data["label"]),
                   points=[(float(x), float(y)) for x, y in data["points"]])


def crossover(a: Sequence[Tuple[float, float]],
              b: Sequence[Tuple[float, float]]) -> Optional[float]:
    """Smallest common x where curve ``b`` drops below curve ``a``.

    Returns None if ``b`` never wins on the shared x grid; raises
    ``ValueError`` if the curves share no x value.  Figure 2 asks it of
    optimized/16 I/O nodes (a) against unoptimized/64 (b).
    """
    ya, yb = dict(a), dict(b)
    shared = sorted(ya.keys() & yb.keys())
    if not shared:
        raise ValueError("curves share no x values")
    return next((x for x in shared if yb[x] < ya[x]), None)


@dataclass
class ExperimentResult:
    """Everything one table/figure reproduction produced."""

    exp_id: str
    title: str
    paper_reference: str
    series: List[Series] = field(default_factory=list)
    #: Free-form table rows (list of dicts) for table-style artifacts.
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Checks comparing measured shape to the paper's claims.
    checks: Dict[str, bool] = field(default_factory=dict)
    text: Optional[str] = None

    def series_by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(label)

    def add_check(self, name: str, passed: bool) -> bool:
        self.checks[name] = bool(passed)
        return bool(passed)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation (round-trips via from_dict).

        ``rows`` are passed through as-is and must hold JSON-compatible
        values (every registered experiment's rows do).
        """
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "paper_reference": self.paper_reference,
            "series": [s.to_dict() for s in self.series],
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.notes),
            "checks": {name: bool(ok) for name, ok in self.checks.items()},
            "text": self.text,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentResult":
        return cls(
            exp_id=str(data["exp_id"]),
            title=str(data["title"]),
            paper_reference=str(data["paper_reference"]),
            series=[Series.from_dict(s) for s in data.get("series", [])],
            rows=[dict(row) for row in data.get("rows", [])],
            notes=list(data.get("notes", [])),
            checks={name: bool(ok)
                    for name, ok in data.get("checks", {}).items()},
            text=data.get("text"),
        )

    def to_text(self) -> str:
        """Human-readable report block."""
        lines = [f"== {self.exp_id}: {self.title} ==",
                 f"   (paper: {self.paper_reference})"]
        if self.text:
            lines.append(self.text)
        for s in self.series:
            pts = "  ".join(f"({x:g}, {y:,.1f})" for x, y in s.points)
            lines.append(f"  {s.label}: {pts}")
        if self.series:
            chart = ascii_chart(self.series)
            if chart:
                lines.append(chart)
        for row in self.rows:
            lines.append("  " + "  ".join(f"{k}={v}" for k, v in row.items()))
        for name, ok in self.checks.items():
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def ascii_chart(series: Sequence[Series], width: int = 64,
                height: int = 12) -> str:
    """Tiny ASCII scatter of multiple series (log-friendly bench output)."""
    pts = [(x, y, i) for i, s in enumerate(series) for x, y in s.points]
    if not pts or len(series) > 10:
        return ""
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0 or y1 == y0:
        return ""
    grid = [[" "] * width for _ in range(height)]
    marks = "ox+*#@%&$~"
    for x, y, i in pts:
        col = int((x - x0) / (x1 - x0) * (width - 1))
        row = height - 1 - int((y - y0) / (y1 - y0) * (height - 1))
        grid[row][col] = marks[i]
    legend = "  ".join(f"{marks[i]}={s.label}" for i, s in enumerate(series))
    body = "\n".join("  |" + "".join(r) for r in grid)
    return (f"  y:[{y0:,.0f} .. {y1:,.0f}]  x:[{x0:g} .. {x1:g}]\n"
            f"{body}\n  {legend}")
