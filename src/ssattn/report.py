"""Nested count reports.

Parameter and multiply-accumulate accounting both produce a tree of
named counts (model -> stage -> block -> ...). A node either carries
its own leaf value or derives its total from its children; the tree
serializes to plain dicts for JSON output and renders as an indented
text table for terminal display.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ReportNode:
    name: str
    value: int | float | None = None
    children: list["ReportNode"] = field(default_factory=list)

    def add(self, child: "ReportNode") -> "ReportNode":
        self.children.append(child)
        return child

    def leaf(self, name: str, value: int | float) -> "ReportNode":
        return self.add(ReportNode(name, value))

    def total(self) -> int | float:
        if self.children:
            return sum(c.total() for c in self.children)
        return self.value if self.value is not None else 0

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "total": self.total()}
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    def table(self, max_depth: int | None = None) -> str:
        """Indented two-column rendering, totals right-aligned."""
        rows: list[tuple[str, int | float]] = []

        def walk(node: "ReportNode", depth: int):
            rows.append(("  " * depth + node.name, node.total()))
            if max_depth is None or depth < max_depth:
                for c in node.children:
                    walk(c, depth + 1)

        walk(self, 0)
        left = max(len(r[0]) for r in rows)
        return "\n".join(f"{n:<{left}}  {v:>16,}" for n, v in rows)
