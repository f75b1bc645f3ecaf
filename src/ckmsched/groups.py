"""Shared scheduling data types: user records, active sets, user groups."""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import GridIndex, Position


@dataclass
class UserRecord:
    """One user: identity, serving cell, position and grid."""

    id: int
    cell: int
    position: Position
    grid: GridIndex


@dataclass(slots=True)
class ActiveSet:
    """First-stage output for one cell: an ordered candidate set."""

    cell: int
    members: list[int]
    fallback: frozenset[int] = field(default_factory=frozenset)


@dataclass(slots=True)
class SelectionRecord:
    """Metadata for one scheduling decision."""

    user: int
    cell: int
    slot: int
    metric: float
    source: str


@dataclass(slots=True)
class UserGroup:
    """Scheduled users per cell plus selection-order metadata."""

    members: dict[int, list[int]]
    meta: list[SelectionRecord] = field(default_factory=list)

    def all_users(self) -> list[int]:
        out: list[int] = []
        for cell in sorted(self.members):
            out.extend(self.members[cell])
        return out

    def size(self) -> int:
        return sum(len(v) for v in self.members.values())

    def export_csv(self, path):
        import csv

        bycell = {(m.cell, m.user): m for m in self.meta}
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["cell", "slot", "user_id", "metric", "csi_source"])
            for cell in sorted(self.members):
                for slot, uid in enumerate(self.members[cell]):
                    m = bycell.get((cell, uid))
                    w.writerow(
                        [
                            cell,
                            m.slot if m else slot,
                            uid,
                            f"{m.metric:.12e}" if m else "",
                            m.source if m else "",
                        ]
                    )
