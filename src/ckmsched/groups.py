"""Shared scheduling data types: active sets and user groups."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class ActiveSet:
    """First-stage output for one cell: an ordered candidate set."""

    cell: int
    members: list[int]
    fallback: frozenset[int] = field(default_factory=frozenset)


@dataclass(slots=True)
class SelectionRecord:
    """Metadata for one scheduling decision; metric is None for a pick that
    no score decided (random)."""

    user: int
    cell: int
    slot: int
    metric: float | None
    source: str


@dataclass(slots=True)
class UserGroup:
    """Scheduled users per cell plus selection-order metadata."""

    members: dict[int, list[int]]
    meta: list[SelectionRecord] = field(default_factory=list)

    def copy(self) -> UserGroup:
        """A copy that shares no member list or record with this group."""
        return UserGroup(
            {cell: list(ids) for cell, ids in self.members.items()},
            [SelectionRecord(r.user, r.cell, r.slot, r.metric, r.source) for r in self.meta],
        )
