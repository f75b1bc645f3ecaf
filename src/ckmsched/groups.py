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
