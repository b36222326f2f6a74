"""Execution logs shared by the classical and quantum solvers.

A log records which event was resampled at which step, in order.  The
combinatorics layer consumes only the label sequence, but keeping the step
numbers makes logs self-describing in saved JSON reports.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class ExecutionLog:
    entries: tuple  # (step, label) pairs with strictly increasing steps
    total_steps: int
    seed: object = None

    def __post_init__(self):
        # operator.index refuses 0.5 or 1e400 rather than truncating it
        object.__setattr__(
            self,
            "entries",
            tuple((operator.index(s), operator.index(l)) for s, l in self.entries),
        )
        object.__setattr__(self, "total_steps", operator.index(self.total_steps))
        steps = [s for s, _ in self.entries]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("log steps must be strictly increasing")

    def labels(self) -> tuple:
        return tuple(label for _, label in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def to_dict(self) -> dict:
        return {
            "entries": [[s, l] for s, l in self.entries],
            "total_steps": self.total_steps,
            "seed": self.seed,
        }


def log_from_dict(data: dict) -> ExecutionLog:
    return ExecutionLog(
        tuple((s, l) for s, l in data["entries"]),
        data["total_steps"],
        data.get("seed"),
    )


def log_from_labels(labels) -> ExecutionLog:
    """Convenience constructor: one entry per step, in order, with no seed."""
    return ExecutionLog(tuple((i, l) for i, l in enumerate(labels)), len(tuple(labels)))
