"""The one error every engine raises when an internal invariant fails."""

from __future__ import annotations


class InvariantError(RuntimeError):
    """An internal invariant failed: norm drift, a falling ground overlap,
    a solve that did not converge, a run that left the kernel, or a
    spectral summary that contradicts itself.

    ``value`` is the measured quantity that broke the invariant.
    """

    def __init__(self, message: str, value: float):
        super().__init__(message)
        self.value = float(value)
