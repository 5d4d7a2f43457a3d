"""Logical clocks: Lamport scalar, vector, and matrix clocks."""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "lamport": ("LamportClock", "Timestamp"),
    "matrix": ("MatrixClock",),
    "vector": ("VectorClock", "cbcast_deliverable"),
})

__all__ = [
    "LamportClock",
    "MatrixClock",
    "Timestamp",
    "VectorClock",
    "cbcast_deliverable",
]
