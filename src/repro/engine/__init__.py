"""Discrete-event simulation engine: event queue, SM model, statistics."""

from .events import EventQueue
from .stats import IntervalRecord, SimStats
from .sm import StreamingMultiprocessor
from .simulator import Simulator, SimulationResult
from .multi import ShardedSimulator

__all__ = [
    "EventQueue",
    "IntervalRecord",
    "SimStats",
    "StreamingMultiprocessor",
    "Simulator",
    "SimulationResult",
    "ShardedSimulator",
]
