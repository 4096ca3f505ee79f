"""Measurement layer for the simulation kernel.

Two tools, both built on :meth:`repro.des.core.Simulator.instrument`:

- :class:`~repro.perf.profile.KernelProfiler` — per-callback-category
  event counts and wall time, events/sec, heap high-water mark, and
  optional cProfile capture (``--profile`` in the CLI);
- :class:`~repro.perf.trace.TraceRecorder` — hashes the exact event
  dispatch sequence, the backbone of the golden-trace determinism
  proof that gates every kernel optimization.

Performance itself is measured by the repository benchmark,
``python3 bench/run.py`` (see ``docs/performance.md``).
"""

from repro.perf.profile import KernelProfiler
from repro.perf.trace import TraceRecorder, golden_run, state_digest_record

__all__ = [
    "KernelProfiler",
    "TraceRecorder",
    "golden_run",
    "state_digest_record",
]
