"""``repro.obs`` — observability for the simulated hybrid runtime.

A structured span/event recorder on virtual clocks
(:mod:`repro.obs.recorder`), a metrics registry
(:mod:`repro.obs.metrics`), a Chrome-trace-event/Perfetto exporter with
schema validation (:mod:`repro.obs.trace`), and paper-style stage
reports (:mod:`repro.obs.report`).

The instrumentation contract: call sites fetch the thread-local active
recorder with :func:`current`; ``None`` means tracing is off and the
call site must do nothing else.  The runtime layer installs one
recorder per rank (:func:`repro.runtime.backends.run_rank`; see
``docs/ARCHITECTURE.md`` §8) and records the stage-boundary spans
(:meth:`repro.runtime.context.RankContext.end_stage`).
"""

from repro.obs.metrics import Histogram, MetricsRegistry, aggregate
from repro.obs.recorder import (
    MAIN_TRACK,
    InstantEvent,
    Recorder,
    SpanEvent,
    current,
    recording,
    set_current,
)
from repro.obs.report import (
    ALL_STAGES,
    PAPER_STAGES,
    fig34_decomposition,
    format_stage_report,
    run_report,
    stage_decomposition,
)
from repro.obs.trace import (
    TraceValidationError,
    chrome_trace,
    validate_chrome_trace,
    validate_trace_file,
    write_chrome_trace,
)

__all__ = [
    "MAIN_TRACK",
    "ALL_STAGES",
    "PAPER_STAGES",
    "Histogram",
    "InstantEvent",
    "MetricsRegistry",
    "Recorder",
    "SpanEvent",
    "TraceValidationError",
    "aggregate",
    "chrome_trace",
    "current",
    "fig34_decomposition",
    "format_stage_report",
    "recording",
    "run_report",
    "set_current",
    "stage_decomposition",
    "validate_chrome_trace",
    "validate_trace_file",
    "write_chrome_trace",
]
