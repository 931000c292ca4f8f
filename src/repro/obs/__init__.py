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

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".metrics": ("Histogram", "MetricsRegistry", "aggregate"),
    ".recorder": (
        "MAIN_TRACK", "InstantEvent", "Recorder", "SpanEvent", "current", "recording",
        "set_current",
    ),
    ".report": (
        "ALL_STAGES", "PAPER_STAGES", "fig34_decomposition", "format_stage_report",
        "run_report", "stage_decomposition",
    ),
    ".trace": (
        "TraceValidationError", "chrome_trace", "validate_chrome_trace",
        "validate_trace_file", "write_chrome_trace",
    ),
})
