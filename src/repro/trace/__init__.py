"""Trace capture and analysis.

ADAssure is a *trace-based* methodology: everything downstream (assertions,
diagnosis, experiment tables) consumes the per-step records this package
defines.  The schema deliberately records three parallel views of the run —
ground truth, observed (sensors + estimate), and commanded/applied controls
— so assertions can be written against exactly the channels a given
deployment would have.
"""

from repro._lazy import lazy_exports

__all__ = [
    "TraceRecord",
    "TraceMeta",
    "Trace",
    "TraceRecorder",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "write_trace_csv",
    "read_trace_csv",
    "trace_to_jsonl_bytes",
    "trace_from_jsonl_bytes",
    "TraceMetrics",
    "compute_metrics",
    "moving_average",
    "sliding_windows",
    "sign_change_rate",
    "first_crossing",
    "diff_traces",
    "TraceDiff",
]

__getattr__ = lazy_exports(__name__, {
    ".analysis": (
        "first_crossing", "moving_average", "sign_change_rate",
        "sliding_windows",
    ),
    ".diff": ("TraceDiff", "diff_traces"),
    ".io": (
        "read_trace_csv", "read_trace_jsonl", "trace_from_jsonl_bytes",
        "trace_to_jsonl_bytes", "write_trace_csv", "write_trace_jsonl",
    ),
    ".metrics": ("TraceMetrics", "compute_metrics"),
    ".recorder": ("TraceRecorder",),
    ".schema": ("Trace", "TraceMeta", "TraceRecord"),
})
