"""Fixed parameters of the benchmark: input sizes, the replay grid, limits.

Everything a result depends on besides ``--seed`` lives here, so two
commits measured with the same copy of this file are measured alike.
``SCALES["tiny"]`` exists only for the benchmark's own smoke tests.
"""

WORKLOADS = ("offline_logs", "stream_replay", "store_history", "composite_sharded")

#: Correlation window (the paper's 10 ms) used by every workload.
WINDOW_S = 0.010

#: Streaming eviction horizon, the CLI default.  Kept finite on purpose:
#: a request evicted by it surfaces as a failed operation.
STREAM_HORIZON_S = 5.0
#: Lines handed to the program per ``classify_lines``/``ingest`` call at
#: most (the CLI's default chunk size).
STREAM_CHUNK_LINES = 256

#: Open-loop replay rates are points of one geometric grid of absolute log
#: line rates, ``grid_lps(k) = GRID_BASE_LPS * 2 ** (k / GRID_STEPS_PER_OCTAVE)``
#: for ``k`` in ``0..GRID_TOP``: about 9% apart, from 7.5k to 240k lines/s.
GRID_BASE_LPS = 7500.0
GRID_STEPS_PER_OCTAVE = 8
GRID_TOP = 40
#: The three named rungs, as grid indices: about 1/4, 1/2 and 2x of the
#: seed commit's closed-loop streaming capacity on the fan-out trace
#: (about 27k lines/s on a 2-CPU x86-64 host).  The middle rung is the
#: headline rate of the emit latencies; the top rung overloads the seed
#: commit.  ``max_rate_lps`` comes from a staircase over the whole grid.
RUNGS = {"low": 0, "mid": 8, "high": 24}
HEADLINE_RUNG = "mid"
#: A replay meets its rate when its 99th-percentile emit latency stays
#: within this limit and the generator kept pace: it handed lines over at
#: no less than this share of the rate (a growing backlog falls behind).
EMIT_P99_LIMIT_MS = 500.0
KEEP_PACE_SHARE = 0.95

#: Time tolerance of the path-accuracy check: log lines carry
#: microsecond timestamps.
ACCURACY_TOLERANCE_S = 1e-5

#: Sharded job configuration (the scale-out decision rule's setting).
SHARD_WORKERS = 2
SHARD_SCHEDULE = "balanced"

#: Input sizes per scale.  ``stages`` is (up ramp, runtime, down ramp) in
#: simulated seconds; ``None`` keeps the scenario's default stages.  The
#: stream has ``stream_feeds`` fan-out traces of its own seeds: where a
#: full garbage collection lands in a trace's bursts sets its emit tail,
#: so the run's figures pool several traces rather than one.
SCALES = {
    "full": {
        "offline_clients": 600,
        "offline_stages": None,
        "stream_stages": (2.0, 44.0, 1.0),
        "stream_feeds": 6,
        "store_runs": 4,
        "store_stages": None,
        "composite_stages": None,
    },
    "tiny": {
        "offline_clients": 40,
        "offline_stages": (0.5, 2.0, 0.5),
        "stream_stages": (0.5, 3.0, 0.5),
        "stream_feeds": 2,
        "store_runs": 2,
        "store_stages": (0.5, 2.0, 0.5),
        "composite_stages": (0.5, 2.0, 0.5),
    },
}

#: Least number of measured job units per run, whatever ``--seconds`` says.
MIN_UNITS = 3


def grid_lps(k: int) -> float:
    """Line rate of replay grid point ``k``."""
    return GRID_BASE_LPS * 2 ** (k / GRID_STEPS_PER_OCTAVE)
