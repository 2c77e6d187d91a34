"""Correctness checks: every workload's output against an oracle.

Each check returns ``(attempted, failed, errors)``: operations checked,
operations that came out wrong, and one line per kind of failure.  The
oracles are the simulator's ground truth (path accuracy), the batch
correlator (digest equality) and in-memory recomputations of every
store query answer.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

from repro.core.accuracy import GroundTruthRequest, path_accuracy
from repro.core.patterns import cag_signature
from repro.store import (
    cag_root_key,
    diff_summaries,
    signature_hash,
    signature_label,
    summarize_durations,
)

from settings import ACCURACY_TOLERANCE_S

Outcome = Tuple[int, int, List[str]]


def load_truth(path: str) -> Dict[int, GroundTruthRequest]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return {
        int(rid): GroundTruthRequest(
            request_id=int(rid),
            start_time=entry["start"],
            end_time=entry["end"],
            contexts={tuple(context) for context in entry["contexts"]},
        )
        for rid, entry in payload.items()
    }


def check_paths(cags: Sequence, truth: Dict[int, GroundTruthRequest]) -> Outcome:
    """Path accuracy against ground truth: one operation per request.

    A request fails when no correct path was reconstructed for it; a CAG
    that matches no request (a split, merged or invented path) fails one
    operation as well.
    """
    report = path_accuracy(cags, truth, time_tolerance=ACCURACY_TOLERANCE_S)
    missed = report.total_requests - report.correct_paths
    extra = len(cags) - report.correct_paths
    failed = max(missed, extra)
    errors = []
    if failed:
        reasons = sorted(
            {judgement.reason for judgement in report.judgements if not judgement.correct}
        )
        errors.append(
            f"path accuracy {report.correct_paths}/{report.total_requests} "
            f"({len(cags)} CAGs; {', '.join(reasons) or 'requests missing'})"
        )
    return report.total_requests, failed, errors


def check_equal(label: str, expected, actual) -> Outcome:
    if expected == actual:
        return 1, 0, []
    return 1, 1, [f"{label}: expected {expected!r}, got {actual!r}"]


# -- store query references ----------------------------------------------------


def _store_order(cags) -> List:
    """CAGs in the order the store returns their rows (begin, root key)."""
    finished = [cag for cag in cags if cag.finished]
    return sorted(finished, key=lambda cag: (cag.begin_timestamp, cag_root_key(cag)))


def reference_latency(cags, bucket_s: float) -> List[Dict[str, float]]:
    """``latency_over_windows(run_id=..., bucket_s=...)`` from memory."""
    buckets: Dict[int, List[float]] = {}
    for cag in _store_order(cags):
        duration = cag.duration()
        if duration is not None:
            buckets.setdefault(int(cag.begin_timestamp // bucket_s), []).append(duration)
    rows = []
    for index in sorted(buckets):
        row = summarize_durations(buckets[index])
        row["begin_s"] = index * bucket_s
        rows.append(row)
    return rows


def reference_mix(cags) -> List[Dict[str, object]]:
    """``pattern_mix`` from memory."""
    entries: Dict[str, Dict[str, object]] = {}
    for cag in _store_order(cags):
        signature = cag_signature(cag)
        digest = signature_hash(signature)
        entry = entries.setdefault(
            digest,
            {
                "pattern": digest,
                "label": signature_label(signature),
                "count": 0,
                "length": len(signature[0]),
                "durations": [],
            },
        )
        entry["count"] += 1
        duration = cag.duration()
        if duration is not None:
            entry["durations"].append(duration)
    total = sum(entry["count"] for entry in entries.values())
    mix = []
    for entry in sorted(
        entries.values(), key=lambda e: (-e["count"], e["length"], e["pattern"])
    ):
        durations = entry.pop("durations")
        entry["share"] = entry["count"] / total if total else 0.0
        stats = summarize_durations(durations)
        stats.pop("count", None)
        entry.update(stats)
        mix.append(entry)
    return mix


def reference_drift(base_mix, current_mix) -> List[Dict[str, object]]:
    """``mix_drift`` from two in-memory mixes."""
    base = {entry["pattern"]: entry for entry in base_mix}
    current = {entry["pattern"]: entry for entry in current_mix}
    rows = []
    for digest in sorted(set(base) | set(current)):
        before, after = base.get(digest), current.get(digest)
        rows.append(
            {
                "pattern": digest,
                "label": (before or after)["label"],
                "base_count": before["count"] if before else 0,
                "current_count": after["count"] if after else 0,
                "base_share": before["share"] if before else 0.0,
                "current_share": after["share"] if after else 0.0,
                "share_delta": (after["share"] if after else 0.0)
                - (before["share"] if before else 0.0),
                "status": "common" if before and after else ("new" if after else "vanished"),
            }
        )
    rows.sort(key=lambda row: (-abs(row["share_delta"]), row["pattern"]))
    return rows


def reference_diff(base_run: str, base_mix, current_run: str, current_mix) -> dict:
    """``diff_summaries(run_summary(...), run_summary(...))`` from memory."""
    return diff_summaries(
        {"run_id": base_run, "patterns": base_mix},
        {"run_id": current_run, "patterns": current_mix},
    ).payload()
