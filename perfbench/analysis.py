"""Arithmetic of the closed-loop benchmark, kept free of I/O so the
tests in perfbench/tests can pin it down.

Every function here takes plain Python data: latency samples, request
records as the benchmark binary wrote them, or spans parsed back from
its Chrome-trace file.
"""

import math


def nearest_rank(values, pct):
    """Nearest-rank percentile: the smallest sample with at least
    pct % of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1]


def samples_beyond(count, pct):
    """How many of `count` samples lie strictly above the nearest-rank
    pct-th percentile's rank."""
    return count - math.ceil(pct / 100.0 * count)


def supports_percentile(count, pct, beyond=10):
    """True when `count` samples leave at least `beyond` samples past
    the pct-th percentile (the ten-beyond rule)."""
    return count > 0 and samples_beyond(count, pct) >= beyond


def failed_frac(attempted, failed):
    """Failed over attempted requests; a run that attempted nothing is
    an error, not a zero."""
    if attempted < 1:
        raise ValueError("no requests attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def max_in_flight(intervals):
    """Largest number of (submit, collect) intervals open at once. A
    request collected at the instant another is submitted does not
    overlap it: the closed loop collects before it submits."""
    events = []
    for submit, collect in intervals:
        if collect < submit:
            raise ValueError("request collected before it was submitted")
        events.append((submit, 1))
        events.append((collect, -1))
    events.sort(key=lambda e: (e[0], e[1]))  # ends before starts on ties
    open_now = peak = 0
    for _, delta in events:
        open_now += delta
        peak = max(peak, open_now)
    return peak


def warmup_cut_ok(records, t0, sessions, need):
    """The warm-up cut is valid when every session had at least `need`
    requests collected by t0, the first timed instant."""
    done = [0] * sessions
    for rec in records:
        if rec["c"] <= t0:
            done[rec["sess"]] += 1
    return all(n >= need for n in done)


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its children cover. `spans` maps id -> dict(parent, begin, end)."""
    children = {}
    for sid, sp in spans.items():
        if sp["parent"] >= 0:
            children.setdefault(sp["parent"], []).append(sid)
    out = {}
    for sid, sp in spans.items():
        covered = 0.0
        cursor = sp["begin"]
        kids = sorted(
            (spans[k]["begin"], spans[k]["end"]) for k in children.get(sid, [])
        )
        for b, e in kids:
            b, e = max(b, cursor), min(e, sp["end"])
            if e > b:
                covered += e - b
                cursor = e
        out[sid] = (sp["end"] - sp["begin"]) - covered
    return out


def parse_trace(doc):
    """Spans (id -> name, parent, req, calls, begin, end; times in us)
    from the benchmark's one-thread Chrome-trace document. Ids count the
    "B" events in order. A span's parent is the span open around it; its
    request id is its "req" argument, else its parent's (-1 at the top);
    "calls" (default 1) is how many library calls it covers. B/E events
    must balance."""
    spans = {}
    stack = []
    for ev in doc["traceEvents"]:
        if ev["ph"] == "B":
            args = ev.get("args", {})
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans[sid] = {
                "name": ev["name"],
                "parent": parent,
                "req": args.get("req",
                                spans[parent]["req"] if parent >= 0 else -1),
                "calls": args.get("calls", 1),
                "begin": ev["ts"],
                "end": None,
            }
            stack.append(sid)
        elif ev["ph"] == "E":
            if not stack or spans[stack[-1]]["name"] != ev["name"]:
                raise ValueError(f"unbalanced span end {ev['name']!r}")
            spans[stack.pop()]["end"] = ev["ts"]
    if stack:
        raise ValueError("trace ends with open spans")
    return spans
