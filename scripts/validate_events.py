#!/usr/bin/env python3
"""Validate a tfd structured-event JSONL stream against schema v1.

The executable form of the schema table in src/obs/README.md: every
line must be a self-contained JSON object carrying the envelope
(v/seq/ts_ms/type/bin) plus the required fields of its type. Additive
fields are allowed without complaint (the schema's compatibility rule),
and so are *unknown event types* — a v1 consumer must tolerate types a
newer producer emits, so those lines are counted (under "?<type>") and
only their envelope is checked. A missing or mistyped required field,
a bad schema version, or a non-monotone sequence number fails the run.

Optional fields that ARE known (e.g. anomaly.confidence, added
additively at v1) are type-checked when present.

Usage:
  scripts/validate_events.py events.jsonl [more.jsonl ...]
  some-daemon | scripts/validate_events.py -
  scripts/validate_events.py --self-test

Exit status: 0 when every line validates, 1 otherwise. A summary of
event counts per type is printed either way.
"""

import io
import json
import sys

SCHEMA_VERSION = 1

# type -> {field: allowed python types}. bool must be checked before int
# (bool is an int subclass), so booleans get their own marker.
U64 = (int,)
I64 = (int,)  # distinct object from U64: negatives allowed (checked by identity)
NUM = (int, float)
STR = (str,)
BOOL = "bool"
ARR = (list,)

ENVELOPE = {"v": U64, "seq": U64, "ts_ms": U64, "type": STR, "bin": U64}

REQUIRED = {
    "anomaly": {
        "od": I64, "spe": NUM, "threshold": NUM, "ratio": NUM,
        "severity": STR, "suppressed": BOOL, "h_tilde": ARR, "flows": ARR,
    },
    "bin_closed": {
        "records": U64, "empty": BOOL, "scored": BOOL, "anomalous": BOOL,
        "close_ns": U64,
    },
    "checkpoint_saved": {
        "path": STR, "checkpoint_seq": U64, "bins_emitted": U64,
        "records_in": U64, "retries": U64,
    },
    "checkpoint_restored": {
        "path": STR, "bins_emitted": U64, "records_in": U64,
        "candidates": U64, "skipped": U64,
    },
    "quarantine": {
        "frames": U64, "records_lost": U64, "resync_bytes": U64,
    },
    "time_base_reset": {"from_bin": U64, "to_bin": U64},
    "backpressure": {"blocked_pushes": U64, "queue_high_watermark": U64},
    "drift": {"ph": NUM, "alarm_rate": NUM, "relearn_bins": U64},
    "recalibrated": {"threshold": NUM, "bins_degraded": U64},
}

# Known additive fields: absent is fine, present must type-check.
OPTIONAL = {
    "anomaly": {"confidence": NUM},
}

SEVERITIES = {"warning", "major", "critical"}


def check_field(obj, field, expected):
    if field not in obj:
        return f"missing required field '{field}'"
    value = obj[field]
    if expected == BOOL:
        if not isinstance(value, bool):
            return f"field '{field}' must be a boolean, got {value!r}"
        return None
    if isinstance(value, bool) or not isinstance(value, expected):
        return f"field '{field}' has wrong type: {value!r}"
    if expected is U64 and value < 0:
        return f"field '{field}' must be non-negative, got {value}"
    return None


def validate_line(obj):
    """Return a list of problems with one parsed event object."""
    problems = []
    for field, expected in ENVELOPE.items():
        err = check_field(obj, field, expected)
        if err:
            problems.append(err)
    if problems:
        return problems

    if obj["v"] != SCHEMA_VERSION:
        problems.append(f"schema version {obj['v']} (expected "
                        f"{SCHEMA_VERSION})")
    etype = obj["type"]
    required = REQUIRED.get(etype)
    if required is None:
        # Forward compatibility: a newer producer may emit types this
        # validator predates. The envelope already checked out; accept.
        return problems
    for field, expected in required.items():
        err = check_field(obj, field, expected)
        if err:
            problems.append(err)
    for field, expected in OPTIONAL.get(etype, {}).items():
        if field in obj:
            err = check_field(obj, field, expected)
            if err:
                problems.append(err)

    if etype == "anomaly" and not problems:
        if obj["severity"] not in SEVERITIES:
            problems.append(f"severity {obj['severity']!r} not in "
                            f"{sorted(SEVERITIES)}")
        if len(obj["h_tilde"]) != 4:
            problems.append(f"h_tilde must have 4 entries, has "
                            f"{len(obj['h_tilde'])}")
        if "confidence" in obj and not 0.0 <= obj["confidence"] <= 1.0:
            problems.append(f"confidence {obj['confidence']!r} outside "
                            f"[0,1]")
        for i, flow in enumerate(obj["flows"]):
            if not isinstance(flow, dict):
                problems.append(f"flows[{i}] is not an object")
                continue
            for f in ("od", "magnitude", "spe_after"):
                if f not in flow:
                    problems.append(f"flows[{i}] missing '{f}'")
    return problems


def validate_stream(lines, source):
    errors = 0
    counts = {}
    prev_seq = None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            print(f"{source}:{lineno}: not valid JSON: {e}", file=sys.stderr)
            errors += 1
            continue
        if not isinstance(obj, dict):
            print(f"{source}:{lineno}: not a JSON object", file=sys.stderr)
            errors += 1
            continue
        problems = validate_line(obj)
        for p in problems:
            print(f"{source}:{lineno}: {p}", file=sys.stderr)
        errors += len(problems)
        if not problems:
            etype = obj["type"]
            key = etype if etype in REQUIRED else "?" + etype
            counts[key] = counts.get(key, 0) + 1
            if prev_seq is not None and obj["seq"] <= prev_seq:
                print(f"{source}:{lineno}: seq {obj['seq']} not greater "
                      f"than previous {prev_seq}", file=sys.stderr)
                errors += 1
            prev_seq = obj["seq"]
    return errors, counts


def self_test():
    """Exercise the validator against known-good and known-bad lines."""
    env = '"v":1,"seq":%d,"ts_ms":10,"bin":%d'

    good = "\n".join([
        '{%s,"type":"bin_closed","records":5,"empty":false,"scored":true,'
        '"anomalous":false,"close_ns":12}' % (env % (1, 0)),
        '{%s,"type":"anomaly","od":3,"spe":2.5,"threshold":1.0,'
        '"ratio":2.5,"severity":"major","suppressed":false,'
        '"confidence":0.25,"h_tilde":[0.1,0.2,0.3,0.4],'
        '"flows":[{"od":3,"magnitude":9.0,"spe_after":0.5}]}' % (env % (2, 1)),
        '{%s,"type":"drift","ph":7.5,"alarm_rate":0.6,"relearn_bins":24}'
        % (env % (3, 2)),
        '{%s,"type":"recalibrated","threshold":0.8,"bins_degraded":24}'
        % (env % (4, 3)),
        # Unknown type from a future producer: envelope-only check.
        '{%s,"type":"frobnicated","whatever":1}' % (env % (5, 4)),
    ])
    errors, counts = validate_stream(io.StringIO(good), "<good>")
    assert errors == 0, f"good stream produced {errors} error(s)"
    assert counts.get("drift") == 1 and counts.get("recalibrated") == 1
    assert counts.get("?frobnicated") == 1, counts

    bad = "\n".join([
        '{%s,"type":"drift","ph":7.5,"alarm_rate":"high",'
        '"relearn_bins":24}' % (env % (1, 0)),            # mistyped field
        '{%s,"type":"recalibrated","threshold":0.8}' % (env % (2, 1)),
                                                          # missing field
        '{%s,"type":"anomaly","od":3,"spe":2.5,"threshold":1.0,'
        '"ratio":2.5,"severity":"major","suppressed":false,'
        '"confidence":1.5,"h_tilde":[0.1,0.2,0.3,0.4],"flows":[]}'
        % (env % (3, 2)),                                 # confidence > 1
        '{%s,"type":"drift","ph":1.0,"alarm_rate":0.1,"relearn_bins":8}'
        % (env % (4, 3)),                                 # clean: seq anchor
        '{%s,"type":"drift","ph":1.0,"alarm_rate":0.1,"relearn_bins":8}'
        % (env % (4, 4)),                                 # seq not monotone
    ])
    sink = io.StringIO()
    stderr, sys.stderr = sys.stderr, sink
    try:
        errors, _ = validate_stream(io.StringIO(bad), "<bad>")
    finally:
        sys.stderr = stderr
    assert errors == 4, f"bad stream produced {errors} error(s) (want 4):\n" \
                        + sink.getvalue()
    print("self-test OK")
    return 0


def main():
    paths = sys.argv[1:]
    if paths == ["--self-test"]:
        return self_test()
    if not paths:
        raise SystemExit(__doc__)
    total_errors = 0
    total_counts = {}
    for path in paths:
        if path == "-":
            errors, counts = validate_stream(sys.stdin, "<stdin>")
        else:
            with open(path) as f:
                errors, counts = validate_stream(f, path)
        total_errors += errors
        for k, v in counts.items():
            total_counts[k] = total_counts.get(k, 0) + v

    total = sum(total_counts.values())
    print(f"{total} valid events: " +
          ", ".join(f"{k}={v}" for k, v in sorted(total_counts.items()))
          if total else "no events")
    if total_errors:
        print(f"{total_errors} schema violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
