// tfd::obs — the structured event stream.
//
// Everything the daemon used to printf becomes a typed event serialized
// as one JSON line (JSONL): anomalies with their full per-feature
// context, bin lifecycle, checkpoint saves/restores, quarantine,
// time-base resets, and backpressure. The contract is the ROADMAP's
// "operational surface" arc: everything the daemon knows, an external
// program can read — and the diagnosis arc (SENATUS-style root cause,
// "Am I Rare?" summarization) consumes exactly this record.
//
// Schema versioning: every line carries "v": obs::event_schema_version.
// Additive fields do not bump the version; removing or re-typing a
// field does. scripts/validate_events.py is the executable form of the
// schema table in src/obs/README.md.
//
// Reconciliation contract (pinned by tests/obs/reconcile_test.cpp):
// for a pipeline drained through obs::pipeline_bridge, the event totals
// reconcile exactly with pipeline_metrics — bin_closed events ==
// bins_emitted, the sum of their "records" == records_accumulated,
// anomaly events == anomalies, time_base_reset events ==
// time_base_resets, and the quarantine event sums == the folded
// quarantine counters.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "flow/flow_record.h"

namespace tfd::obs {

/// Bumped when an existing field is removed or re-typed (additive
/// changes ride on the same version).
inline constexpr int event_schema_version = 1;

enum class event_type : int {
    anomaly = 0,
    bin_closed = 1,
    checkpoint_saved = 2,
    checkpoint_restored = 3,
    quarantine = 4,
    time_base_reset = 5,
    backpressure = 6,
    drift = 7,
    recalibrated = 8,
    // 9 is retired and never reused (src/obs/README.md). type_of()
    // maps variant index to value, so a new type must map around it.
};

/// Wire name of an event type ("anomaly", "bin_closed", ...).
const char* event_type_name(event_type t) noexcept;

/// One identified flow inside an anomaly event.
struct anomaly_flow {
    int od = -1;
    std::string origin;  ///< PoP names when the bridge knows the topology
    std::string dest;
    std::array<double, flow::feature_count> magnitude{};
    double spe_after = 0.0;
};

/// An anomalous scored bin, with the per-feature context the diagnosis
/// arc needs: the unit-norm residual direction h_tilde (the per-feature
/// entropy deltas of the top OD) and the recursively identified flows.
struct anomaly_data {
    int od = -1;  ///< top identified OD flow
    std::string origin;
    std::string dest;
    double spe = 0.0;
    double threshold = 0.0;
    double ratio = 0.0;        ///< spe / threshold (alert severity input)
    std::string severity;      ///< "warning" | "major" | "critical"
    bool suppressed = false;   ///< alert deduped by per-OD cooldown
    /// Verdict confidence (additive field, schema stays v1): 1.0
    /// normally, the detector's degraded_confidence while re-learning
    /// after a drift — low-confidence detections are delivered, not
    /// dropped.
    double confidence = 1.0;
    std::array<double, flow::feature_count> h_tilde{};
    std::vector<anomaly_flow> flows;
};

struct bin_closed_data {
    std::uint64_t records = 0;  ///< records accumulated into the bin
    bool empty = false;         ///< gap bin (no records)
    bool scored = false;        ///< false during detector warmup
    bool anomalous = false;
    std::uint64_t close_ns = 0;  ///< harvest + detector push latency
};

struct checkpoint_saved_data {
    std::string path;
    std::uint64_t seq = 0;           ///< checkpoint sequence number
    std::uint64_t bins_emitted = 0;  ///< pipeline cut position
    std::uint64_t records_in = 0;    ///< exact replay-skip position
    std::uint64_t retries = 0;       ///< extra save attempts this write
};

struct checkpoint_restored_data {
    std::string path;
    std::uint64_t bins_emitted = 0;
    std::uint64_t records_in = 0;
    std::uint64_t candidates = 0;  ///< checkpoint files considered
    std::uint64_t skipped = 0;     ///< invalid candidates passed over
};

/// Corrupt-frame quarantine summary for one run() drain (deltas, not
/// cumulative totals — summing all quarantine events reproduces the
/// pipeline counters).
struct quarantine_data {
    std::uint64_t frames = 0;
    std::uint64_t records_lost = 0;
    std::uint64_t resync_bytes = 0;
};

struct time_base_reset_data {
    std::uint64_t from_bin = 0;
    std::uint64_t to_bin = 0;
};

/// Backpressure summary for one run() drain (delta, like quarantine).
struct backpressure_data {
    std::uint64_t blocked_pushes = 0;
    std::uint64_t queue_high_watermark = 0;
};

/// A confirmed distribution shift (core/drift.h): the detector entered
/// its degraded re-learn state at this bin. New event type at v1.
struct drift_data {
    double ph = 0.0;                 ///< Page–Hinkley excursion at confirmation
    double alarm_rate = 0.0;         ///< watchdog alarm fraction at confirmation
    std::uint64_t relearn_bins = 0;  ///< length of the re-learn window starting now
};

/// Recalibration completed: the detector refit from the post-drift
/// window, re-estimated its threshold, and returned to normal.
struct recalibrated_data {
    double threshold = 0.0;           ///< the re-estimated Q-statistic threshold
    std::uint64_t bins_degraded = 0;  ///< bins spent in the degraded state
};

using event_data =
    std::variant<anomaly_data, bin_closed_data, checkpoint_saved_data,
                 checkpoint_restored_data, quarantine_data,
                 time_base_reset_data, backpressure_data, drift_data,
                 recalibrated_data>;

/// One event. `seq` is assigned by the emitter (1-based, strictly
/// increasing per process); `bin` is the pipeline bin the event
/// describes (the cursor's bin for run-scoped events).
struct event {
    std::uint64_t seq = 0;
    std::uint64_t ts_unix_ms = 0;  ///< wall clock at emission
    std::uint64_t bin = 0;
    event_data data;  ///< the alternative determines the wire "type"
};

/// The event_type of `e.data`'s active alternative.
event_type type_of(const event& e) noexcept;

/// Serialize one event as a single JSON line (no trailing newline).
std::string to_jsonl(const event& e);

}  // namespace tfd::obs
