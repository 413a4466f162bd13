#include "obs/event.h"

#include "obs/json.h"

namespace tfd::obs {

namespace {

void write_feature_array(
    json_writer& w, const std::array<double, flow::feature_count>& a) {
    w.begin_array();
    for (const double v : a) w.value(v);
    w.end_array();
}

struct payload_writer {
    json_writer& w;

    void operator()(const anomaly_data& d) {
        w.key("od");
        w.value(d.od);
        if (!d.origin.empty()) {
            w.key("origin");
            w.value(d.origin);
            w.key("dest");
            w.value(d.dest);
        }
        w.key("spe");
        w.value(d.spe);
        w.key("threshold");
        w.value(d.threshold);
        w.key("ratio");
        w.value(d.ratio);
        w.key("severity");
        w.value(d.severity);
        w.key("suppressed");
        w.value(d.suppressed);
        w.key("confidence");
        w.value(d.confidence);
        w.key("h_tilde");
        write_feature_array(w, d.h_tilde);
        w.key("flows");
        w.begin_array();
        for (const anomaly_flow& f : d.flows) {
            w.begin_object();
            w.key("od");
            w.value(f.od);
            if (!f.origin.empty()) {
                w.key("origin");
                w.value(f.origin);
                w.key("dest");
                w.value(f.dest);
            }
            w.key("magnitude");
            write_feature_array(w, f.magnitude);
            w.key("spe_after");
            w.value(f.spe_after);
            w.end_object();
        }
        w.end_array();
    }

    void operator()(const bin_closed_data& d) {
        w.key("records");
        w.value(d.records);
        w.key("empty");
        w.value(d.empty);
        w.key("scored");
        w.value(d.scored);
        w.key("anomalous");
        w.value(d.anomalous);
        w.key("close_ns");
        w.value(d.close_ns);
    }

    void operator()(const checkpoint_saved_data& d) {
        w.key("path");
        w.value(d.path);
        w.key("checkpoint_seq");
        w.value(d.seq);
        w.key("bins_emitted");
        w.value(d.bins_emitted);
        w.key("records_in");
        w.value(d.records_in);
        w.key("retries");
        w.value(d.retries);
    }

    void operator()(const checkpoint_restored_data& d) {
        w.key("path");
        w.value(d.path);
        w.key("bins_emitted");
        w.value(d.bins_emitted);
        w.key("records_in");
        w.value(d.records_in);
        w.key("candidates");
        w.value(d.candidates);
        w.key("skipped");
        w.value(d.skipped);
    }

    void operator()(const quarantine_data& d) {
        w.key("frames");
        w.value(d.frames);
        w.key("records_lost");
        w.value(d.records_lost);
        w.key("resync_bytes");
        w.value(d.resync_bytes);
    }

    void operator()(const time_base_reset_data& d) {
        w.key("from_bin");
        w.value(d.from_bin);
        w.key("to_bin");
        w.value(d.to_bin);
    }

    void operator()(const backpressure_data& d) {
        w.key("blocked_pushes");
        w.value(d.blocked_pushes);
        w.key("queue_high_watermark");
        w.value(d.queue_high_watermark);
    }

    void operator()(const drift_data& d) {
        w.key("ph");
        w.value(d.ph);
        w.key("alarm_rate");
        w.value(d.alarm_rate);
        w.key("relearn_bins");
        w.value(d.relearn_bins);
    }

    void operator()(const recalibrated_data& d) {
        w.key("threshold");
        w.value(d.threshold);
        w.key("bins_degraded");
        w.value(d.bins_degraded);
    }
};

}  // namespace

const char* event_type_name(event_type t) noexcept {
    switch (t) {
        case event_type::anomaly: return "anomaly";
        case event_type::bin_closed: return "bin_closed";
        case event_type::checkpoint_saved: return "checkpoint_saved";
        case event_type::checkpoint_restored: return "checkpoint_restored";
        case event_type::quarantine: return "quarantine";
        case event_type::time_base_reset: return "time_base_reset";
        case event_type::backpressure: return "backpressure";
        case event_type::drift: return "drift";
        case event_type::recalibrated: return "recalibrated";
    }
    return "unknown";
}

event_type type_of(const event& e) noexcept {
    return static_cast<event_type>(static_cast<int>(e.data.index()));
}

std::string to_jsonl(const event& e) {
    json_writer w;
    w.begin_object();
    w.key("v");
    w.value(static_cast<std::int64_t>(event_schema_version));
    w.key("seq");
    w.value(e.seq);
    w.key("ts_ms");
    w.value(e.ts_unix_ms);
    w.key("type");
    w.value(event_type_name(type_of(e)));
    w.key("bin");
    w.value(e.bin);
    std::visit(payload_writer{w}, e.data);
    w.end_object();
    return w.take();
}

}  // namespace tfd::obs
