#include "scenario/model.h"

#include <set>
#include <stdexcept>

namespace tfd::scenario {

namespace {

constexpr const char* kScenarioKeys[] = {
    "name", "topology", "bins", "seed", "mean_records_per_bin", nullptr};
constexpr const char* kDetectorKeys[] = {
    "window", "warmup", "refit_interval", "normal_dims", "alpha", nullptr};
constexpr const char* kDriftKeys[] = {
    "relearn_bins", "degraded_confidence", "ph_delta",    "ph_lambda",
    "min_shift_bins", "watchdog_window",   "storm_rate",  nullptr};
constexpr const char* kRegimeKeys[] = {
    "kind",      "start_bin",        "duration_bins", "volume_scale",
    "host_rank_offset", "amplitude", "period_bins",   nullptr};
constexpr const char* kAnomalyKeys[] = {
    "type", "start_bin", "duration_bins", "od", "packets_per_second",
    nullptr};
constexpr const char* kDegradationKeys[] = {
    "kind", "start_bin", "duration_bins", "rate", nullptr};
constexpr const char* kTopologyEventKeys[] = {
    "pop", "start_bin", "duration_bins", "residual_scale", nullptr};
constexpr const char* kVariantKeys[] = {"name", "drift", "seed", nullptr};

[[noreturn]] void fail(std::size_t line, const std::string& msg) {
    throw config_error(line, msg);
}

/// The entry's line for error messages, falling back to the section
/// header when the key is absent.
std::size_t line_of(const config_section& s, const char* key) {
    const config_entry* e = s.find(key);
    return e ? e->line : s.line;
}

/// Scenario files use snake_case type names; traffic::parse_anomaly
/// speaks the paper's Table-1 labels ("DDOS", "Flash Crowd"). Accept
/// both.
traffic::anomaly_type parse_anomaly_label(const std::string& name,
                                          std::size_t line) {
    using t = traffic::anomaly_type;
    if (name == "alpha") return t::alpha;
    if (name == "dos") return t::dos;
    if (name == "ddos") return t::ddos;
    if (name == "flash_crowd") return t::flash_crowd;
    if (name == "port_scan") return t::port_scan;
    if (name == "network_scan") return t::network_scan;
    if (name == "worm") return t::worm;
    if (name == "outage") return t::outage;
    if (name == "point_multipoint") return t::point_multipoint;
    try {
        return traffic::parse_anomaly(name);
    } catch (const std::invalid_argument& e) {
        fail(line, e.what());
    }
}

}  // namespace

regime_kind parse_regime_kind(const std::string& name, std::size_t line) {
    if (name == "baseline") return regime_kind::baseline;
    if (name == "diurnal") return regime_kind::diurnal;
    if (name == "flash_crowd") return regime_kind::flash_crowd;
    if (name == "step_drift") return regime_kind::step_drift;
    if (name == "gradual_drift") return regime_kind::gradual_drift;
    fail(line, "unknown regime kind '" + name +
                   "' (baseline|diurnal|flash_crowd|step_drift|"
                   "gradual_drift)");
}

const char* regime_kind_name(regime_kind k) noexcept {
    switch (k) {
        case regime_kind::baseline: return "baseline";
        case regime_kind::diurnal: return "diurnal";
        case regime_kind::flash_crowd: return "flash_crowd";
        case regime_kind::step_drift: return "step_drift";
        case regime_kind::gradual_drift: return "gradual_drift";
    }
    return "unknown";
}

degradation_kind parse_degradation_kind(const std::string& name,
                                        std::size_t line) {
    if (name == "thinning") return degradation_kind::thinning;
    if (name == "feed_gap") return degradation_kind::feed_gap;
    if (name == "reorder") return degradation_kind::reorder;
    if (name == "corrupt_frames") return degradation_kind::corrupt_frames;
    fail(line, "unknown degradation kind '" + name +
                   "' (thinning|feed_gap|reorder|corrupt_frames)");
}

const char* degradation_kind_name(degradation_kind k) noexcept {
    switch (k) {
        case degradation_kind::thinning: return "thinning";
        case degradation_kind::feed_gap: return "feed_gap";
        case degradation_kind::reorder: return "reorder";
        case degradation_kind::corrupt_frames: return "corrupt_frames";
    }
    return "unknown";
}

int scenario_model::od_count() const noexcept {
    return topology == "geant" ? 22 * 22 : 11 * 11;
}

int scenario_model::pop_count() const noexcept {
    return topology == "geant" ? 22 : 11;
}

std::size_t scenario_model::drift_phase_start() const noexcept {
    std::size_t start = bins;
    for (const regime_spec& r : regimes)
        if ((r.kind == regime_kind::step_drift ||
             r.kind == regime_kind::gradual_drift) &&
            r.start_bin < start)
            start = r.start_bin;
    return start;
}

scenario_model parse_scenario(const config_file& file) {
    // Reject unknown section names up front — same policy as unknown
    // keys: a typo fails loudly.
    static const std::set<std::string> known = {
        "scenario", "detector", "drift",          "regime",
        "anomaly",  "degradation", "topology_event", "variant"};
    for (const config_section& s : file.sections)
        if (known.find(s.name) == known.end())
            fail(s.line, "unknown section [" + s.name + "]");

    const config_section* sc = file.first("scenario");
    if (!sc) fail(0, "missing required [scenario] section");
    sc->require_keys(kScenarioKeys);

    scenario_model m;
    m.name = sc->get_string("name");
    if (m.name.empty()) fail(sc->line, "[scenario] requires a name");
    m.topology = sc->get_string("topology", "abilene");
    if (m.topology != "abilene" && m.topology != "geant")
        fail(line_of(*sc, "topology"),
             "topology must be 'abilene' or 'geant'");
    m.bins = sc->get_count("bins", m.bins);
    if (m.bins == 0) fail(line_of(*sc, "bins"), "bins must be >= 1");
    m.seed = sc->get_count("seed", m.seed);
    m.mean_records_per_bin =
        sc->get_number("mean_records_per_bin", m.mean_records_per_bin);
    if (m.mean_records_per_bin <= 0.0)
        fail(line_of(*sc, "mean_records_per_bin"),
             "mean_records_per_bin must be > 0");

    if (const config_section* d = file.first("detector")) {
        d->require_keys(kDetectorKeys);
        m.detector.window = d->get_count("window", m.detector.window);
        m.detector.warmup = d->get_count("warmup", m.detector.warmup);
        m.detector.refit_interval =
            d->get_count("refit_interval", m.detector.refit_interval);
        m.detector.normal_dims = static_cast<int>(
            d->get_int("normal_dims", m.detector.normal_dims));
        m.detector.alpha = d->get_number("alpha", m.detector.alpha);
        if (m.detector.window < 2)
            fail(line_of(*d, "window"), "window must be >= 2");
        if (m.detector.warmup < 1 || m.detector.warmup > m.detector.window)
            fail(line_of(*d, "warmup"), "warmup must be in [1, window]");
        if (m.detector.refit_interval == 0)
            fail(line_of(*d, "refit_interval"),
                 "refit_interval must be >= 1");
        if (m.detector.normal_dims < 1)
            fail(line_of(*d, "normal_dims"), "normal_dims must be >= 1");
        if (m.detector.alpha <= 0.0 || m.detector.alpha >= 1.0)
            fail(line_of(*d, "alpha"), "alpha must be in (0, 1)");
    }

    if (const config_section* d = file.first("drift")) {
        d->require_keys(kDriftKeys);
        m.drift.enabled = true;
        m.drift.relearn_bins =
            d->get_count("relearn_bins", m.drift.relearn_bins);
        m.drift.degraded_confidence =
            d->get_number("degraded_confidence", m.drift.degraded_confidence);
        m.drift.monitor.ph_delta =
            d->get_number("ph_delta", m.drift.monitor.ph_delta);
        m.drift.monitor.ph_lambda =
            d->get_number("ph_lambda", m.drift.monitor.ph_lambda);
        m.drift.monitor.min_shift_bins = static_cast<std::size_t>(
            d->get_count("min_shift_bins", m.drift.monitor.min_shift_bins));
        m.drift.monitor.watchdog_window = static_cast<std::size_t>(
            d->get_count("watchdog_window", m.drift.monitor.watchdog_window));
        m.drift.monitor.storm_rate =
            d->get_number("storm_rate", m.drift.monitor.storm_rate);
        if (m.drift.relearn_bins < 2 ||
            m.drift.relearn_bins > m.detector.window)
            fail(line_of(*d, "relearn_bins"),
                 "relearn_bins must be in [2, detector window]");
        if (m.drift.degraded_confidence < 0.0 ||
            m.drift.degraded_confidence > 1.0)
            fail(line_of(*d, "degraded_confidence"),
                 "degraded_confidence must be in [0, 1]");
        if (m.drift.monitor.ph_lambda <= 0.0)
            fail(line_of(*d, "ph_lambda"), "ph_lambda must be > 0");
        if (m.drift.monitor.ph_delta < 0.0)
            fail(line_of(*d, "ph_delta"), "ph_delta must be >= 0");
        if (m.drift.monitor.min_shift_bins == 0)
            fail(line_of(*d, "min_shift_bins"),
                 "min_shift_bins must be >= 1");
        if (m.drift.monitor.watchdog_window == 0)
            fail(line_of(*d, "watchdog_window"),
                 "watchdog_window must be >= 1");
        if (m.drift.monitor.storm_rate <= 0.0 ||
            m.drift.monitor.storm_rate > 1.0)
            fail(line_of(*d, "storm_rate"), "storm_rate must be in (0, 1]");
    }

    for (const config_section* s : file.all("regime")) {
        s->require_keys(kRegimeKeys);
        regime_spec r;
        const config_entry* kind = s->find("kind");
        if (!kind) fail(s->line, "[regime] requires a kind");
        r.kind = parse_regime_kind(kind->value, kind->line);
        r.start_bin = s->get_count("start_bin", 0);
        r.duration_bins = s->get_count("duration_bins", 0);
        r.volume_scale = s->get_number("volume_scale", 1.0);
        r.host_rank_offset = s->get_count("host_rank_offset", 0);
        r.amplitude = s->get_number("amplitude", 0.0);
        r.period_bins = s->get_count("period_bins", 24);
        if (r.start_bin >= m.bins)
            fail(line_of(*s, "start_bin"),
                 "regime start_bin is past the scenario's last bin");
        if (r.volume_scale <= 0.0)
            fail(line_of(*s, "volume_scale"), "volume_scale must be > 0");
        if (r.kind == regime_kind::diurnal && r.period_bins == 0)
            fail(line_of(*s, "period_bins"),
                 "diurnal regime needs period_bins >= 1");
        if (r.kind == regime_kind::gradual_drift && r.duration_bins == 0)
            fail(line_of(*s, "duration_bins"),
                 "gradual_drift needs an explicit duration_bins for the "
                 "ramp");
        if ((r.kind == regime_kind::diurnal ||
             r.kind == regime_kind::flash_crowd) &&
            r.amplitude < 0.0)
            fail(line_of(*s, "amplitude"), "amplitude must be >= 0");
        m.regimes.push_back(r);
    }

    for (const config_section* s : file.all("anomaly")) {
        s->require_keys(kAnomalyKeys);
        traffic::planted_anomaly a;
        const config_entry* type = s->find("type");
        if (!type) fail(s->line, "[anomaly] requires a type");
        a.type = parse_anomaly_label(type->value, type->line);
        if (a.type == traffic::anomaly_type::none)
            fail(type->line, "anomaly type 'none' plants nothing");
        a.start_bin = s->get_count("start_bin", 0);
        a.duration_bins = s->get_count("duration_bins", 1);
        const auto od = s->get_int("od", -1);
        a.packets_per_second = s->get_number("packets_per_second", 0.0);
        if (a.start_bin >= m.bins)
            fail(line_of(*s, "start_bin"),
                 "anomaly start_bin is past the scenario's last bin");
        if (a.duration_bins == 0)
            fail(line_of(*s, "duration_bins"),
                 "anomaly duration_bins must be >= 1");
        if (od < -1 || od >= m.od_count())
            fail(line_of(*s, "od"), "od out of range for topology " +
                                        m.topology);
        if (od >= 0) a.od_flows.push_back(static_cast<int>(od));
        if (a.packets_per_second < 0.0)
            fail(line_of(*s, "packets_per_second"),
                 "packets_per_second must be >= 0");
        m.anomalies.push_back(std::move(a));
    }

    for (const config_section* s : file.all("degradation")) {
        s->require_keys(kDegradationKeys);
        degradation_spec d;
        const config_entry* kind = s->find("kind");
        if (!kind) fail(s->line, "[degradation] requires a kind");
        d.kind = parse_degradation_kind(kind->value, kind->line);
        d.start_bin = s->get_count("start_bin", 0);
        d.duration_bins = s->get_count("duration_bins", 0);
        d.rate = s->get_number("rate", 0.0);
        if (d.start_bin >= m.bins)
            fail(line_of(*s, "start_bin"),
                 "degradation start_bin is past the scenario's last bin");
        switch (d.kind) {
            case degradation_kind::thinning:
                if (d.rate <= 0.0 || d.rate > 1.0)
                    fail(line_of(*s, "rate"),
                         "thinning rate is the keep probability, in (0, 1]");
                break;
            case degradation_kind::reorder:
            case degradation_kind::corrupt_frames:
                if (d.rate < 0.0 || d.rate > 1.0)
                    fail(line_of(*s, "rate"), "rate must be in [0, 1]");
                break;
            case degradation_kind::feed_gap:
                break;  // rate unused
        }
        m.degradations.push_back(d);
    }

    for (const config_section* s : file.all("topology_event")) {
        s->require_keys(kTopologyEventKeys);
        topology_event_spec t;
        t.pop = static_cast<int>(s->get_int("pop", 0));
        t.start_bin = s->get_count("start_bin", 0);
        t.duration_bins = s->get_count("duration_bins", 1);
        t.residual_scale = s->get_number("residual_scale", t.residual_scale);
        if (t.pop < 0 || t.pop >= m.pop_count())
            fail(line_of(*s, "pop"), "pop out of range for topology " +
                                         m.topology);
        if (t.start_bin >= m.bins)
            fail(line_of(*s, "start_bin"),
                 "topology_event start_bin is past the scenario's last bin");
        if (t.duration_bins == 0)
            fail(line_of(*s, "duration_bins"),
                 "topology_event duration_bins must be >= 1");
        if (t.residual_scale < 0.0 || t.residual_scale > 1.0)
            fail(line_of(*s, "residual_scale"),
                 "residual_scale must be in [0, 1]");
        m.topology_events.push_back(t);
    }

    std::set<std::string> variant_names;
    for (const config_section* s : file.all("variant")) {
        s->require_keys(kVariantKeys);
        variant_spec v;
        v.name = s->get_string("name");
        if (v.name.empty()) fail(s->line, "[variant] requires a name");
        if (!variant_names.insert(v.name).second)
            fail(s->line, "duplicate variant name '" + v.name + "'");
        v.drift_enabled = s->get_bool("drift", m.drift.enabled);
        if (v.drift_enabled && !m.drift.enabled)
            fail(line_of(*s, "drift"),
                 "variant enables drift but the scenario has no [drift] "
                 "section to configure it");
        v.seed = s->get_count("seed", 0);
        m.variants.push_back(std::move(v));
    }
    if (m.variants.empty()) {
        variant_spec v;
        v.name = "default";
        v.drift_enabled = m.drift.enabled;
        m.variants.push_back(std::move(v));
    }

    return m;
}

scenario_model load_scenario(const std::string& path) {
    return parse_scenario(load_config(path));
}

}  // namespace tfd::scenario
