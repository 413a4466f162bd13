// tfd::traffic — anomaly schedules (scenarios).
//
// A scenario is the ground truth of an experiment: the set of anomalies
// planted into background traffic, with their types, timebins, OD flows
// and intensities. Random scenarios draw types with Table 3-like
// frequencies and intensities from per-type ranges; the planted list
// doubles as the label set against which detection and classification
// results are scored. synthesize_cell turns a schedule plus a
// background model into the records of one (bin, od) cell: it is the
// one generator behind the network studies, the campaign runner, the
// stream daemon and the test feeds.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "flow/flow_record.h"
#include "net/topology.h"
#include "traffic/anomaly.h"
#include "traffic/background.h"

namespace tfd::traffic {

/// Options for random scenario construction.
struct scenario_options {
    std::uint64_t seed = 42;
    std::size_t bins = 2016;          ///< duration (default one week)
    double anomalies_per_day = 10.0;  ///< expected planted anomalies per day
    std::size_t bins_per_day = 288;
    bool include_outages = true;      ///< plant PoP-wide outage events
    double multi_od_ddos_prob = 0.3;  ///< chance a DDOS spans several origins
};

/// Ground-truth schedule of planted anomalies.
class scenario {
public:
    scenario() = default;
    explicit scenario(std::vector<planted_anomaly> anomalies);

    const std::vector<planted_anomaly>& anomalies() const noexcept {
        return anomalies_;
    }

    /// All anomalies active at (bin, od).
    std::vector<const planted_anomaly*> find(std::size_t bin, int od) const;

    /// All anomalies active at a bin (any OD).
    std::vector<const planted_anomaly*> at_bin(std::size_t bin) const;

    /// True if any anomaly is active at the bin.
    bool bin_is_anomalous(std::size_t bin) const;

    /// The dominant (highest-intensity) anomaly at a bin, if any.
    const planted_anomaly* dominant_at_bin(std::size_t bin) const;

    std::size_t size() const noexcept { return anomalies_.size(); }

    /// Add one anomaly (assigns the next id).
    void add(planted_anomaly a);

private:
    std::vector<planted_anomaly> anomalies_;
};

/// Draw a random scenario over the given network.
///
/// Types are weighted per default_type_weight; intensities drawn from
/// default_intensity_range; DDOS events may span several origin PoPs
/// toward one destination; outages affect every OD flow originating at
/// the failed PoP for 1-3 bins.
scenario make_random_scenario(const net::topology& topo,
                              const scenario_options& opts);

/// Records of one (bin, od) cell: background under `tweaks`, dipped
/// once (x0.05 volume, heavy hitters gone) when a planted outage covers
/// the cell, plus the records of every other planted anomaly active
/// there. An anomaly's intensity is split evenly over its OD flows and
/// spread over the bin; its records are drawn from
/// rng(seed).derive(0xA40, id, od). Deterministic in every argument.
std::vector<flow::flow_record> synthesize_cell(const background_model& bg,
                                               const scenario& truth,
                                               std::uint64_t seed,
                                               std::size_t bin, int od,
                                               generation_tweaks tweaks = {});

}  // namespace tfd::traffic
