// tfd::scenario — the declarative, validated scenario model.
//
// A scenario composes, over a shared bin timeline:
//
//   * background REGIMES — what "normal" looks like and how it moves:
//     diurnal modulation, flash-crowd plateaus, and the step/gradual
//     drifts that stress the detector's calibration;
//   * ANOMALIES — planted events from the Table-1 taxonomy
//     (traffic/anomaly.h), the ground truth the scorer checks against;
//   * DEGRADATIONS — what the measurement substrate does to the data:
//     thinning (extra sampling loss), feed gaps, reordered delivery,
//     corrupt codec frames (via the PR-5 fault injector);
//   * TOPOLOGY EVENTS — PoP-level outages that reshape many OD flows
//     at once;
//   * VARIANTS — the sweep axis: the same world run with different
//     detector policies (drift recalibration on/off, seed overrides).
//
// Everything is validated at load time against the named topology:
// unknown sections, unknown keys, out-of-range bins/ODs/PoPs, or
// nonsensical parameters fail with a config_error carrying the source
// line — a campaign file either loads whole or not at all. See
// src/scenario/README.md for the full schema.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/drift.h"
#include "scenario/config.h"
#include "traffic/anomaly.h"

namespace tfd::scenario {

/// How the background's "normal" behaves over a window of bins.
enum class regime_kind : int {
    baseline,       ///< no modulation (the implicit default everywhere)
    diurnal,        ///< sinusoidal volume swing, period_bins long
    flash_crowd,    ///< plateau: volume * (1 + amplitude) while active
    step_drift,     ///< abrupt, persistent change in volume + host mix
    gradual_drift,  ///< the same change, ramped linearly over the window
};

regime_kind parse_regime_kind(const std::string& name, std::size_t line);
const char* regime_kind_name(regime_kind k) noexcept;

struct regime_spec {
    regime_kind kind = regime_kind::baseline;
    std::size_t start_bin = 0;
    std::size_t duration_bins = 0;  ///< 0 = to the end of the scenario
    double volume_scale = 1.0;      ///< step/gradual target multiplier
    std::size_t host_rank_offset = 0;  ///< step/gradual host-mix shift
    double amplitude = 0.0;         ///< diurnal swing / flash-crowd boost
    std::size_t period_bins = 24;   ///< diurnal period

    bool active_in(std::size_t bin, std::size_t total_bins) const noexcept {
        const std::size_t end =
            duration_bins == 0 ? total_bins : start_bin + duration_bins;
        return bin >= start_bin && bin < end;
    }
};

enum class degradation_kind : int {
    thinning,        ///< keep each record with probability `rate`
    feed_gap,        ///< drop whole bins (the feed goes dark)
    reorder,         ///< delay `rate` of each bin's records into the next
    corrupt_frames,  ///< bit-flip spooled codec bytes at `rate` per byte
};

degradation_kind parse_degradation_kind(const std::string& name,
                                        std::size_t line);
const char* degradation_kind_name(degradation_kind k) noexcept;

struct degradation_spec {
    degradation_kind kind = degradation_kind::thinning;
    std::size_t start_bin = 0;
    std::size_t duration_bins = 0;  ///< 0 = to the end
    /// thinning: keep probability; reorder: delayed fraction;
    /// corrupt_frames: bit-flip probability per spooled byte.
    double rate = 0.0;

    bool active_in(std::size_t bin, std::size_t total_bins) const noexcept {
        const std::size_t end =
            duration_bins == 0 ? total_bins : start_bin + duration_bins;
        return bin >= start_bin && bin < end;
    }
};

struct topology_event_spec {
    int pop = 0;  ///< the PoP whose OD flows are affected
    std::size_t start_bin = 0;
    std::size_t duration_bins = 1;
    /// Residual background volume on flows touching the PoP (0 = hard
    /// outage, 1 = no effect).
    double residual_scale = 0.05;

    bool active_in(std::size_t bin) const noexcept {
        return bin >= start_bin && bin < start_bin + duration_bins;
    }
};

struct detector_spec {
    std::size_t window = 32;
    std::size_t warmup = 16;
    std::size_t refit_interval = 8;
    int normal_dims = 2;
    double alpha = 0.999;  ///< Q-statistic confidence
};

struct drift_spec {
    bool enabled = false;
    std::size_t relearn_bins = 16;
    double degraded_confidence = 0.25;
    core::drift_options monitor{};
};

/// One point of the sweep: the same scenario world under a different
/// detector policy.
struct variant_spec {
    std::string name = "default";
    bool drift_enabled = false;    ///< recalibration on/off for this run
    std::uint64_t seed = 0;        ///< 0 = the scenario's seed
};

struct scenario_model {
    std::string name;
    std::string topology = "abilene";  ///< "abilene" | "geant"
    std::size_t bins = 48;
    std::uint64_t seed = 1;
    double mean_records_per_bin = 90.0;  ///< background density knob
    detector_spec detector{};
    drift_spec drift{};
    std::vector<regime_spec> regimes;
    /// Planted ground truth in file order. An empty od_flows means the
    /// OD is drawn from each variant's seed; packets_per_second = 0
    /// means the type's midpoint intensity (both resolved by the runner).
    std::vector<traffic::planted_anomaly> anomalies;
    std::vector<degradation_spec> degradations;
    std::vector<topology_event_spec> topology_events;
    std::vector<variant_spec> variants;  ///< never empty after parsing

    int od_count() const noexcept;   ///< from the topology name
    int pop_count() const noexcept;

    /// First bin at which a drift regime (step or gradual) begins, or
    /// `bins` when the scenario has none — the scorer's boundary
    /// between the stationary and drift phases.
    std::size_t drift_phase_start() const noexcept;
};

/// Build + validate a scenario from parsed config. Throws config_error
/// with the offending source line on any schema violation.
scenario_model parse_scenario(const config_file& file);

/// load_config + parse_scenario.
scenario_model load_scenario(const std::string& path);

}  // namespace tfd::scenario
