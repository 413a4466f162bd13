// tfd::scenario — the experiment runner for long-horizon robustness
// campaigns.
//
// For each variant of a scenario_model, the runner materializes the
// scenario's world bin by bin — traffic::synthesize_cell over the
// variant's ground truth (a traffic::scenario) with the composed regime
// and topology-event tweaks, then the degradations the measurement
// substrate inflicts — streams
// it through the real bin-synchronous pipeline (stream/pipeline.h)
// with the variant's detector policy, and scores the run against the
// scenario's ground truth:
//
//   * detection_rate       — scored planted-anomaly bins flagged;
//   * false_alarm_rate     — scored clean bins flagged, overall and
//                            inside the drift phase (the stock
//                            detector's failure mode the tentpole
//                            fixes);
//   * time_to_recalibrate  — bins from drift-phase start to the
//                            detector's recalibrated verdict.
//
// Everything is deterministic in (scenario, variant): the same file
// yields byte-identical results packets (timestamps excepted), which
// is what lets CI pin campaign outcomes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/model.h"

namespace tfd::scenario {

/// Scores for one variant run.
struct variant_score {
    std::string variant;
    bool drift_enabled = false;

    std::uint64_t bins_emitted = 0;
    std::uint64_t bins_scored = 0;     ///< post-warmup bins
    std::uint64_t anomaly_bins = 0;    ///< scored bins with planted truth
    std::uint64_t true_detections = 0; ///< of those, flagged at full confidence
    std::uint64_t clean_bins = 0;      ///< scored bins without truth
    std::uint64_t false_alarms = 0;    ///< of those, flagged at full confidence
    /// Anomalous verdicts inside a degraded re-learn window. These are
    /// delivered as low-confidence, alert-suppressed events — they do
    /// not page an operator, so they count in neither detections nor
    /// false alarms; they are reported separately instead.
    std::uint64_t low_confidence_alarms = 0;

    /// The same split restricted to the drift phase (bins at or after
    /// scenario.drift_phase_start()).
    std::uint64_t drift_clean_bins = 0;
    std::uint64_t drift_false_alarms = 0;

    std::uint64_t drift_events = 0;     ///< shifts the detector confirmed
    std::uint64_t recalibrations = 0;   ///< completed re-learns
    std::uint64_t degraded_bins = 0;    ///< bins spent re-learning
    /// Bins from drift-phase start to the first recalibrated verdict;
    /// 0 when no recalibration happened (or no drift phase exists).
    std::uint64_t time_to_recalibrate_bins = 0;

    double detection_rate() const noexcept {
        return anomaly_bins ? static_cast<double>(true_detections) /
                                  static_cast<double>(anomaly_bins)
                            : 0.0;
    }
    double false_alarm_rate() const noexcept {
        return clean_bins ? static_cast<double>(false_alarms) /
                                static_cast<double>(clean_bins)
                          : 0.0;
    }
    double drift_false_alarm_rate() const noexcept {
        return drift_clean_bins ? static_cast<double>(drift_false_alarms) /
                                      static_cast<double>(drift_clean_bins)
                                : 0.0;
    }
};

struct campaign_result {
    std::string scenario;
    std::string topology;
    std::uint64_t bins = 0;
    std::uint64_t seed = 0;
    std::uint64_t drift_phase_start = 0;  ///< == bins when no drift phase
    std::vector<variant_score> variants;
};

class experiment_runner {
public:
    /// Throws config_error when the model is internally inconsistent
    /// (parse_scenario already enforces this for file-loaded models).
    explicit experiment_runner(scenario_model model);

    /// Run every variant; deterministic in the model.
    campaign_result run();

    /// Run one variant by name; throws std::invalid_argument on an
    /// unknown name.
    variant_score run_variant(const std::string& name);

    const scenario_model& model() const noexcept { return model_; }

    /// Machine-readable results packet (obs::json, one line).
    static std::string to_json(const campaign_result& result);

private:
    variant_score run_one(const variant_spec& variant);

    scenario_model model_;
};

}  // namespace tfd::scenario
