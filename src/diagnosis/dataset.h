// tfd::diagnosis — dataset synthesis for the two studied networks.
//
// Packages the paper's Section 5 data collection: Abilene (11 PoPs,
// 121 OD flows, periodic 1/100 packet sampling, addresses anonymized by
// zeroing the last 11 bits) and Geant (22 PoPs, 484 OD flows, 1/1000
// sampling, no anonymization), three weeks of 5-minute bins, with a
// planted-anomaly schedule as ground truth.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/timeseries.h"
#include "flow/anonymizer.h"
#include "net/topology.h"
#include "traffic/background.h"
#include "traffic/scenario.h"

namespace tfd::diagnosis {

/// Configuration of one network study.
struct dataset_config {
    std::string name;                 ///< "Abilene" or "Geant"
    std::uint64_t seed = 42;
    std::size_t bins = 2016;          ///< default one week; paper used 3 weeks
    double anomalies_per_day = 10.0;
    int anonymize_bits = 0;           ///< 11 for Abilene, 0 for Geant
    traffic::background_options background;
    traffic::scenario_options schedule;

    /// Paper geometry for Abilene; `bins` defaults to one week.
    static dataset_config abilene(std::uint64_t seed = 42,
                                  std::size_t bins = 2016);
    /// Paper geometry for Geant.
    static dataset_config geant(std::uint64_t seed = 43,
                                std::size_t bins = 2016);
};

/// A synthesized network study: topology + background + ground truth,
/// exposing the per-cell record source used to build od_datasets.
class network_study {
public:
    /// Builds topology, background model and anomaly schedule.
    explicit network_study(const dataset_config& config);

    const dataset_config& config() const noexcept { return config_; }
    const net::topology& topo() const noexcept { return *topo_; }
    const traffic::background_model& background() const noexcept {
        return *background_;
    }
    const traffic::scenario& schedule() const noexcept { return schedule_; }

    /// Records for one (bin, od) cell: traffic::synthesize_cell over this
    /// study's schedule, with Abilene-style anonymization if configured.
    std::vector<flow::flow_record> cell_records(std::size_t bin, int od) const;

    /// The cell source bound to this study (safe to copy; refers to this
    /// study, which must outlive the source).
    core::cell_source source() const;

    /// Build the full Figure 3 tensor for this study.
    core::od_dataset build(unsigned threads = 0) const;

private:
    dataset_config config_;
    std::unique_ptr<net::topology> topo_;
    std::unique_ptr<traffic::background_model> background_;
    traffic::scenario schedule_;
    flow::anonymizer anonymizer_;
};

}  // namespace tfd::diagnosis
