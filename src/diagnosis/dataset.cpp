#include "diagnosis/dataset.h"

namespace tfd::diagnosis {

dataset_config dataset_config::abilene(std::uint64_t seed, std::size_t bins) {
    dataset_config c;
    c.name = "Abilene";
    c.seed = seed;
    c.bins = bins;
    c.anonymize_bits = 11;  // the public Abilene feed masks 11 bits
    c.background.seed = seed;
    c.schedule.seed = seed + 1;
    c.schedule.bins = bins;
    c.schedule.anomalies_per_day = c.anomalies_per_day;
    return c;
}

dataset_config dataset_config::geant(std::uint64_t seed, std::size_t bins) {
    dataset_config c;
    c.name = "Geant";
    c.seed = seed;
    c.bins = bins;
    c.anonymize_bits = 0;  // Geant flow records are not anonymized
    c.background.seed = seed;
    // Geant samples 1/1000 vs Abilene's 1/100: an order of magnitude
    // fewer sampled records per cell.
    c.background.mean_records_per_bin = 60;
    // Twice the PoPs and more anomalous events (paper found ~1011 in
    // Geant vs 444 in Abilene over the same three weeks).
    c.anomalies_per_day = 16.0;
    c.schedule.seed = seed + 1;
    c.schedule.bins = bins;
    c.schedule.anomalies_per_day = c.anomalies_per_day;
    return c;
}

network_study::network_study(const dataset_config& config)
    : config_(config),
      anonymizer_(config.anonymize_bits) {
    topo_ = std::make_unique<net::topology>(config_.name == "Geant"
                                                ? net::topology::geant()
                                                : net::topology::abilene());
    auto schedule_opts = config_.schedule;
    schedule_opts.bins = config_.bins;
    schedule_ = traffic::make_random_scenario(*topo_, schedule_opts);
    background_ = std::make_unique<traffic::background_model>(
        *topo_, config_.background);
}

std::vector<flow::flow_record> network_study::cell_records(std::size_t bin,
                                                           int od) const {
    auto records = traffic::synthesize_cell(*background_, schedule_,
                                            config_.seed, bin, od);
    if (config_.anonymize_bits > 0) anonymizer_.apply(records);
    return records;
}

core::cell_source network_study::source() const {
    return [this](std::size_t bin, int od) { return cell_records(bin, od); };
}

core::od_dataset network_study::build(unsigned threads) const {
    return core::build_od_dataset(config_.bins, topo_->od_count(), source(),
                                  threads);
}

}  // namespace tfd::diagnosis
