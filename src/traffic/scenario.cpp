#include "traffic/scenario.h"

#include <algorithm>
#include <stdexcept>

namespace tfd::traffic {

scenario::scenario(std::vector<planted_anomaly> anomalies)
    : anomalies_(std::move(anomalies)) {
    for (std::size_t i = 0; i < anomalies_.size(); ++i) anomalies_[i].id = i;
}

void scenario::add(planted_anomaly a) {
    a.id = anomalies_.size();
    anomalies_.push_back(std::move(a));
}

std::vector<const planted_anomaly*> scenario::find(std::size_t bin,
                                                   int od) const {
    std::vector<const planted_anomaly*> out;
    for (const auto& a : anomalies_) {
        if (!a.active_in(bin)) continue;
        if (std::find(a.od_flows.begin(), a.od_flows.end(), od) !=
            a.od_flows.end())
            out.push_back(&a);
    }
    return out;
}

std::vector<const planted_anomaly*> scenario::at_bin(std::size_t bin) const {
    std::vector<const planted_anomaly*> out;
    for (const auto& a : anomalies_)
        if (a.active_in(bin)) out.push_back(&a);
    return out;
}

bool scenario::bin_is_anomalous(std::size_t bin) const {
    for (const auto& a : anomalies_)
        if (a.active_in(bin)) return true;
    return false;
}

const planted_anomaly* scenario::dominant_at_bin(std::size_t bin) const {
    const planted_anomaly* best = nullptr;
    for (const auto& a : anomalies_) {
        if (!a.active_in(bin)) continue;
        if (!best || a.packets_per_second > best->packets_per_second) best = &a;
    }
    return best;
}

scenario make_random_scenario(const net::topology& topo,
                              const scenario_options& opts) {
    if (opts.bins == 0)
        throw std::invalid_argument("make_random_scenario: bins must be > 0");

    rng gen = rng(opts.seed).derive(0x5CED, 0, 0);
    scenario out;

    // Cumulative type weights for sampling.
    std::vector<anomaly_type> types;
    std::vector<double> cum;
    double total_w = 0.0;
    for (int i = 1; i <= anomaly_type_count; ++i) {
        const auto t = static_cast<anomaly_type>(i);
        if (t == anomaly_type::outage && !opts.include_outages) continue;
        const double w = default_type_weight(t);
        if (w <= 0.0) continue;
        total_w += w;
        types.push_back(t);
        cum.push_back(total_w);
    }
    if (types.empty())
        throw std::invalid_argument("make_random_scenario: no anomaly types");

    const double per_bin =
        opts.anomalies_per_day / static_cast<double>(opts.bins_per_day);

    for (std::size_t bin = 0; bin < opts.bins; ++bin) {
        const std::uint64_t n = gen.poisson(per_bin);
        for (std::uint64_t i = 0; i < n; ++i) {
            const double u = gen.uniform() * total_w;
            const std::size_t ti = static_cast<std::size_t>(
                std::lower_bound(cum.begin(), cum.end(), u) - cum.begin());
            const anomaly_type t = types[std::min(ti, types.size() - 1)];

            planted_anomaly a;
            a.type = t;
            a.start_bin = bin;
            a.duration_bins = 1 + gen.uniform_int(2);

            const auto [lo, hi] = default_intensity_range(t);
            a.packets_per_second = gen.uniform(lo, hi);

            const int p = topo.pop_count();
            if (t == anomaly_type::outage) {
                // A PoP fails: every OD flow originating there dips.
                const int origin = static_cast<int>(gen.uniform_int(p));
                for (int d = 0; d < p; ++d)
                    a.od_flows.push_back(topo.od_index(origin, d));
                a.duration_bins = 1 + gen.uniform_int(3);
            } else if (t == anomaly_type::ddos &&
                       gen.chance(opts.multi_od_ddos_prob)) {
                // Distributed attack converging on one destination from
                // several origin PoPs.
                const int dest = static_cast<int>(gen.uniform_int(p));
                const int k =
                    2 + static_cast<int>(gen.uniform_int(std::max(1, p - 2)));
                std::vector<int> origins;
                for (int o = 0; o < p; ++o)
                    if (o != dest) origins.push_back(o);
                // Deterministic partial shuffle.
                for (std::size_t j = 0; j < origins.size(); ++j) {
                    const std::size_t swap_with =
                        j + gen.uniform_int(origins.size() - j);
                    std::swap(origins[j], origins[swap_with]);
                }
                for (int j = 0; j < k && j < static_cast<int>(origins.size());
                     ++j)
                    a.od_flows.push_back(topo.od_index(origins[j], dest));
            } else {
                const int origin = static_cast<int>(gen.uniform_int(p));
                int dest = static_cast<int>(gen.uniform_int(p));
                if (dest == origin) dest = (dest + 1) % p;
                a.od_flows.push_back(topo.od_index(origin, dest));
            }
            out.add(std::move(a));
        }
    }
    return out;
}

std::vector<flow::flow_record> synthesize_cell(const background_model& bg,
                                               const scenario& truth,
                                               std::uint64_t seed,
                                               std::size_t bin, int od,
                                               generation_tweaks tweaks) {
    const auto active = truth.find(bin, od);
    // An outage suppresses background (and its heavy hitters) instead
    // of adding records; overlapping outages dip the cell once.
    if (std::any_of(active.begin(), active.end(), [](const auto* a) {
            return a->type == anomaly_type::outage;
        })) {
        tweaks.volume_scale *= 0.05;
        tweaks.host_rank_offset += 64;
    }
    auto records = bg.generate(bin, od, tweaks);

    const std::uint64_t bin_us = bg.options().bin_us;
    for (const auto* a : active) {
        if (a->type == anomaly_type::outage) continue;
        anomaly_cell cell;
        cell.type = a->type;
        cell.od = od;
        cell.bin = bin;
        cell.bin_us = bin_us;
        cell.packets = a->packets_per_second *
                       (static_cast<double>(bin_us) / 1e6) /
                       static_cast<double>(a->od_flows.size());
        auto extra = generate_anomaly_records(
            bg.topo(), cell, rng(seed).derive(0xA40, a->id, od));
        records.insert(records.end(), extra.begin(), extra.end());
    }
    return records;
}

}  // namespace tfd::traffic
