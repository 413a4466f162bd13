// Shared test feeds: the small detector configuration the stream and
// obs suites run the pipeline with, and the background-only record
// streams they drive it with. Every record comes from
// traffic::synthesize_cell with an empty schedule — the generator the
// network studies, the campaign runner and the daemon use.
#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "core/online.h"
#include "flow/flow_record.h"
#include "stream/flow_codec.h"
#include "stream/pipeline.h"
#include "traffic/background.h"
#include "traffic/scenario.h"

namespace tfd::test {

/// A detector that scores from the fourth bin and refits every other.
inline core::online_options small_online() {
    core::online_options o;
    o.window = 8;
    o.warmup = 4;
    o.refit_interval = 2;
    o.subspace.normal_dims = 2;
    return o;
}

inline stream::pipeline_options make_opts(std::size_t shards) {
    stream::pipeline_options opts;
    opts.shards = shards;
    opts.online = small_online();
    return opts;
}

/// The background records of one (bin, od) cell.
inline std::vector<flow::flow_record> cell_records(
    const traffic::background_model& bg, std::size_t bin, int od,
    const traffic::generation_tweaks& tweaks = {}) {
    static const traffic::scenario no_anomalies;
    return traffic::synthesize_cell(bg, no_anomalies, bg.options().seed, bin,
                                    od, tweaks);
}

/// One bin's records for every OD, in OD order (the order the batch
/// path feeds each cell).
inline std::vector<flow::flow_record> bin_records(
    const traffic::background_model& bg, std::size_t bin,
    const traffic::generation_tweaks& tweaks = {}) {
    std::vector<flow::flow_record> out;
    for (int od = 0; od < bg.topo().od_count(); ++od) {
        const auto cell = cell_records(bg, bin, od, tweaks);
        out.insert(out.end(), cell.begin(), cell.end());
    }
    return out;
}

/// Bins [0, bins) in bin-major, OD-minor order.
inline std::vector<flow::flow_record> make_stream(
    const traffic::background_model& bg, std::size_t bins) {
    std::vector<flow::flow_record> out;
    for (std::size_t bin = 0; bin < bins; ++bin) {
        const auto records = bin_records(bg, bin);
        out.insert(out.end(), records.begin(), records.end());
    }
    return out;
}

/// A codec spool of bins [0, bins) with one frame per bin — the
/// daemon's framing — so a corrupt frame loses exactly one bin.
inline std::string build_spool(const traffic::background_model& bg,
                               std::size_t bins) {
    std::ostringstream os;
    stream::flow_codec_writer writer(os);
    for (std::size_t bin = 0; bin < bins; ++bin) {
        writer.add(bin_records(bg, bin));
        writer.flush_frame();
    }
    writer.finish();
    return os.str();
}

}  // namespace tfd::test
