// Anonymization on the streaming path (the Burkhart et al. invariant):
// prefix-preserving anonymization must survive the codec losslessly,
// and the sharded streaming pipeline over an anonymized trace must
// produce exactly the results of the batch path over the same
// anonymized trace — the ingest boundary neither amplifies nor masks
// the (small) detection impact anonymization itself has.
#include <gtest/gtest.h>

#include <sstream>

#include "core/histogram.h"
#include "flow/anonymizer.h"
#include "net/topology.h"
#include "stream/pipeline.h"
#include "support/feeds.h"
#include "traffic/background.h"

using namespace tfd;
using namespace tfd::stream;
using namespace tfd::test;

namespace {

struct run_output {
    std::vector<std::array<std::vector<double>, flow::feature_count>> entropy;
    std::vector<bool> anomalous;
    std::vector<double> spe;
};

// Stream `records` through the sharded pipeline (after a codec
// round-trip when `through_codec`).
run_output run_streaming(const net::topology& topo,
                         const std::vector<flow::flow_record>& records,
                         bool through_codec, std::size_t shards) {
    pipeline_options opts;
    opts.shards = shards;
    opts.online = small_online();
    stream_pipeline pipeline(topo, opts);
    run_output out;
    pipeline.on_bin([&](const bin_result& r) {
        out.entropy.push_back(r.stats.snapshot.entropies);
        out.anomalous.push_back(r.verdict.anomalous);
        out.spe.push_back(r.verdict.spe);
    });
    if (through_codec) {
        const auto bytes = encode_records(records, {.records_per_frame = 777});
        std::istringstream in(std::string(
            reinterpret_cast<const char*>(bytes.data()), bytes.size()));
        flow_codec_reader reader(in);
        pipeline.run(reader);
    } else {
        pipeline.push(records);
        pipeline.finish();
    }
    return out;
}

// The single-threaded batch path over the same records.
run_output run_batch(const net::topology& topo,
                     const std::vector<flow::flow_record>& records,
                     std::size_t bins) {
    const flow::od_resolver resolver(topo);
    const auto binned = flow::bin_records(resolver, records);
    const auto p = static_cast<std::size_t>(topo.od_count());
    std::vector<std::vector<core::feature_histogram_set>> cells(bins);
    for (auto& row : cells) row.resize(p);
    for (const auto& b : binned) cells[b.bin][b.od].add_record(b.record);

    run_output out;
    core::online_detector det(p, small_online());
    for (std::size_t bin = 0; bin < bins; ++bin) {
        core::entropy_snapshot snap;
        for (auto& e : snap.entropies) e.resize(p);
        for (std::size_t od = 0; od < p; ++od) {
            const auto h = cells[bin][od].entropies();
            for (int f = 0; f < flow::feature_count; ++f)
                snap.entropies[f][od] = h[f];
        }
        const auto v = det.push(snap);
        out.entropy.push_back(snap.entropies);
        out.anomalous.push_back(v.anomalous);
        out.spe.push_back(v.spe);
    }
    return out;
}

}  // namespace

TEST(AnonymizedStreamTest, CodecRoundTripPreservesAnonymizedRecords) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    auto records = make_stream(bg, 2);
    flow::anonymizer anon(11);  // the Abilene public-feed mask
    anon.apply(records);

    const auto decoded = decode_records(encode_records(records));
    ASSERT_EQ(decoded.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(decoded[i].key.src.value, records[i].key.src.value);
        EXPECT_EQ(decoded[i].key.dst.value, records[i].key.dst.value);
        // The mask is still in place after the round trip.
        EXPECT_EQ(decoded[i].key.src.value & 0x7FFu, 0u);
        EXPECT_EQ(decoded[i].key.dst.value & 0x7FFu, 0u);
    }
}

TEST(AnonymizedStreamTest, StreamingEqualsBatchOnAnonymizedTrace) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const std::size_t bins = 8;
    auto records = make_stream(bg, bins);
    flow::anonymizer anon(11);
    anon.apply(records);

    const auto batch = run_batch(topo, records, bins);
    const auto streamed = run_streaming(topo, records, /*through_codec=*/true,
                                        /*shards=*/2);

    ASSERT_EQ(streamed.entropy.size(), bins);
    for (std::size_t bin = 0; bin < bins; ++bin) {
        for (int f = 0; f < flow::feature_count; ++f)
            for (int od = 0; od < topo.od_count(); ++od)
                // Identical entropy timeseries, bit for bit.
                EXPECT_EQ(streamed.entropy[bin][f][od],
                          batch.entropy[bin][f][od])
                    << "bin=" << bin << " f=" << f << " od=" << od;
        // Identical detections.
        EXPECT_EQ(streamed.anomalous[bin], batch.anomalous[bin]);
        EXPECT_EQ(streamed.spe[bin], batch.spe[bin]);
    }
}

TEST(AnonymizedStreamTest, MaskChangesAddressEntropyButNotPorts) {
    // Sanity that the invariant above is not vacuous: the 11-bit mask
    // merges hosts (address entropies drop somewhere) while leaving the
    // port distributions untouched, so port entropies stay bit-identical
    // to the raw trace.
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const std::size_t bins = 4;
    const auto raw_records = make_stream(bg, bins);
    auto anon_records = raw_records;
    flow::anonymizer anon(11);
    anon.apply(anon_records);

    const auto raw = run_streaming(topo, raw_records, false, 2);
    const auto masked = run_streaming(topo, anon_records, false, 2);

    bool address_entropy_changed = false;
    for (std::size_t bin = 0; bin < bins; ++bin) {
        for (int od = 0; od < topo.od_count(); ++od) {
            const auto sip = static_cast<int>(flow::feature::src_ip);
            const auto spt = static_cast<int>(flow::feature::src_port);
            const auto dpt = static_cast<int>(flow::feature::dst_port);
            if (masked.entropy[bin][sip][od] != raw.entropy[bin][sip][od])
                address_entropy_changed = true;
            EXPECT_EQ(masked.entropy[bin][spt][od],
                      raw.entropy[bin][spt][od]);
            EXPECT_EQ(masked.entropy[bin][dpt][od],
                      raw.entropy[bin][dpt][od]);
        }
    }
    EXPECT_TRUE(address_entropy_changed);
}
