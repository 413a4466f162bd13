// The reorder ring: with reorder_window_bins = W a bin is held open W
// extra bins of stream time, so stragglers within W bins of the cursor
// are accepted (counted in records_reordered) instead of late-dropped.
// W = 0 is the same ring with an empty window, and with no stragglers
// in the stream every W emits the same bins and verdicts as W = 0.
#include <gtest/gtest.h>

#include <vector>

#include "net/topology.h"
#include "stream/pipeline.h"
#include "support/feeds.h"
#include "traffic/background.h"

using namespace tfd;
using namespace tfd::stream;
using namespace tfd::test;

namespace {

flow::flow_record record_in_bin(const net::topology& topo, std::size_t bin,
                                std::uint64_t offset_us = 7) {
    flow::flow_record r;
    r.ingress_pop = 0;
    r.key.dst = topo.address_in_pop(1, 5);
    r.packets = 3;
    r.bytes = 100;
    r.first_us = bin * flow::default_bin_us + offset_us;
    r.last_us = r.first_us;
    return r;
}

}  // namespace

TEST(ReorderTest, OrderedStreamMatchesDefaultPathBitForBit) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const auto stream = make_stream(bg, 10);

    pipeline_options base;
    base.shards = 2;
    base.online = small_online();
    auto reordered = base;
    reordered.reorder_window_bins = 1;

    std::vector<bin_result> ref, got;
    {
        stream_pipeline p(topo, base);
        p.on_bin([&](const bin_result& r) { ref.push_back(r); });
        p.push(stream);
        p.finish();
    }
    {
        stream_pipeline p(topo, reordered);
        p.on_bin([&](const bin_result& r) { got.push_back(r); });
        p.push(stream);
        p.finish();
        EXPECT_EQ(p.metrics().records_reordered, 0u);
        EXPECT_EQ(p.metrics().late_records, 0u);
    }
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t b = 0; b < ref.size(); ++b) {
        EXPECT_EQ(got[b].stats.bin, ref[b].stats.bin);
        EXPECT_EQ(got[b].stats.records, ref[b].stats.records);
        for (int f = 0; f < flow::feature_count; ++f)
            EXPECT_EQ(got[b].stats.snapshot.entropies[f],
                      ref[b].stats.snapshot.entropies[f]);
        EXPECT_EQ(got[b].verdict.spe, ref[b].verdict.spe);
        EXPECT_EQ(got[b].verdict.anomalous, ref[b].verdict.anomalous);
    }
}

TEST(ReorderTest, StragglerWithinOneBinIsAcceptedAndCounted) {
    const auto topo = net::topology::abilene();
    pipeline_options opts;
    opts.shards = 1;
    opts.online = small_online();
    opts.reorder_window_bins = 1;
    stream_pipeline p(topo, opts);
    std::vector<bin_result> bins;
    p.on_bin([&](const bin_result& r) { bins.push_back(r); });

    // Bin 0 gets one record, bin 1 opens — bin 0 stays held open.
    std::vector<flow::flow_record> batch = {record_in_bin(topo, 0),
                                            record_in_bin(topo, 1)};
    p.push(batch);
    EXPECT_EQ(bins.size(), 0u);  // nothing scored yet: both bins open

    // A straggler for bin 0 lands in the held-open bin.
    std::vector<flow::flow_record> straggler = {record_in_bin(topo, 0, 9)};
    p.push(straggler);
    EXPECT_EQ(p.metrics().records_reordered, 1u);
    EXPECT_EQ(p.metrics().late_records, 0u);

    // Bin 2 arrives: bin 0 (with the straggler) closes; bin 1 is held.
    std::vector<flow::flow_record> fresh = {record_in_bin(topo, 2)};
    p.push(fresh);
    ASSERT_EQ(bins.size(), 1u);
    EXPECT_EQ(bins[0].stats.bin, 0u);
    EXPECT_EQ(bins[0].stats.records, 2u);  // original + straggler

    // Two bins behind the cursor is still late.
    std::vector<flow::flow_record> too_late = {record_in_bin(topo, 0, 11)};
    p.push(too_late);
    EXPECT_EQ(p.metrics().late_records, 1u);
    EXPECT_EQ(p.metrics().records_reordered, 1u);

    p.finish();
    ASSERT_EQ(bins.size(), 3u);
    EXPECT_EQ(bins[1].stats.bin, 1u);
    EXPECT_EQ(bins[2].stats.bin, 2u);
    const auto& m = p.metrics();
    // The counters still partition records_in exactly.
    EXPECT_EQ(m.records_in, m.records_accumulated + m.late_records +
                                m.resolver_drops.total());
}

TEST(ReorderTest, GapBinsStillEmitEmptyAndHoldTheLastBeforeGap) {
    const auto topo = net::topology::abilene();
    pipeline_options opts;
    opts.shards = 1;
    opts.online = small_online();
    opts.reorder_window_bins = 1;
    stream_pipeline p(topo, opts);
    std::vector<bin_result> bins;
    p.on_bin([&](const bin_result& r) { bins.push_back(r); });

    // Jump 0 -> 4: bins 0..2 close (1, 2 empty), bin 3 held empty,
    // bin 4 open. A straggler for bin 3 is then still acceptable.
    std::vector<flow::flow_record> batch = {record_in_bin(topo, 0),
                                            record_in_bin(topo, 4)};
    p.push(batch);
    ASSERT_EQ(bins.size(), 3u);
    EXPECT_EQ(bins[0].stats.records, 1u);
    EXPECT_EQ(bins[1].stats.records, 0u);
    EXPECT_EQ(bins[2].stats.records, 0u);

    std::vector<flow::flow_record> straggler = {record_in_bin(topo, 3)};
    p.push(straggler);
    EXPECT_EQ(p.metrics().records_reordered, 1u);

    p.finish();
    ASSERT_EQ(bins.size(), 5u);
    EXPECT_EQ(bins[3].stats.bin, 3u);
    EXPECT_EQ(bins[3].stats.records, 1u);  // the straggler alone
    EXPECT_EQ(bins[4].stats.bin, 4u);
    EXPECT_EQ(p.metrics().empty_bins, 2u);
}

TEST(ReorderTest, StartupStragglerOpensTheNeverScoredPreviousBin) {
    // "Late" means "already scored": at stream start no bin has a
    // verdict, so an out-of-order record one bin behind the very first
    // cursor must be accepted (retroactively opening the bin), not
    // late-dropped.
    const auto topo = net::topology::abilene();
    pipeline_options opts;
    opts.shards = 1;
    opts.online = small_online();
    opts.reorder_window_bins = 1;
    stream_pipeline p(topo, opts);
    std::vector<bin_result> bins;
    p.on_bin([&](const bin_result& r) { bins.push_back(r); });

    // First record lands in bin 1; a bin-0 record follows out of order.
    std::vector<flow::flow_record> batch = {record_in_bin(topo, 1),
                                            record_in_bin(topo, 0)};
    p.push(batch);
    EXPECT_EQ(p.metrics().records_reordered, 1u);
    EXPECT_EQ(p.metrics().late_records, 0u);

    p.finish();
    ASSERT_EQ(bins.size(), 2u);
    EXPECT_EQ(bins[0].stats.bin, 0u);
    EXPECT_EQ(bins[0].stats.records, 1u);
    EXPECT_EQ(bins[1].stats.bin, 1u);
    EXPECT_EQ(bins[1].stats.records, 1u);

    // But once a bin HAS been scored, a record one behind the cursor
    // is still late — no retroactive reopen of a scored bin.
    std::vector<flow::flow_record> after = {record_in_bin(topo, 2),
                                            record_in_bin(topo, 1)};
    p.push(after);
    EXPECT_EQ(p.metrics().late_records, 1u);
    EXPECT_EQ(p.metrics().records_reordered, 1u);
}

TEST(ReorderTest, StragglerAfterBackwardTimeBaseResetIsAccepted) {
    // Bin indices are era-local: after a backward reset starts a new
    // era, a straggler one bin behind the new cursor has no verdict in
    // this era and must be accepted, not late-dropped.
    const auto topo = net::topology::abilene();
    pipeline_options opts;
    opts.shards = 1;
    opts.online = small_online();
    opts.reorder_window_bins = 1;
    opts.max_gap_bins = 10;
    stream_pipeline p(topo, opts);
    std::vector<bin_result> bins;
    p.on_bin([&](const bin_result& r) { bins.push_back(r); });

    std::vector<flow::flow_record> batch = {record_in_bin(topo, 100),
                                            record_in_bin(topo, 5),
                                            record_in_bin(topo, 4)};
    p.push(batch);
    // Bin 100 closed by the backward reset; bin 5 is current, bin 4
    // retro-opened for the straggler.
    EXPECT_EQ(p.metrics().time_base_resets, 1u);
    EXPECT_EQ(p.metrics().records_reordered, 1u);
    EXPECT_EQ(p.metrics().late_records, 0u);
    p.finish();
    ASSERT_EQ(bins.size(), 3u);
    EXPECT_EQ(bins[0].stats.bin, 100u);
    EXPECT_EQ(bins[1].stats.bin, 4u);
    EXPECT_EQ(bins[2].stats.bin, 5u);
    EXPECT_EQ(bins[1].stats.records, 1u);
}

TEST(ReorderTest, WindowLimitsAreEnforced) {
    const auto topo = net::topology::abilene();
    pipeline_options opts;
    opts.online = small_online();
    opts.reorder_window_bins = 64;  // the cap itself is accepted
    stream_pipeline ok(topo, opts);
    opts.reorder_window_bins = 65;
    EXPECT_THROW(stream_pipeline(topo, opts), std::invalid_argument);
    // The window may not exceed max_gap_bins: a straggler inside the
    // window must never read as a time-base discontinuity.
    opts.reorder_window_bins = 8;
    opts.max_gap_bins = 4;
    EXPECT_THROW(stream_pipeline(topo, opts), std::invalid_argument);
}

TEST(ReorderTest, DeepWindowOrderedStreamMatchesDefaultPathBitForBit) {
    // The W=1 contract generalizes: for any window depth, an in-order
    // stream produces bins and verdicts identical to reorder off.
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const auto stream = make_stream(bg, 10);

    pipeline_options base;
    base.shards = 2;
    base.online = small_online();
    std::vector<bin_result> ref;
    {
        stream_pipeline p(topo, base);
        p.on_bin([&](const bin_result& r) { ref.push_back(r); });
        p.push(stream);
        p.finish();
    }
    for (const std::size_t w : {2u, 5u, 64u}) {
        auto opts = base;
        opts.reorder_window_bins = w;
        std::vector<bin_result> got;
        stream_pipeline p(topo, opts);
        p.on_bin([&](const bin_result& r) { got.push_back(r); });
        p.push(stream);
        p.finish();
        EXPECT_EQ(p.metrics().records_reordered, 0u) << w;
        ASSERT_EQ(got.size(), ref.size()) << w;
        for (std::size_t b = 0; b < ref.size(); ++b) {
            EXPECT_EQ(got[b].stats.bin, ref[b].stats.bin) << w;
            for (int f = 0; f < flow::feature_count; ++f)
                EXPECT_EQ(got[b].stats.snapshot.entropies[f],
                          ref[b].stats.snapshot.entropies[f])
                    << w << ":" << b;
            EXPECT_EQ(got[b].verdict.spe, ref[b].verdict.spe) << w << ":" << b;
        }
    }
}

TEST(ReorderTest, StragglersUpToWindowDepthAreAccepted) {
    const auto topo = net::topology::abilene();
    pipeline_options opts;
    opts.shards = 1;
    opts.online = small_online();
    opts.reorder_window_bins = 3;
    stream_pipeline p(topo, opts);
    std::vector<bin_result> bins;
    p.on_bin([&](const bin_result& r) { bins.push_back(r); });

    // Bins 0..4 arrive in order; with W = 3 the cursor at 4 keeps bins
    // 1, 2, 3 held open and has scored only bin 0.
    std::vector<flow::flow_record> batch;
    for (std::size_t b = 0; b <= 4; ++b) batch.push_back(record_in_bin(topo, b));
    p.push(batch);
    ASSERT_EQ(bins.size(), 1u);
    EXPECT_EQ(bins[0].stats.bin, 0u);

    // Stragglers one, two, and three bins behind the cursor all land.
    std::vector<flow::flow_record> stragglers = {record_in_bin(topo, 3, 9),
                                                 record_in_bin(topo, 2, 9),
                                                 record_in_bin(topo, 1, 9)};
    p.push(stragglers);
    EXPECT_EQ(p.metrics().records_reordered, 3u);
    EXPECT_EQ(p.metrics().late_records, 0u);

    // Four bins behind (bin 0, already scored) is late.
    std::vector<flow::flow_record> too_late = {record_in_bin(topo, 0, 11)};
    p.push(too_late);
    EXPECT_EQ(p.metrics().late_records, 1u);

    p.finish();
    ASSERT_EQ(bins.size(), 5u);
    const std::uint64_t expect_records[5] = {1, 2, 2, 2, 1};
    for (std::size_t b = 0; b < 5; ++b) {
        EXPECT_EQ(bins[b].stats.bin, b);
        EXPECT_EQ(bins[b].stats.records, expect_records[b]);
    }
    const auto& m = p.metrics();
    EXPECT_EQ(m.records_in, m.records_accumulated + m.late_records +
                                m.resolver_drops.total());
}

TEST(ReorderTest, JumpBeyondWindowKeepsImplicitBinsStragglerEligible) {
    // A forward jump wider than the window emits everything below the
    // window's new lower edge; the in-window bins nothing landed in yet
    // stay implicit: a straggler retro-opens one, and the rest emit as
    // empty gap bins in ascending order.
    const auto topo = net::topology::abilene();
    pipeline_options opts;
    opts.shards = 1;
    opts.online = small_online();
    opts.reorder_window_bins = 4;
    stream_pipeline p(topo, opts);
    std::vector<bin_result> bins;
    p.on_bin([&](const bin_result& r) { bins.push_back(r); });

    std::vector<flow::flow_record> batch = {record_in_bin(topo, 0),
                                            record_in_bin(topo, 10)};
    p.push(batch);
    // Window is now [6, 10]: bins 0..5 scored, 6..9 implicit.
    ASSERT_EQ(bins.size(), 6u);

    std::vector<flow::flow_record> straggler = {record_in_bin(topo, 7)};
    p.push(straggler);
    EXPECT_EQ(p.metrics().records_reordered, 1u);
    EXPECT_EQ(p.metrics().late_records, 0u);
    std::vector<flow::flow_record> late = {record_in_bin(topo, 5, 9)};
    p.push(late);
    EXPECT_EQ(p.metrics().late_records, 1u);

    p.finish();
    ASSERT_EQ(bins.size(), 11u);
    for (std::size_t b = 0; b < 11; ++b) {
        EXPECT_EQ(bins[b].stats.bin, b);
        EXPECT_EQ(bins[b].stats.records,
                  (b == 0 || b == 7 || b == 10) ? 1u : 0u);
    }
}

TEST(ReorderTest, DeepWindowCheckpointRoundTripIsBitIdentical) {
    // A snapshot cut while several bins are held open restores the full
    // ring: the resumed pipeline finishes bit-identically to the
    // uninterrupted one.
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const auto stream = make_stream(bg, 8);
    pipeline_options opts;
    opts.shards = 2;
    opts.online = small_online();
    opts.reorder_window_bins = 3;

    std::vector<bin_result> ref;
    {
        stream_pipeline p(topo, opts);
        p.on_bin([&](const bin_result& r) { ref.push_back(r); });
        p.push(stream);
        p.finish();
    }

    stream_pipeline p(topo, opts);
    std::vector<bin_result> got;
    p.on_bin([&](const bin_result& r) { got.push_back(r); });
    const std::size_t half = stream.size() / 2;  // mid-bin, ring populated
    p.push(std::span(stream).first(half));

    io::snapshot_writer snap(p.config_fingerprint());
    p.save_state(snap);
    const io::snapshot_reader loaded(snap.serialize(),
                                     p.config_fingerprint());
    stream_pipeline q(topo, opts);
    q.on_bin([&](const bin_result& r) { got.push_back(r); });
    q.restore_state(loaded);
    q.push(std::span(stream).subspan(
        static_cast<std::size_t>(q.metrics().records_in)));
    q.finish();

    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t b = 0; b < ref.size(); ++b) {
        EXPECT_EQ(got[b].stats.bin, ref[b].stats.bin);
        EXPECT_EQ(got[b].stats.records, ref[b].stats.records);
        for (int f = 0; f < flow::feature_count; ++f)
            EXPECT_EQ(got[b].stats.snapshot.entropies[f],
                      ref[b].stats.snapshot.entropies[f])
                << b;
        EXPECT_EQ(got[b].verdict.spe, ref[b].verdict.spe) << b;
        EXPECT_EQ(got[b].verdict.anomalous, ref[b].verdict.anomalous) << b;
    }
}

TEST(ReorderTest, VerdictsMatchAStreamThatWasNeverOutOfOrder) {
    // The semantic contract: accepting a straggler must produce the
    // same bins as if the record had arrived in order.
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    auto stream = make_stream(bg, 8);

    // Displace one mid-stream record to one bin later in arrival order:
    // find the first record of bin 5 and move a bin-4 record after it.
    const auto bin_of = [&](const flow::flow_record& r) {
        return flow::bin_index(r.first_us);
    };
    std::size_t first_b5 = 0;
    for (std::size_t i = 0; i < stream.size(); ++i)
        if (bin_of(stream[i]) == 5) {
            first_b5 = i;
            break;
        }
    ASSERT_GT(first_b5, 0u);
    auto shuffled = stream;
    const flow::flow_record displaced = shuffled[first_b5 - 1];
    ASSERT_EQ(bin_of(displaced), 4u);
    shuffled.erase(shuffled.begin() + static_cast<long>(first_b5 - 1));
    // Re-insert a little later, still before bin 6 starts.
    shuffled.insert(shuffled.begin() + static_cast<long>(first_b5 + 2),
                    displaced);

    pipeline_options opts;
    opts.shards = 2;
    opts.online = small_online();
    opts.reorder_window_bins = 1;

    std::vector<bin_result> ref, got;
    {
        stream_pipeline p(topo, opts);
        p.on_bin([&](const bin_result& r) { ref.push_back(r); });
        p.push(stream);  // in-order stream
        p.finish();
    }
    {
        stream_pipeline p(topo, opts);
        p.on_bin([&](const bin_result& r) { got.push_back(r); });
        p.push(shuffled);  // same records, one straggler
        p.finish();
        EXPECT_EQ(p.metrics().records_reordered, 1u);
        EXPECT_EQ(p.metrics().late_records, 0u);
    }
    ASSERT_EQ(got.size(), ref.size());
    // The displaced record was the last of its bin in stream order, so
    // per-cell accumulation order is preserved and the comparison can
    // be bitwise.
    for (std::size_t b = 0; b < ref.size(); ++b) {
        EXPECT_EQ(got[b].stats.records, ref[b].stats.records) << b;
        for (int f = 0; f < flow::feature_count; ++f)
            EXPECT_EQ(got[b].stats.snapshot.entropies[f],
                      ref[b].stats.snapshot.entropies[f])
                << b;
        EXPECT_EQ(got[b].verdict.spe, ref[b].verdict.spe) << b;
        EXPECT_EQ(got[b].verdict.anomalous, ref[b].verdict.anomalous) << b;
    }
}
