// The fault-tolerance contract, end to end: one seeded fault plan
// injects frame corruption into the spool, a transient write failure
// into the checkpointer, and a mid-bin crash into the consumer — and
// the supervised-restart recovery (restore newest valid checkpoint,
// skip records_in surviving records, continue) must produce, for every
// shard count, a bin sequence bit-identical to a run over the surviving
// records that never crashed at all; bins the corruption did not touch
// must match the fault-free run's entropies exactly; and the fail_fast
// default must abort with a typed error after a byte-identical clean
// prefix. Everything is derived from probed seeds, so a failure replays
// exactly under a debugger.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "io/fault.h"
#include "net/topology.h"
#include "stream/checkpoint.h"
#include "stream/flow_codec.h"
#include "stream/pipeline.h"
#include "support/feeds.h"
#include "traffic/background.h"

using namespace tfd;
using namespace tfd::stream;
using namespace tfd::test;

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kBins = 12;
constexpr double kBitRate = 4e-6;       // ~0.5 expected flips per spool
constexpr double kCkptFailRate = 0.15;  // per checkpoint-write attempt

/// Decode `spool` through a seeded degraded feed under quarantine.
/// Returns the surviving records in order, plus the reader's stats.
std::vector<flow::flow_record> decode_degraded(const std::string& spool,
                                               std::uint64_t seed,
                                               quarantine_stats* stats) {
    std::istringstream clean(spool);
    io::fault_injector faults({.seed = seed, .bit_flip_per_byte = kBitRate});
    io::fault_streambuf degraded(*clean.rdbuf(), faults);
    std::istream in(&degraded);
    codec_read_options opts;
    opts.on_corrupt = corrupt_policy::quarantine;
    flow_codec_reader reader(in, opts);
    std::vector<flow::flow_record> all, frame;
    while (reader.next_frame(frame))
        all.insert(all.end(), frame.begin(), frame.end());
    if (stats) *stats = reader.quarantine();
    return all;
}

std::vector<std::size_t> per_bin_counts(
    std::span<const flow::flow_record> records) {
    std::vector<std::size_t> counts(kBins, 0);
    for (const auto& r : records) {
        const std::size_t b = flow::bin_index(r.first_us);
        if (b < kBins) ++counts[b];
    }
    return counts;
}

/// A seed whose bit flips quarantine at least one mid-stream frame (so
/// there are clean bins on both sides of the loss, and the crash bin
/// two later still exists). Probing documents the precondition instead
/// of hardcoding a magic seed.
std::uint64_t probe_corruption_seed(const std::string& spool,
                                    const std::vector<std::size_t>& clean,
                                    std::size_t* lost_bin) {
    for (std::uint64_t seed = 1; seed < 500; ++seed) {
        quarantine_stats q;
        std::vector<flow::flow_record> survivors;
        try {
            survivors = decode_degraded(spool, seed, &q);
        } catch (const codec_error&) {
            continue;  // header hit or error budget blown — not this seed
        }
        if (q.frames_quarantined == 0 || q.records_lost_corrupt == 0)
            continue;
        // Identify the lowest bin that lost records.
        const auto counts = per_bin_counts(survivors);
        std::size_t lost = kBins;
        for (std::size_t b = 0; b < kBins; ++b)
            if (counts[b] < clean[b]) {
                lost = b;
                break;
            }
        if (lost >= 3 && lost + 4 <= kBins) {
            *lost_bin = lost;
            return seed;
        }
    }
    throw std::logic_error("no corruption seed in probe range");
}

/// A seed that fails exactly one checkpoint-write attempt among the
/// first few, so the retrying saver sees one transient failure and
/// recovers (attempt indices restart at 0 in the restarted worker, so
/// "early" keeps the firing inside both runs' attempt ranges).
std::uint64_t probe_ckpt_seed() {
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
        io::fault_injector probe(
            {.seed = seed, .write_failure_per_call = kCkptFailRate});
        std::size_t fired = 0;
        for (std::uint64_t i = 0; i < 16; ++i)
            if (probe.fires(io::fault_site::write_failure, i, kCkptFailRate))
                ++fired;
        if (fired == 1 &&
            probe.fires(io::fault_site::write_failure, 1, kCkptFailRate))
            return seed;
    }
    throw std::logic_error("no checkpoint-fault seed in probe range");
}

struct temp_dir {
    fs::path path;
    explicit temp_dir(const std::string& tag) {
        path = fs::temp_directory_path() /
               ("tfd_chaos_" + tag + "_" + std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~temp_dir() { fs::remove_all(path); }
};

std::vector<bin_result> run_clean(const net::topology& topo,
                                  const pipeline_options& opts,
                                  std::span<const flow::flow_record> records) {
    stream_pipeline p(topo, opts);
    std::vector<bin_result> bins;
    p.on_bin([&](const bin_result& r) { bins.push_back(r); });
    p.push(records);
    p.finish();
    return bins;
}

void expect_bin_equal(const bin_result& a, const bin_result& b,
                      std::size_t bin) {
    EXPECT_EQ(a.stats.bin, b.stats.bin) << bin;
    EXPECT_EQ(a.stats.records, b.stats.records) << bin;
    for (int f = 0; f < flow::feature_count; ++f)
        EXPECT_EQ(a.stats.snapshot.entropies[f], b.stats.snapshot.entropies[f])
            << "bin " << bin << " feature " << f;
    EXPECT_EQ(a.verdict.scored, b.verdict.scored) << bin;
    EXPECT_EQ(a.verdict.spe, b.verdict.spe) << bin;
    EXPECT_EQ(a.verdict.anomalous, b.verdict.anomalous) << bin;
}

}  // namespace

class ChaosTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChaosTest, SupervisedRecoveryUnderSeededFaultsIsBitExact) {
    const std::size_t shards = GetParam();
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const std::string spool = build_spool(bg, kBins);
    const auto opts = make_opts(shards);

    // Fault-free reference: the whole spool, no faults, no restarts.
    std::vector<flow::flow_record> clean_records;
    {
        std::istringstream in(spool);
        flow_codec_reader reader(in);
        std::vector<flow::flow_record> frame;
        while (reader.next_frame(frame))
            clean_records.insert(clean_records.end(), frame.begin(),
                                 frame.end());
    }
    const auto clean = run_clean(topo, opts, clean_records);
    ASSERT_EQ(clean.size(), kBins);
    const auto clean_counts = per_bin_counts(clean_records);

    // The seeded fault plan: spool corruption losing (at least) bin
    // `lost_bin`, one transient checkpoint-write failure, and a crash
    // two bins after the loss, mid-way through a frame.
    std::size_t lost_bin = 0;
    const std::uint64_t corrupt_seed =
        probe_corruption_seed(spool, clean_counts, &lost_bin);
    const std::uint64_t ckpt_seed = probe_ckpt_seed();
    const std::size_t crash_bin = lost_bin + 2;

    // Surviving-records reference: what an uninterrupted quarantine run
    // over the degraded feed would produce.
    quarantine_stats qstats;
    const auto survivors = decode_degraded(spool, corrupt_seed, &qstats);
    ASSERT_GT(qstats.frames_quarantined, 0u);
    ASSERT_EQ(survivors.size() + qstats.records_lost_corrupt,
              clean_records.size());
    const auto surv_ref = run_clean(topo, opts, survivors);
    ASSERT_EQ(surv_ref.size(), kBins);

    const temp_dir dir("s" + std::to_string(shards));
    checkpoint_options copts;
    copts.save_attempts = 3;
    copts.backoff_initial_us = 0;
    io::fault_injector ckpt_faults(
        {.seed = ckpt_seed, .write_failure_per_call = kCkptFailRate});
    copts.faults = &ckpt_faults;

    // --- attempt 0: ingest the degraded feed, crash mid-bin ----------
    std::vector<bin_result> bins_a;
    std::uint64_t retries_a = 0;
    {
        stream_pipeline p(topo, opts);
        periodic_checkpointer ckpt(p, dir.path.string(), 2, /*keep_last=*/3,
                                   copts);
        p.on_bin([&](const bin_result& r) {
            bins_a.push_back(r);
            ckpt.on_bin_emitted();
        });
        std::istringstream cleanin(spool);
        io::fault_injector faults(
            {.seed = corrupt_seed, .bit_flip_per_byte = kBitRate});
        io::fault_streambuf degraded(*cleanin.rdbuf(), faults);
        std::istream in(&degraded);
        codec_read_options ropts;
        ropts.on_corrupt = corrupt_policy::quarantine;
        flow_codec_reader reader(in, ropts);
        std::vector<flow::flow_record> frame;
        bool crashed = false;
        while (!crashed && reader.next_frame(frame)) {
            if (p.metrics().bins_emitted >= crash_bin && !frame.empty()) {
                // The crash: half a frame lands, then the process dies.
                // Everything since the last checkpoint is lost.
                p.push(std::span(frame).first(frame.size() / 2));
                crashed = true;
                break;
            }
            p.push(frame);
        }
        ASSERT_TRUE(crashed) << "stream ended before the crash bin";
        retries_a = ckpt.save_stats().save_retries;
        EXPECT_EQ(ckpt.save_stats().saves_failed, 0u);
        // No finish(): the pipeline is abandoned exactly as a killed
        // process would leave it.
    }

    // --- attempt 1: restore newest valid checkpoint, replay, finish --
    std::vector<bin_result> bins_b;
    std::uint64_t retries_b = 0;
    std::size_t resume_cursor = 0;
    {
        stream_pipeline p(topo, opts);
        const auto report = restore_latest_checkpoint(p, dir.path.string());
        ASSERT_FALSE(report.restored_path.empty());
        resume_cursor = static_cast<std::size_t>(p.metrics().bins_emitted);
        ASSERT_GT(resume_cursor, 0u);
        ASSERT_LE(resume_cursor, bins_a.size());
        periodic_checkpointer ckpt(p, dir.path.string(), 2, 3, copts);
        p.on_bin([&](const bin_result& r) {
            bins_b.push_back(r);
            ckpt.on_bin_emitted();
        });
        // Replay: the same seed degrades the same bytes, so the
        // surviving record stream is identical and records_in is the
        // exact skip count within it.
        std::uint64_t skip = p.metrics().records_in;
        std::istringstream cleanin(spool);
        io::fault_injector faults(
            {.seed = corrupt_seed, .bit_flip_per_byte = kBitRate});
        io::fault_streambuf degraded(*cleanin.rdbuf(), faults);
        std::istream in(&degraded);
        codec_read_options ropts;
        ropts.on_corrupt = corrupt_policy::quarantine;
        flow_codec_reader reader(in, ropts);
        std::vector<flow::flow_record> frame;
        while (reader.next_frame(frame)) {
            std::span<const flow::flow_record> s(frame);
            if (skip >= s.size()) {
                skip -= s.size();
                continue;
            }
            s = s.subspan(static_cast<std::size_t>(skip));
            skip = 0;
            p.push(s);
        }
        ASSERT_EQ(skip, 0u);
        p.finish();
        retries_b = ckpt.save_stats().save_retries;
        EXPECT_EQ(ckpt.save_stats().saves_failed, 0u);
    }

    // The injected transient write failure fired (attempt index 1 of
    // each worker's own sequence) and the retry absorbed it.
    EXPECT_GE(retries_a + retries_b, 1u);

    // Stitch the authoritative sequence: attempt 0 owns every bin below
    // the restore cursor, attempt 1 re-emits everything from it.
    std::vector<bin_result> stitched(bins_a.begin(),
                                     bins_a.begin() +
                                         static_cast<long>(resume_cursor));
    stitched.insert(stitched.end(), bins_b.begin(), bins_b.end());
    ASSERT_EQ(stitched.size(), kBins);

    // Contract 1: bit-identical to the never-crashed quarantine run —
    // every bin, entropies and verdicts both.
    for (std::size_t b = 0; b < kBins; ++b)
        expect_bin_equal(stitched[b], surv_ref[b], b);

    // Contract 2: bins the corruption did not touch have entropies
    // bit-identical to the fault-free run (the detector's verdicts may
    // legitimately differ after the lost bin shifted its window).
    const auto surviving_counts = per_bin_counts(survivors);
    for (std::size_t b = 0; b < kBins; ++b) {
        if (surviving_counts[b] != clean[b].stats.records) continue;
        for (int f = 0; f < flow::feature_count; ++f)
            EXPECT_EQ(stitched[b].stats.snapshot.entropies[f],
                      clean[b].stats.snapshot.entropies[f])
                << "clean bin " << b << " feature " << f;
    }

    // Contract 3: verdicts before the first lost bin match the
    // fault-free run bit-for-bit (nothing upstream of the corruption
    // may be perturbed by quarantine, checkpointing, or the crash).
    for (std::size_t b = 0; b < lost_bin; ++b)
        expect_bin_equal(stitched[b], clean[b], b);
}

TEST_P(ChaosTest, FailFastDefaultAbortsAfterByteIdenticalPrefix) {
    const std::size_t shards = GetParam();
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const std::string spool = build_spool(bg, kBins);
    const auto opts = make_opts(shards);

    std::vector<flow::flow_record> clean_records;
    {
        std::istringstream in(spool);
        flow_codec_reader reader(in);
        std::vector<flow::flow_record> frame;
        while (reader.next_frame(frame))
            clean_records.insert(clean_records.end(), frame.begin(),
                                 frame.end());
    }
    const auto clean = run_clean(topo, opts, clean_records);

    std::size_t lost_bin = 0;
    const std::uint64_t corrupt_seed = probe_corruption_seed(
        spool, per_bin_counts(clean_records), &lost_bin);

    // Default policy over the degraded feed: typed abort at the first
    // corrupt frame, after a prefix identical to the fault-free run.
    stream_pipeline p(topo, opts);
    std::vector<bin_result> bins;
    p.on_bin([&](const bin_result& r) { bins.push_back(r); });
    std::istringstream cleanin(spool);
    io::fault_injector faults(
        {.seed = corrupt_seed, .bit_flip_per_byte = kBitRate});
    io::fault_streambuf degraded(*cleanin.rdbuf(), faults);
    std::istream in(&degraded);
    flow_codec_reader reader(in);  // fail_fast is the default
    std::vector<flow::flow_record> frame;
    bool threw = false;
    try {
        while (reader.next_frame(frame)) p.push(frame);
    } catch (const codec_error&) {
        threw = true;
    }
    EXPECT_TRUE(threw);
    ASSERT_LE(bins.size(), clean.size());
    for (std::size_t b = 0; b < bins.size(); ++b)
        expect_bin_equal(bins[b], clean[b], b);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ChaosTest,
                         ::testing::Values<std::size_t>(1, 2, 4));
