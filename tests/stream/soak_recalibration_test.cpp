// Long-horizon soak: one pipeline run that crosses every degraded-
// operation regime the stream layer models — feed gaps, a time-base
// discontinuity, and a persistent distribution shift that drives the
// drift monitor through confirm -> degraded re-learn -> recalibrate.
//
// Pinned here:
//   * the run completes bin-synchronously (no deadlock, every bin
//     emitted in order) across gaps and the era change;
//   * the shift is confirmed exactly once, the degraded window lasts
//     exactly relearn_bins verdicts, and the detector returns to
//     normal;
//   * fresh-fit parity: from the recalibration bin onward, the
//     detector's verdicts are bit-identical to a fresh detector
//     (warmup == relearn_bins) fed only the re-learn window's rows.
#include "stream/pipeline.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/topology.h"
#include "support/feeds.h"
#include "traffic/background.h"

using namespace tfd;
using namespace tfd::stream;

namespace {

core::online_options soak_online() {
    core::online_options o;
    o.window = 24;
    o.warmup = 12;
    // Long cadence: no scheduled refit fires during the run, so the
    // only model changes are the initial fit and the recalibration —
    // which is what makes the fresh-fit comparison exact.
    o.refit_interval = 96;
    o.subspace.normal_dims = 2;
    o.recalibration.enabled = true;
    o.recalibration.relearn_bins = 16;
    o.recalibration.monitor.min_shift_bins = 5;
    o.recalibration.monitor.watchdog_window = 10;
    o.recalibration.monitor.storm_rate = 0.5;
    return o;
}

void push_bin(stream_pipeline& pipeline, const traffic::background_model& bg,
              std::size_t bin, const traffic::generation_tweaks& tweaks) {
    pipeline.push(test::bin_records(bg, bin, tweaks));
}

}  // namespace

TEST(SoakRecalibrationTest, GapsResetAndDriftRecoverWithFreshFitParity) {
    const auto topo = net::topology::abilene();
    // Seasonal modulation off: the generator's latent factors are
    // quasi-periodic, so a large clock jump would itself be a (real)
    // phase shift. This soak wants the *planted* step to be the only
    // distribution change, so the background must be stationary.
    traffic::background_options bopts;
    bopts.diurnal_strength = 0.0;
    const traffic::background_model bg(topo, bopts);

    pipeline_options opts;
    opts.online = soak_online();
    opts.max_gap_bins = 50;  // a 1000-bin jump is a discontinuity
    stream_pipeline pipeline(topo, opts);

    std::vector<bin_result> results;
    pipeline.on_bin([&](const bin_result& r) { results.push_back(r); });
    std::vector<lifecycle_event> lifecycle;
    pipeline.on_lifecycle(
        [&](const lifecycle_event& e) { lifecycle.push_back(e); });

    // Era 1: stationary background, with a 2-bin feed gap at bins 6-7.
    const traffic::generation_tweaks baseline{};
    for (std::size_t bin = 0; bin < 40; ++bin) {
        if (bin == 6 || bin == 7) continue;
        push_bin(pipeline, bg, bin, baseline);
    }

    // Era 2: the feed's clock jumps far past max_gap_bins — a
    // time-base reset, not a gap. 20 stationary bins, then a
    // persistent step change in the traffic itself.
    const traffic::generation_tweaks drifted{.volume_scale = 2.5,
                                             .host_rank_offset = 1024};
    for (std::size_t bin = 1000; bin < 1080; ++bin)
        push_bin(pipeline, bg, bin, bin < 1020 ? baseline : drifted);
    pipeline.finish();

    // ---- stream-layer accounting across the whole soak ----
    const auto& m = pipeline.metrics();
    ASSERT_EQ(results.size(), 120u);  // 40 era-1 bins + 80 era-2 bins
    EXPECT_EQ(m.bins_emitted, 120u);
    EXPECT_EQ(m.empty_bins, 2u);
    EXPECT_EQ(m.time_base_resets, 1u);
    std::size_t resets_seen = 0;
    for (const auto& e : lifecycle)
        if (e.type == lifecycle_event::kind::time_base_reset) {
            ++resets_seen;
            EXPECT_EQ(e.from_bin, 39u);
            EXPECT_EQ(e.to_bin, 1000u);
        }
    EXPECT_EQ(resets_seen, 1u);
    // Bin-synchronous emission order survives the era change.
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i].stats.bin, i < 40 ? i : 1000 + (i - 40)) << i;

    // ---- drift lifecycle: one shift, one bounded re-learn window ----
    std::size_t shift_at = results.size(), recal_at = results.size();
    std::size_t shifts = 0, recals = 0, degraded = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& v = results[i].verdict;
        if (v.drift_detected) {
            ++shifts;
            shift_at = i;
        }
        if (v.recalibrated) {
            ++recals;
            recal_at = i;
        }
        if (v.degraded) {
            ++degraded;
            EXPECT_EQ(v.confidence,
                      opts.online.recalibration.degraded_confidence) << i;
        }
    }
    ASSERT_EQ(shifts, 1u);
    ASSERT_EQ(recals, 1u);
    const std::size_t drift_emit_index = 60;  // era-2 bin 1020
    EXPECT_GE(shift_at, drift_emit_index);
    EXPECT_LT(shift_at, drift_emit_index +
                            opts.online.recalibration.monitor.watchdog_window);
    // The degraded window is exactly the re-learn span: the confirm bin
    // plus relearn_bins - 1 followers; the recalibration bin is scored
    // under the re-learned model at full confidence.
    ASSERT_EQ(recal_at, shift_at + opts.online.recalibration.relearn_bins);
    EXPECT_EQ(degraded, opts.online.recalibration.relearn_bins);
    EXPECT_FALSE(results[recal_at].verdict.degraded);
    EXPECT_EQ(results[recal_at].verdict.confidence, 1.0);
    EXPECT_EQ(pipeline.detector().state(), core::detector_state::normal);
    // Recovery: the post-recalibration tail is quiet again.
    std::size_t tail_alarms = 0;
    for (std::size_t i = recal_at + 1; i < results.size(); ++i)
        if (results[i].verdict.anomalous) ++tail_alarms;
    EXPECT_LE(tail_alarms, (results.size() - recal_at - 1) / 10);

    // ---- fresh-fit parity ----
    // A detector born after the drift, warmed on exactly the re-learn
    // window's rows, must score every bin from the recalibration on
    // bit-identically to the soaked pipeline's detector.
    core::online_options fresh_opts = soak_online();
    fresh_opts.warmup = opts.online.recalibration.relearn_bins;
    fresh_opts.recalibration.enabled = false;
    core::online_detector fresh(
        static_cast<std::size_t>(topo.od_count()), fresh_opts);
    const std::size_t relearn_begin =
        recal_at + 1 - opts.online.recalibration.relearn_bins;
    for (std::size_t i = relearn_begin; i < results.size(); ++i) {
        const core::online_verdict f = fresh.push(results[i].stats.snapshot);
        if (i < recal_at) continue;  // fresh detector still warming up
        const auto& v = results[i].verdict;
        ASSERT_TRUE(f.scored) << i;
        EXPECT_EQ(v.spe, f.spe) << i;
        EXPECT_EQ(v.threshold, f.threshold) << i;
        EXPECT_EQ(v.anomalous, f.anomalous) << i;
    }
}
