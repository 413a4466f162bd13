// stream_daemon — the measurement substrate as a collector daemon would
// run it: spool a sampled, anonymized Abilene feed to the binary flow
// codec, and stream the spool through the sharded bin-synchronous
// pipeline into the online detector.
//
//   network_study (Abilene, seed 2024: background + planted anomalies,
//     1-in-100 sampled, 11-bit anonymized) -> flow_codec spool
//     -> producer thread -> bounded queue -> od shards
//     -> per-bin entropy -> online detector
//
// and every stage reports its operational counters at the end. The
// feed comes from the generator the figures use, so its planted
// anomalies are ground truth the verdicts can be checked against.
// packets_per_pop_per_bin sets the feed's density: before the study's
// seasonal modulation, a bin carries pop_count x
// packets_per_pop_per_bin / 100 sampled records on average.
//
// Usage: stream_daemon [bins] [packets_per_pop_per_bin] [shards]
//          [--checkpoint-dir=DIR] [--checkpoint-every-bins=N]
//          [--checkpoint-keep=N] [--checkpoint-keep-hours=H] [--resume]
//          [--on-corrupt=fail-fast|quarantine]
//          [--fault-seed=S] [--fault-spool-bit-rate=R]
//          [--fault-ckpt-fail-rate=R]
//          [--supervise] [--max-restarts=N] [--watchdog-secs=N]
//          [--crash-after-bins=N] [--drift-relearn-bins=N]
//          [--events=FILE] [--events-tcp=HOST:PORT]
//          [--metrics-port=N] [--serve-secs=N]
//
// Observability (tfd::obs): every bin close, anomaly, checkpoint save/
// restore, quarantine fold, time-base reset and backpressure stall is
// a typed event. --events=FILE appends them as schema-versioned JSONL;
// --events-tcp=HOST:PORT streams the same lines to a TCP peer (peer
// loss is survived: lines are dropped-and-counted and the connection
// retried on a bin-paced cooldown). The most recent 256 are always
// retained in memory. --drift-relearn-bins=N arms the detector's drift
// monitor: a confirmed distribution shift triggers an N-bin degraded
// re-learn window, then an exact refit + threshold re-estimation
// (drift/recalibrated events, tfd_detector_state). --metrics-port=N
// serves, on 127.0.0.1 only: /metrics (Prometheus text: adopted
// pipeline counters, derived gauges, per-stage latency histograms),
// /healthz, /alerts (severity-graded, per-OD deduped anomaly state)
// and /events/recent (the retained JSONL). N=0 picks an ephemeral port
// (printed). --serve-secs=S keeps the endpoint alive S seconds after
// the drain so external scrapers can collect a finished run. stdout
// carries only a thin summary — the event stream is the full record.
//
// Checkpointing: with --checkpoint-dir the daemon snapshots its full
// pipeline state (open-bin histograms, detector window + model, cursor,
// counters) to DIR/checkpoint-NNNNNN.tfss every N closed bins (atomic
// write-to-temp + rename, bounded retry on transient failures).
// --checkpoint-keep=N deletes all but the newest N snapshots after each
// successful write. With --resume it restores the newest *valid*
// snapshot first — corrupt or truncated candidates are skipped with a
// report — and skips the already-consumed prefix of the spool
// (metrics().records_in is the exact drained position), so a restarted
// daemon continues mid-trace with no warmup gap and detections
// bit-identical to an uninterrupted run.
//
// Degraded feeds: --on-corrupt=quarantine skips corrupt spool frames
// (counted, resynced) instead of aborting. The --fault-* flags inject
// deterministic, seed-replayable faults (io/fault.h) into the spool
// bytes and the checkpoint writes — chaos testing in one process.
//
// Supervision: --supervise forks the worker and restarts it from the
// last good checkpoint when it crashes or its bin progress stalls past
// --watchdog-secs, up to --max-restarts times. --crash-after-bins=N
// makes the first worker attempt kill itself after N bins (test hook
// for the recovery path).
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "diagnosis/dataset.h"
#include "io/fault.h"
#include "net/topology.h"
#include "obs/alert.h"
#include "obs/bridge.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "stream/checkpoint.h"
#include "stream/pipeline.h"

using namespace tfd;

namespace {

/// Exit code of the deliberate --crash-after-bins test hook, distinct
/// from real failures so the supervisor log names the cause.
constexpr int kCrashExit = 86;

struct daemon_config {
    std::size_t bins = 24;
    std::size_t packets_per_bin = 20000;
    std::size_t shards = 0;
    std::string checkpoint_dir;
    std::size_t checkpoint_every = 8;
    std::size_t checkpoint_keep = 0;
    double checkpoint_keep_hours = 0.0;
    bool resume = false;
    stream::corrupt_policy on_corrupt = stream::corrupt_policy::fail_fast;
    std::uint64_t fault_seed = 0;
    double fault_spool_bit_rate = 0.0;
    double fault_ckpt_fail_rate = 0.0;
    bool supervise = false;
    std::size_t max_restarts = 3;
    std::size_t watchdog_secs = 30;
    std::size_t crash_after_bins = 0;
    std::string events_path;   ///< JSONL event file (empty = none)
    std::string events_tcp_host;  ///< event peer host (empty = none)
    std::uint16_t events_tcp_port = 0;  ///< event peer port, 1-65535
    std::size_t drift_relearn_bins = 0;  ///< 0 = drift monitor off
    int metrics_port = -1;     ///< -1 disabled, 0 ephemeral, else fixed
    std::size_t serve_secs = 0;  ///< keep the endpoint up after the drain
};

/// Synthesize + spool, deterministic for a given config: every worker
/// attempt regenerates the identical spool, which is what lets a
/// restarted worker skip records_in records and land exactly where the
/// checkpoint left off. The records come from an Abilene network study
/// (seed 2024): 1-in-100 sampled, 11-bit anonymized, with planted
/// anomalies, scaled so that each PoP's `packets_per_bin` packets leave
/// packets_per_bin / 100 sampled records per bin on average.
std::string build_spool(const daemon_config& cfg, const net::topology& topo,
                        bool verbose) {
    std::ostringstream spool;
    stream::flow_codec_writer writer(spool, {.records_per_frame = 2048});
    if (cfg.bins > 0 && cfg.packets_per_bin > 0) {
        auto dcfg = diagnosis::dataset_config::abilene(2024, cfg.bins);
        dcfg.background.mean_records_per_bin =
            static_cast<double>(cfg.packets_per_bin) /
            (100.0 * topo.pop_count());
        const diagnosis::network_study study(dcfg);
        for (std::size_t bin = 0; bin < cfg.bins; ++bin) {
            for (int od = 0; od < topo.od_count(); ++od)
                writer.add(study.cell_records(bin, od));
            // A bin boundary is a natural frame boundary for the spool.
            writer.flush_frame();
        }
    }
    writer.finish();
    if (verbose) {
        const auto& ws = writer.stats();
        std::printf("codec spool: %" PRIu64 " records in %" PRIu64
                    " frames, %" PRIu64 " wire "
                    "bytes (%.1f bytes/record vs %zu in-memory)\n\n",
                    ws.records, ws.frames, ws.wire_bytes,
                    ws.records ? static_cast<double>(ws.wire_bytes) /
                                     static_cast<double>(ws.records)
                               : 0.0,
                    sizeof(flow::flow_record));
    }
    return spool.str();
}

std::string progress_path(const daemon_config& cfg) {
    return (std::filesystem::path(cfg.checkpoint_dir) / "progress").string();
}

/// One worker run: build the (deterministic) spool, restore the newest
/// valid checkpoint when resuming, stream, report. `attempt` > 0 means
/// the supervisor restarted us: resume is implied and the deliberate
/// crash hook is disarmed (a crash loop would exhaust the restart
/// budget without testing recovery).
int run_worker(const daemon_config& cfg, std::size_t attempt) {
    const auto topo = net::topology::abilene();
    std::printf("stream_daemon%s: %zu bins x %zu packets at each of %d "
                "ingress PoPs\n\n",
                attempt > 0 ? " [restarted worker]" : "", cfg.bins,
                cfg.packets_per_bin, topo.pop_count());
    const std::string spool = build_spool(cfg, topo, attempt == 0);

    // --- observability surface ------------------------------------------
    // Always on: the registry, per-stage timers, alert manager and the
    // in-memory recent-events ring cost nothing measurable without a
    // scraper attached; the file sink and HTTP endpoint are opt-in.
    obs::metrics_registry registry;
    obs::stage_timers timers = obs::register_stage_timers(registry);
    obs::alert_manager alerts;
    obs::ring_sink recent_events(256);
    obs::tee_sink event_tee;
    event_tee.add(&recent_events);
    std::optional<obs::file_sink> event_file;
    if (!cfg.events_path.empty()) {
        try {
            event_file.emplace(cfg.events_path);
        } catch (const std::system_error& e) {
            std::fprintf(stderr, "stream_daemon: cannot open --events file "
                         "%s: %s\n",
                         cfg.events_path.c_str(), e.what());
            return 2;
        }
        event_tee.add(&*event_file);
    }
    std::optional<obs::tcp_sink> event_tcp;
    if (!cfg.events_tcp_host.empty()) {
        try {
            event_tcp.emplace(cfg.events_tcp_host, cfg.events_tcp_port);
        } catch (const std::system_error& e) {
            std::fprintf(stderr, "stream_daemon: --events-tcp: %s\n",
                         e.what());
            return 2;
        }
        event_tee.add(&*event_tcp);
    }

    // --- stream the spool through the pipeline --------------------------
    stream::pipeline_options popts;
    popts.shards = cfg.shards;
    popts.queue_frames = 4;
    // A short demo run: small window, score as soon as the model exists.
    popts.online.window = 8;
    popts.online.warmup = 4;
    popts.online.refit_interval = 4;
    popts.online.subspace.normal_dims = 2;
    popts.online.refit_timer = timers.refit;
    if (cfg.drift_relearn_bins > 0) {
        popts.online.recalibration.enabled = true;
        popts.online.recalibration.relearn_bins = cfg.drift_relearn_bins;
        // The re-learn window refits from the newest relearn_bins rows,
        // so the detector window must hold at least that many.
        if (popts.online.window < cfg.drift_relearn_bins)
            popts.online.window = cfg.drift_relearn_bins;
    }
    popts.timers = &timers;

    stream::stream_pipeline pipeline(topo, popts);

    obs::bridge_options bopts;
    bopts.sink = &event_tee;
    bopts.registry = &registry;
    bopts.alerts = &alerts;
    bopts.topology = &topo;
    obs::pipeline_bridge bridge(pipeline, bopts);

    // --- checkpoint/restore wiring --------------------------------------
    io::fault_injector ckpt_faults(
        {.seed = cfg.fault_seed,
         .write_failure_per_call = cfg.fault_ckpt_fail_rate});
    std::optional<stream::periodic_checkpointer> checkpointer;
    std::uint64_t skip_records = 0;
    if (!cfg.checkpoint_dir.empty()) {
        std::filesystem::create_directories(cfg.checkpoint_dir);
        stream::checkpoint_options copts;
        copts.jitter_seed = cfg.fault_seed;
        if (cfg.fault_ckpt_fail_rate > 0.0) copts.faults = &ckpt_faults;
        copts.save_timer = timers.checkpoint_write;
        copts.keep_hours = cfg.checkpoint_keep_hours;
        try {
            checkpointer.emplace(pipeline, cfg.checkpoint_dir,
                                 cfg.checkpoint_every, cfg.checkpoint_keep,
                                 copts);
        } catch (const std::invalid_argument& e) {
            std::fprintf(stderr, "stream_daemon: --checkpoint-keep-hours: "
                         "%s\n", e.what());
            return 2;
        }
        bridge.wire_checkpointer(*checkpointer);
        if (cfg.resume || attempt > 0) {
            const auto report =
                stream::restore_latest_checkpoint(pipeline, cfg.checkpoint_dir);
            bridge.emit_checkpoint_restored(report);
            if (!report.restored_path.empty()) {
                skip_records = pipeline.metrics().records_in;
                std::printf("resume: restored %s at bin cursor %" PRIu64
                            " — skipping %" PRIu64
                            " already-consumed records\n",
                            report.restored_path.c_str(),
                            pipeline.metrics().bins_emitted, skip_records);
            } else {
                std::printf("resume: no valid checkpoint in %s — cold "
                            "start\n",
                            cfg.checkpoint_dir.c_str());
            }
            if (report.corrupt_skipped + report.truncated_skipped +
                    report.mismatched_skipped + report.io_failed_skipped >
                0)
                std::printf("resume: scanned %zu candidates (skipped: %zu "
                            "corrupt, %zu truncated, %zu mismatched, %zu "
                            "unreadable)\n",
                            report.candidates, report.corrupt_skipped,
                            report.truncated_skipped, report.mismatched_skipped,
                            report.io_failed_skipped);
            std::printf("\n");
        }
    }

    // --- exposition endpoint --------------------------------------------
    std::optional<obs::http_server> http;
    if (cfg.metrics_port >= 0) {
        obs::http_options hopts;
        hopts.port = static_cast<std::uint16_t>(cfg.metrics_port);
        hopts.registry = &registry;
        hopts.alerts = &alerts;
        hopts.recent_events = &recent_events;
        hopts.healthz = [&bridge] { return bridge.healthz_json(); };
        try {
            http.emplace(std::move(hopts));
        } catch (const std::system_error& e) {
            std::fprintf(stderr, "stream_daemon: %s\n", e.what());
            return 2;
        }
        std::printf("metrics: serving /metrics /healthz /alerts "
                    "/events/recent on 127.0.0.1:%u\n\n",
                    static_cast<unsigned>(http->port()));
    }

    pipeline.on_bin([&](const stream::bin_result& r) {
        // The deliberate crash fires BEFORE the checkpoint hook: the
        // just-emitted bin's progress is lost and recovery must replay
        // it from the previous snapshot — the interesting case.
        if (cfg.crash_after_bins > 0 && attempt == 0 &&
            pipeline.metrics().bins_emitted >= cfg.crash_after_bins) {
            std::printf("worker: deliberate crash after %" PRIu64 " bins\n",
                        pipeline.metrics().bins_emitted);
            std::fflush(stdout);
            _exit(kCrashExit);
        }
        // The bin_closed / anomaly events (bridge) are the full record;
        // stdout keeps a one-line note per anomaly only.
        bridge.observe_bin(r);
        if (r.verdict.scored && r.verdict.anomalous) {
            const auto [o, d] = topo.od_pair(r.verdict.top_od);
            std::printf("bin %3zu: ANOMALY spe=%.3g > %.3g, top OD %s->%s\n",
                        r.stats.bin, r.verdict.spe, r.verdict.threshold,
                        topo.pop_at(o).name.c_str(),
                        topo.pop_at(d).name.c_str());
        }
        if (checkpointer) checkpointer->on_bin_emitted();
        if (cfg.supervise) {
            // Bin-progress heartbeat for the supervisor's watchdog.
            std::ofstream(progress_path(cfg), std::ios::trunc)
                << pipeline.metrics().bins_emitted;
        }
    });

    // --- degraded-feed wiring -------------------------------------------
    std::istringstream clean(spool);
    io::fault_injector spool_faults(
        {.seed = cfg.fault_seed,
         .bit_flip_per_byte = cfg.fault_spool_bit_rate});
    std::optional<io::fault_streambuf> degraded;
    std::optional<std::istream> degraded_stream;
    if (cfg.fault_spool_bit_rate > 0.0) {
        degraded.emplace(*clean.rdbuf(), spool_faults);
        degraded_stream.emplace(&*degraded);
    }
    std::istream& in = degraded_stream ? *degraded_stream : clean;
    stream::codec_read_options ropts;
    ropts.on_corrupt = cfg.on_corrupt;
    stream::flow_codec_reader reader(in, ropts);

    std::size_t frames = 0;
    try {
    if (skip_records == 0) {
        frames = pipeline.run(reader);
    } else {
        // Resume path: skip the exact already-consumed prefix, then
        // feed the rest frame by frame (the producer-thread fast path
        // is pointless while skipping). Under quarantine, records_in
        // counts *surviving* records, and the same fault seed
        // reproduces the same surviving stream — the skip stays exact.
        std::vector<flow::flow_record> frame;
        while (reader.next_frame(frame)) {
            std::span<const flow::flow_record> s(frame);
            if (skip_records >= s.size()) {
                skip_records -= s.size();
                continue;
            }
            s = s.subspan(static_cast<std::size_t>(skip_records));
            skip_records = 0;
            pipeline.push(s);
            ++frames;
        }
        if (skip_records > 0) {
            // The checkpoint is ahead of this spool: a silent "ran to
            // completion with zero new bins" would mask a workload
            // mismatch (the run shape is not config-fingerprinted).
            std::fprintf(stderr,
                         "stream_daemon: checkpoint is %" PRIu64
                         " records ahead "
                         "of this spool — wrong [bins]/[packets] for this "
                         "checkpoint?\n",
                         skip_records);
            return 2;
        }
        pipeline.finish();
        // Note: the restored metrics already count quarantine events the
        // crashed run saw (run() folded them before the checkpoint), and
        // this pass re-decodes the whole spool — so the reader's own
        // counters are reported separately below instead of folded,
        // which would double-count the skipped prefix.
        const auto& q = reader.quarantine();
        if (q.frames_quarantined > 0)
            std::printf("replay: %" PRIu64
                        " corrupt frames re-quarantined while "
                        "skipping the consumed prefix\n",
                        q.frames_quarantined);
    }
    } catch (const stream::codec_error& e) {
        // fail_fast (or an exhausted quarantine error budget): a daemon
        // reports the typed cause and exits nonzero instead of
        // std::terminate-ing through an unhandled exception.
        std::fprintf(stderr, "stream_daemon: ingest aborted: %s\n", e.what());
        return 3;
    } catch (const io::snapshot_error& e) {
        std::fprintf(stderr, "stream_daemon: checkpoint write failed: %s\n",
                     e.what());
        return 3;
    }

    // Expose the post-drain state (quarantine folds, late drops past the
    // last bin close) before the summary and any late scrapes.
    bridge.sync_metrics();

    const auto& m = pipeline.metrics();
    std::printf("\npipeline: %zu frames consumed, %" PRIu64
                " backpressure stalls\n",
                frames, pipeline.last_run_blocked_pushes());
    std::printf("  records in/accumulated : %" PRIu64 " / %" PRIu64 "\n",
                m.records_in, m.records_accumulated);
    std::printf("  resolver drops         : %zu unknown ingress, %zu "
                "unresolvable egress\n",
                m.resolver_drops.unknown_ingress,
                m.resolver_drops.unresolvable_egress);
    std::printf("  late drops             : %" PRIu64 "\n", m.late_records);
    if (m.records_dropped_bad_od > 0)
        std::printf("  bad-OD drops           : %" PRIu64 "\n",
                    m.records_dropped_bad_od);
    std::printf("  bins emitted           : %" PRIu64 " (%" PRIu64
                " empty, %" PRIu64 " anomalous)\n",
                m.bins_emitted, m.empty_bins, m.anomalies);
    if (m.frames_quarantined > 0 || cfg.on_corrupt ==
                                        stream::corrupt_policy::quarantine)
        std::printf("  quarantine             : %" PRIu64
                    " frames skipped, %" PRIu64 " records lost, %" PRIu64
                    " resync bytes\n",
                    m.frames_quarantined, m.records_lost_corrupt,
                    m.resync_bytes_skipped);
    if (checkpointer) {
        const auto& s = checkpointer->save_stats();
        std::printf("  checkpoints            : %zu written, %" PRIu64
                    " retries, %" PRIu64 " failed\n",
                    checkpointer->checkpoints_written(), s.save_retries,
                    s.saves_failed);
    }
    std::printf("  ingest throughput      : %.0f records/s\n",
                m.records_per_second());
    std::printf("  bin close latency      : %.2f ms mean, %.2f ms max\n",
                m.mean_bin_close_ms(),
                static_cast<double>(m.max_bin_close_ns) / 1e6);
    std::printf("  events emitted         : %" PRIu64 " (%" PRIu64
                " alerts, %" PRIu64 " suppressed)%s%s\n",
                bridge.emitter().emitted(), alerts.alerts_total(),
                alerts.suppressed_total(),
                cfg.events_path.empty() ? "" : " -> ",
                cfg.events_path.c_str());
    if (event_tcp)
        std::printf("  events tcp peer        : %" PRIu64 " dropped, %" PRIu64
                    " reconnects%s\n",
                    event_tcp->dropped(), event_tcp->reconnects(),
                    event_tcp->connected() ? "" : " (disconnected)");
    if (cfg.drift_relearn_bins > 0) {
        const auto& det = pipeline.detector();
        std::printf("  detector state         : %s\n",
                    det.state() == core::detector_state::degraded
                        ? "degraded (re-learning)"
                        : "normal");
    }

    if (http && cfg.serve_secs > 0) {
        std::printf("\nmetrics: endpoint stays up %zus for scrapers "
                    "(--serve-secs)\n",
                    cfg.serve_secs);
        std::fflush(stdout);
        std::this_thread::sleep_for(std::chrono::seconds(cfg.serve_secs));
    }
    return 0;
}

/// Fork-based supervisor: run the worker as a child, restart it from
/// the last good checkpoint on crash or on a stalled bin-progress
/// heartbeat, up to cfg.max_restarts restarts. Forks BEFORE the worker
/// constructs any pipeline threads, so the child never inherits a
/// half-alive thread state.
int run_supervised(const daemon_config& cfg) {
    namespace fs = std::filesystem;
    fs::create_directories(cfg.checkpoint_dir);
    for (std::size_t attempt = 0;; ++attempt) {
        std::error_code ec;
        fs::remove(progress_path(cfg), ec);  // stale heartbeat
        const pid_t pid = fork();
        if (pid < 0) {
            std::perror("stream_daemon: fork");
            return 1;
        }
        if (pid == 0) {
            const int rc = run_worker(cfg, attempt);
            // _exit (not exit): never run the parent's atexit state in
            // the child — but flush what the worker printed first.
            std::fflush(stdout);
            std::fflush(stderr);
            _exit(rc);
        }

        // Watchdog: a worker that stops emitting bins (hung queue,
        // livelock) is as dead as a crashed one. The heartbeat is the
        // progress file the worker rewrites after every bin.
        using clock = std::chrono::steady_clock;
        auto last_beat = clock::now();
        std::string last_progress;
        bool watchdog_killed = false;
        int status = 0;
        for (;;) {
            const pid_t done = waitpid(pid, &status, WNOHANG);
            if (done == pid) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            std::ifstream beat(progress_path(cfg));
            std::string progress((std::istreambuf_iterator<char>(beat)),
                                 std::istreambuf_iterator<char>());
            if (progress != last_progress) {
                last_progress = std::move(progress);
                last_beat = clock::now();
            } else if (cfg.watchdog_secs > 0 &&
                       clock::now() - last_beat >
                           std::chrono::seconds(cfg.watchdog_secs)) {
                std::fprintf(stderr,
                             "supervisor: no bin progress for %zus — "
                             "killing worker %d\n",
                             cfg.watchdog_secs, static_cast<int>(pid));
                kill(pid, SIGKILL);
                watchdog_killed = true;
                waitpid(pid, &status, 0);
                break;
            }
        }

        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return 0;
        if (WIFEXITED(status) && WEXITSTATUS(status) == 2)
            return 2;  // configuration error: retrying cannot help
        if (watchdog_killed)
            std::fprintf(stderr, "supervisor: worker stalled\n");
        else if (WIFSIGNALED(status))
            std::fprintf(stderr, "supervisor: worker killed by signal %d\n",
                         WTERMSIG(status));
        else
            std::fprintf(stderr, "supervisor: worker exited with code %d%s\n",
                         WEXITSTATUS(status),
                         WEXITSTATUS(status) == kCrashExit
                             ? " (deliberate test crash)"
                             : "");
        if (attempt >= cfg.max_restarts) {
            std::fprintf(stderr,
                         "supervisor: restart budget exhausted (%zu) — "
                         "giving up\n",
                         cfg.max_restarts);
            return 1;
        }
        std::fprintf(stderr,
                     "supervisor: restarting from last good checkpoint "
                     "(attempt %zu of %zu)\n",
                     attempt + 1, cfg.max_restarts);
    }
}

bool parse_size(const char* v, std::size_t& out) {
    // strtoull skips blanks, accepts a sign ("-1" wraps to 2^64 - 1)
    // and reports overflow only through errno: insist on bare digits
    // that fit.
    if (!std::isdigit(static_cast<unsigned char>(*v))) return false;
    errno = 0;
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (errno == ERANGE || *end != '\0') return false;
    out = n;
    return true;
}

bool parse_rate(const char* v, double& out) {
    char* end = nullptr;
    out = std::strtod(v, &end);
    return end != v && *end == '\0' && out >= 0.0 && out <= 1.0;
}

[[noreturn]] void usage_error(const std::string& detail) {
    std::fprintf(
        stderr,
        "stream_daemon: %s\n"
        "usage: stream_daemon [bins] [packets_per_pop_per_bin] [shards]\n"
        "  [--checkpoint-dir=DIR] [--checkpoint-every-bins=N]\n"
        "  [--checkpoint-keep=N] [--checkpoint-keep-hours=H] [--resume]\n"
        "  [--on-corrupt=fail-fast|quarantine]\n"
        "  [--fault-seed=S] [--fault-spool-bit-rate=R]\n"
        "  [--fault-ckpt-fail-rate=R]\n"
        "  [--supervise] [--max-restarts=N] [--watchdog-secs=N]\n"
        "  [--crash-after-bins=N] [--drift-relearn-bins=N]\n"
        "  [--events=FILE] [--events-tcp=HOST:PORT]\n"
        "  [--metrics-port=N] [--serve-secs=N]\n",
        detail.c_str());
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    daemon_config cfg;
    std::size_t* positional[3] = {&cfg.bins, &cfg.packets_per_bin,
                                  &cfg.shards};
    std::size_t npos = 0;
    const auto value_of = [](const std::string& arg, const char* flag,
                             const char** out) {
        const std::size_t n = std::strlen(flag);
        if (arg.compare(0, n, flag) != 0) return false;
        *out = arg.c_str() + n;
        return true;
    };
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        const char* v = nullptr;
        if (value_of(arg, "--checkpoint-dir=", &v)) {
            cfg.checkpoint_dir = v;
        } else if (value_of(arg, "--checkpoint-every-bins=", &v)) {
            // 0 would write no checkpoint at all, so a supervised
            // restart would silently cold-start instead of resuming.
            if (!parse_size(v, cfg.checkpoint_every) ||
                cfg.checkpoint_every == 0)
                usage_error("--checkpoint-every-bins expects a count >= 1");
        } else if (value_of(arg, "--checkpoint-keep=", &v)) {
            if (!parse_size(v, cfg.checkpoint_keep))
                usage_error("--checkpoint-keep expects a number");
        } else if (value_of(arg, "--checkpoint-keep-hours=", &v)) {
            char* end = nullptr;
            cfg.checkpoint_keep_hours = std::strtod(v, &end);
            if (end == v || *end != '\0' || cfg.checkpoint_keep_hours < 0.0)
                usage_error("--checkpoint-keep-hours expects hours >= 0");
        } else if (arg == "--resume") {
            cfg.resume = true;
        } else if (value_of(arg, "--on-corrupt=", &v)) {
            if (std::strcmp(v, "fail-fast") == 0)
                cfg.on_corrupt = stream::corrupt_policy::fail_fast;
            else if (std::strcmp(v, "quarantine") == 0)
                cfg.on_corrupt = stream::corrupt_policy::quarantine;
            else
                usage_error("--on-corrupt expects fail-fast or quarantine");
        } else if (value_of(arg, "--fault-seed=", &v)) {
            std::size_t seed;
            if (!parse_size(v, seed))
                usage_error("--fault-seed expects a number");
            cfg.fault_seed = seed;
        } else if (value_of(arg, "--fault-spool-bit-rate=", &v)) {
            if (!parse_rate(v, cfg.fault_spool_bit_rate))
                usage_error("--fault-spool-bit-rate expects a rate in [0,1]");
        } else if (value_of(arg, "--fault-ckpt-fail-rate=", &v)) {
            if (!parse_rate(v, cfg.fault_ckpt_fail_rate))
                usage_error("--fault-ckpt-fail-rate expects a rate in [0,1]");
        } else if (arg == "--supervise") {
            cfg.supervise = true;
        } else if (value_of(arg, "--max-restarts=", &v)) {
            if (!parse_size(v, cfg.max_restarts))
                usage_error("--max-restarts expects a number");
        } else if (value_of(arg, "--watchdog-secs=", &v)) {
            if (!parse_size(v, cfg.watchdog_secs))
                usage_error("--watchdog-secs expects a number");
        } else if (value_of(arg, "--crash-after-bins=", &v)) {
            if (!parse_size(v, cfg.crash_after_bins))
                usage_error("--crash-after-bins expects a number");
        } else if (value_of(arg, "--events=", &v)) {
            if (*v == '\0') usage_error("--events expects a file path");
            cfg.events_path = v;
        } else if (value_of(arg, "--events-tcp=", &v)) {
            const char* colon = std::strrchr(v, ':');
            std::size_t port = 0;
            if (colon == nullptr || colon == v ||
                !parse_size(colon + 1, port) || port < 1 || port > 65535)
                usage_error("--events-tcp expects HOST:PORT with a port "
                            "in 1-65535");
            cfg.events_tcp_host.assign(v, colon);
            cfg.events_tcp_port = static_cast<std::uint16_t>(port);
        } else if (value_of(arg, "--drift-relearn-bins=", &v)) {
            if (!parse_size(v, cfg.drift_relearn_bins) ||
                cfg.drift_relearn_bins < 2)
                usage_error("--drift-relearn-bins expects a count >= 2");
        } else if (value_of(arg, "--metrics-port=", &v)) {
            std::size_t port;
            if (!parse_size(v, port) || port > 65535)
                usage_error("--metrics-port expects a port (0 = ephemeral)");
            cfg.metrics_port = static_cast<int>(port);
        } else if (value_of(arg, "--serve-secs=", &v)) {
            if (!parse_size(v, cfg.serve_secs))
                usage_error("--serve-secs expects a number");
        } else if (arg.rfind("--", 0) == 0 || npos >= 3) {
            // A typo'd or space-separated flag must not be silently
            // swallowed as a positional zero (that would reconfigure
            // the run instead of failing).
            usage_error("unrecognized argument '" + arg + "'");
        } else {
            if (!parse_size(arg.c_str(), *positional[npos]))
                usage_error("expected a number, got '" + arg + "'");
            ++npos;
        }
    }
    if (cfg.resume && cfg.checkpoint_dir.empty())
        usage_error("--resume requires --checkpoint-dir");
    if (cfg.supervise && cfg.checkpoint_dir.empty())
        usage_error("--supervise requires --checkpoint-dir (restart "
                    "without durable progress is just a retry loop)");
    if (cfg.crash_after_bins > 0 && !cfg.supervise)
        usage_error("--crash-after-bins only makes sense with --supervise");
    if (cfg.serve_secs > 0 && cfg.metrics_port < 0)
        usage_error("--serve-secs requires --metrics-port");

    return cfg.supervise ? run_supervised(cfg) : run_worker(cfg, 0);
}
