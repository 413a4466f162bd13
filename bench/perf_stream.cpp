// perf_stream — google-benchmark microbenchmarks for the tfd::stream
// ingest path: codec encode/decode, sharded OD accumulation at several
// shard counts, and the end-to-end bin-synchronous pipeline (ingest
// throughput in records/s and per-bin close latency).
//
// Recorded into BENCH_core.json alongside perf_core by
// scripts/bench_to_json.py (the bench_json target runs both binaries).
#include <benchmark/benchmark.h>

#include <map>
#include <sstream>

#include "flow/od_aggregator.h"
#include "linalg/simd.h"
#include "net/topology.h"
#include "obs/alert.h"
#include "obs/bridge.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "stream/flow_codec.h"
#include "stream/pipeline.h"
#include "stream/shard.h"
#include "traffic/background.h"

using namespace tfd;

namespace {

const net::topology& abilene() {
    static const auto t = net::topology::abilene();
    return t;
}

const traffic::background_model& background() {
    static const traffic::background_model bg(abilene());
    return bg;
}

// One synthetic Abilene bin as a flat record stream (every OD cell,
// stamped into the right 5-minute window), reused across iterations.
std::vector<flow::flow_record> bin_stream(std::size_t bin) {
    std::vector<flow::flow_record> out;
    for (int od = 0; od < abilene().od_count(); ++od) {
        auto cell = background().generate(bin, od);
        out.insert(out.end(), cell.begin(), cell.end());
    }
    return out;
}

const std::vector<flow::flow_record>& day_stream() {
    // 16 bins is enough to exercise refits without minutes of setup.
    static const std::vector<flow::flow_record> s = [] {
        std::vector<flow::flow_record> all;
        for (std::size_t bin = 0; bin < 16; ++bin) {
            auto b = bin_stream(bin);
            all.insert(all.end(), b.begin(), b.end());
        }
        return all;
    }();
    return s;
}

void bm_stream_codec_encode(benchmark::State& state) {
    const auto& records = day_stream();
    for (auto _ : state) {
        auto bytes = stream::encode_records(records);
        benchmark::DoNotOptimize(bytes.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(records.size()));
}
BENCHMARK(bm_stream_codec_encode)->Unit(benchmark::kMillisecond);

void bm_stream_codec_decode(benchmark::State& state) {
    static const auto bytes = stream::encode_records(day_stream());
    for (auto _ : state) {
        auto records = stream::decode_records(bytes);
        benchmark::DoNotOptimize(records.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(day_stream().size()));
}
BENCHMARK(bm_stream_codec_decode)->Unit(benchmark::kMillisecond);

void bm_stream_shard_accumulate(benchmark::State& state) {
    static const auto records = bin_stream(10);
    static const flow::od_resolver resolver(abilene());
    std::vector<int> ods;
    resolver.resolve_batch(records, ods);
    stream::od_shard_set shards(abilene().od_count(),
                                static_cast<std::size_t>(state.range(0)));
    stream::bin_statistics stats;
    for (auto _ : state) {
        shards.accumulate(records, ods);
        shards.harvest(stats);
        benchmark::DoNotOptimize(stats.snapshot.entropies[0].data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(records.size()));
}
BENCHMARK(bm_stream_shard_accumulate)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

// End-to-end ingest: codec stream -> queue -> shards -> detector.
// items_per_second is the acceptance metric (records/s); per-bin close
// latency comes out of the pipeline's own counters and is reported as
// the bin_close_ms counter.
void bm_stream_ingest(benchmark::State& state) {
    static const auto bytes = stream::encode_records(day_stream());
    double bin_close_ms = 0.0;
    std::uint64_t bins = 0;
    for (auto _ : state) {
        stream::pipeline_options opts;
        opts.online.window = 8;
        opts.online.warmup = 4;
        opts.online.refit_interval = 4;
        opts.online.subspace.normal_dims = 2;
        stream::stream_pipeline pipeline(abilene(), opts);
        std::istringstream in(
            std::string(reinterpret_cast<const char*>(bytes.data()),
                        bytes.size()));
        stream::flow_codec_reader reader(in);
        pipeline.run(reader);
        benchmark::DoNotOptimize(pipeline.metrics().bins_emitted);
        bin_close_ms += pipeline.metrics().mean_bin_close_ms();
        bins += pipeline.metrics().bins_emitted;
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(day_stream().size()));
    state.counters["bin_close_ms"] =
        bin_close_ms / static_cast<double>(state.iterations());
    state.counters["bins"] = static_cast<double>(bins) /
                             static_cast<double>(state.iterations());
}
BENCHMARK(bm_stream_ingest)->Unit(benchmark::kMillisecond);

// Online detection at ISP width: synthetic(P) backbones (P^2 ODs, so
// d = 4 * P^2 unfolded columns; d = 129,600 at 180 PoPs) through the
// end-to-end pipeline with a 16-bin window and two refits. The detector
// holds O(window * d) state, so this runs at all; state_mb and refit_ms
// counters show what the widest shape costs.
void bm_stream_ingest_wide(benchmark::State& state) {
    const int pops = static_cast<int>(state.range(0));
    struct workload {
        net::topology topo;
        std::vector<std::uint8_t> bytes;
        std::size_t records = 0;
    };
    static std::map<int, workload> cache;
    auto it = cache.find(pops);
    if (it == cache.end()) {
        workload w{net::topology::synthetic(pops), {}, 0};
        traffic::background_options bopts;
        bopts.mean_records_per_bin = 2;  // keep the widest stream CI-sized
        const traffic::background_model bg(w.topo, bopts);
        std::vector<flow::flow_record> all;
        for (std::size_t bin = 0; bin < 8; ++bin)
            for (int od = 0; od < w.topo.od_count(); ++od) {
                const auto cell = bg.generate(bin, od);
                all.insert(all.end(), cell.begin(), cell.end());
            }
        w.records = all.size();
        w.bytes = stream::encode_records(all);
        it = cache.emplace(pops, std::move(w)).first;
    }
    const workload& w = it->second;
    double bin_close_ms = 0.0, refit_ms = 0.0, refits = 0.0, state_mb = 0.0;
    for (auto _ : state) {
        obs::latency_histogram refit_timer;
        stream::pipeline_options opts;
        opts.online.window = 16;
        opts.online.warmup = 4;
        opts.online.refit_interval = 4;
        opts.online.subspace.normal_dims = 2;
        opts.online.refit_timer = &refit_timer;
        stream::stream_pipeline pipeline(w.topo, opts);
        std::istringstream in(
            std::string(reinterpret_cast<const char*>(w.bytes.data()),
                        w.bytes.size()));
        stream::flow_codec_reader reader(in);
        pipeline.run(reader);
        benchmark::DoNotOptimize(pipeline.metrics().bins_emitted);
        bin_close_ms += pipeline.metrics().mean_bin_close_ms();
        refit_ms += refit_timer.sum_seconds() * 1e3;
        refits += static_cast<double>(refit_timer.count());
        state_mb = static_cast<double>(pipeline.detector().state_bytes()) / 1e6;
    }
    const double iters = static_cast<double>(state.iterations());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(w.records));
    state.counters["bin_close_ms"] = bin_close_ms / iters;
    state.counters["refit_ms"] = refit_ms / iters;
    state.counters["refits"] = refits / iters;
    state.counters["state_mb"] = state_mb;
}
BENCHMARK(bm_stream_ingest_wide)->Arg(64)->Arg(180)
    ->Unit(benchmark::kMillisecond);

// The same end-to-end ingest with the full observability harness wired
// in (registry + stage timers + alerts + ring sink + bridge). CI gates
// this against bm_stream_ingest with --compare: event emission and
// metric adoption must stay within a few percent of the bare pipeline.
void bm_stream_ingest_events(benchmark::State& state) {
    static const auto bytes = stream::encode_records(day_stream());
    std::uint64_t events = 0;
    for (auto _ : state) {
        obs::metrics_registry registry;
        obs::stage_timers timers = obs::register_stage_timers(registry);
        obs::alert_manager alerts;
        obs::ring_sink sink(256);
        stream::pipeline_options opts;
        opts.online.window = 8;
        opts.online.warmup = 4;
        opts.online.refit_interval = 4;
        opts.online.subspace.normal_dims = 2;
        opts.online.refit_timer = timers.refit;
        opts.timers = &timers;
        stream::stream_pipeline pipeline(abilene(), opts);
        obs::bridge_options bopts;
        bopts.sink = &sink;
        bopts.registry = &registry;
        bopts.alerts = &alerts;
        bopts.topology = &abilene();
        obs::pipeline_bridge bridge(pipeline, bopts);
        pipeline.on_bin([&](const stream::bin_result& r) {
            bridge.observe_bin(r);
        });
        std::istringstream in(
            std::string(reinterpret_cast<const char*>(bytes.data()),
                        bytes.size()));
        stream::flow_codec_reader reader(in);
        pipeline.run(reader);
        bridge.sync_metrics();
        benchmark::DoNotOptimize(pipeline.metrics().bins_emitted);
        events += bridge.emitter().emitted();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(day_stream().size()));
    state.counters["events"] = static_cast<double>(events) /
                               static_cast<double>(state.iterations());
}
BENCHMARK(bm_stream_ingest_events)->Unit(benchmark::kMillisecond);

// Serialization cost of one structured event (a bin_closed — the
// highest-frequency type) through the emitter into the /events/recent
// ring: what every closed bin pays on top of the pipeline work.
void bm_event_emit(benchmark::State& state) {
    obs::ring_sink sink(256);
    obs::event_emitter emitter(&sink);
    std::uint64_t bin = 0;
    for (auto _ : state) {
        obs::bin_closed_data d;
        d.records = 12345;
        d.scored = true;
        d.close_ns = 1234567;
        benchmark::DoNotOptimize(
            emitter.emit(bin++, obs::event_data(d)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_event_emit)->Unit(benchmark::kMicrosecond);

// One /metrics scrape: render the daemon's full metric surface (the
// bridge's adopted counters + gauges and the five stage histograms).
void bm_metrics_render(benchmark::State& state) {
    obs::metrics_registry registry;
    obs::stage_timers timers = obs::register_stage_timers(registry);
    obs::alert_manager alerts;
    stream::pipeline_options opts;
    opts.online.window = 8;
    opts.online.warmup = 4;
    opts.online.subspace.normal_dims = 2;
    stream::stream_pipeline pipeline(abilene(), opts);
    obs::bridge_options bopts;
    bopts.registry = &registry;
    bopts.alerts = &alerts;
    obs::pipeline_bridge bridge(pipeline, bopts);
    bridge.sync_metrics();
    for (int i = 0; i < 1000; ++i) {  // populate histogram buckets
        timers.decode->record_ns(1000 + i * 977);
        timers.bin_close->record_ns(100000 + i * 99991);
    }
    for (auto _ : state) {
        const std::string text = registry.render_prometheus();
        benchmark::DoNotOptimize(text.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_metrics_render)->Unit(benchmark::kMicrosecond);

}  // namespace

// Same expanded main as perf_core: stamp the dispatched kernel ISA into
// the benchmark context for BENCH_core.json.
int main(int argc, char** argv) {
    benchmark::AddCustomContext(
        "kernel_isa",
        tfd::linalg::kernel_isa_name(tfd::linalg::active_kernel_isa()));
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
