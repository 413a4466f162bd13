// Unit tests for the binary flow codec: lossless round-trips, framing,
// and corruption detection.
#include "stream/flow_codec.h"

#include <gtest/gtest.h>

#include <sstream>

#include "support/feeds.h"
#include "traffic/background.h"
#include "traffic/rng.h"

using namespace tfd;
using namespace tfd::stream;

namespace {

void expect_identical(const flow::flow_record& a, const flow::flow_record& b) {
    EXPECT_EQ(a.key.src.value, b.key.src.value);
    EXPECT_EQ(a.key.dst.value, b.key.dst.value);
    EXPECT_EQ(a.key.src_port, b.key.src_port);
    EXPECT_EQ(a.key.dst_port, b.key.dst_port);
    EXPECT_EQ(a.key.protocol, b.key.protocol);
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.first_us, b.first_us);
    EXPECT_EQ(a.last_us, b.last_us);
    EXPECT_EQ(a.ingress_pop, b.ingress_pop);
}

// Run `f`, which must throw codec_error, and return its code.
template <typename F>
codec_errc thrown_code(F&& f) {
    try {
        f();
    } catch (const codec_error& e) {
        return e.code();
    }
    throw std::logic_error("expected codec_error was not thrown");
}

std::vector<flow::flow_record> assorted_records() {
    std::vector<flow::flow_record> rs;

    flow::flow_record r;  // all defaults (zero timestamps, -1 ingress)
    rs.push_back(r);

    r.key.src.value = 0xFFFFFFFFu;
    r.key.dst.value = 0x00000001u;
    r.key.src_port = 65535;
    r.key.dst_port = 0;
    r.key.protocol = 17;
    r.packets = 1;
    r.bytes = 40;
    r.first_us = 1ull << 40;  // far future
    r.last_us = (1ull << 40) + 299'999'999;
    r.ingress_pop = 21;
    rs.push_back(r);

    r.first_us = 5;  // time goes backwards across records (negative delta)
    r.last_us = 5;
    r.packets = 0xFFFFFFFFFFFFull;  // large varints
    r.bytes = 0x123456789ABCDEFull;
    r.ingress_pop = -1;
    rs.push_back(r);

    traffic::rng gen(99);
    std::uint64_t t = 1'000'000;
    for (int i = 0; i < 500; ++i) {
        flow::flow_record x;
        x.key.src.value = static_cast<std::uint32_t>(gen.uniform_int(1u << 31));
        x.key.dst.value = static_cast<std::uint32_t>(gen.uniform_int(1u << 31));
        x.key.src_port = static_cast<std::uint16_t>(gen.uniform_int(65536));
        x.key.dst_port = static_cast<std::uint16_t>(gen.uniform_int(65536));
        x.key.protocol = gen.chance(0.5) ? 6 : 17;
        x.packets = gen.uniform_int(10000);
        x.bytes = x.packets * 1500;
        t += gen.uniform_int(50'000);
        x.first_us = t;
        x.last_us = t + gen.uniform_int(60'000'000);
        x.ingress_pop = static_cast<int>(gen.uniform_int(11));
        rs.push_back(x);
    }
    return rs;
}

}  // namespace

TEST(FlowCodecTest, RoundTripIsLossless) {
    const auto records = assorted_records();
    const auto bytes = encode_records(records);
    const auto decoded = decode_records(bytes);
    ASSERT_EQ(decoded.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        expect_identical(records[i], decoded[i]);
}

TEST(FlowCodecTest, MultiFrameRoundTripAndStats) {
    const auto records = assorted_records();
    std::ostringstream os;
    flow_codec_writer w(os, {.records_per_frame = 64});
    w.add(records);
    w.finish();
    EXPECT_EQ(w.stats().records, records.size());
    EXPECT_EQ(w.stats().frames, (records.size() + 63) / 64);

    std::istringstream is(os.str());
    flow_codec_reader r(is);
    std::vector<flow::flow_record> frame, all;
    while (r.next_frame(frame)) all.insert(all.end(), frame.begin(), frame.end());
    EXPECT_EQ(r.stats().frames, w.stats().frames);
    ASSERT_EQ(all.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        expect_identical(records[i], all[i]);
}

TEST(FlowCodecTest, DeltaVarintPackingBeatsRawStructs) {
    // A realistic near-sorted export should encode well below the
    // in-memory footprint.
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const auto records = test::bin_records(bg, 3);
    const auto bytes = encode_records(records);
    EXPECT_LT(bytes.size(), records.size() * sizeof(flow::flow_record) / 2);
}

TEST(FlowCodecTest, EmptyStream) {
    std::ostringstream os;
    flow_codec_writer w(os);
    w.finish();  // header only
    std::istringstream is(os.str());
    flow_codec_reader r(is);
    std::vector<flow::flow_record> frame;
    EXPECT_FALSE(r.next_frame(frame));
}

TEST(FlowCodecTest, ChecksumMismatchThrowsTypedCode) {
    auto bytes = encode_records(assorted_records());
    bytes[bytes.size() - 3] ^= 0x40;  // corrupt payload near the end
    // codec_error still IS-A runtime_error for legacy catch sites...
    EXPECT_THROW(decode_records(bytes), std::runtime_error);
    // ...but carries a typed code so nobody matches message text.
    EXPECT_EQ(thrown_code([&] { decode_records(bytes); }),
              codec_errc::checksum_mismatch);
}

TEST(FlowCodecTest, TruncationThrowsTypedCode) {
    const auto bytes = encode_records(assorted_records());
    // Chop mid-payload and mid-frame-header.
    const std::span<const std::uint8_t> mid_payload(bytes.data(),
                                                    bytes.size() - 5);
    EXPECT_EQ(thrown_code([&] { decode_records(mid_payload); }),
              codec_errc::truncated_payload);
    const std::span<const std::uint8_t> mid_header(bytes.data(), 8 + 10);
    EXPECT_EQ(thrown_code([&] { decode_records(mid_header); }),
              codec_errc::truncated_header);
}

TEST(FlowCodecTest, ImplausibleFrameHeaderThrowsBeforeAllocating) {
    auto bytes = encode_records(assorted_records());
    // Corrupt the frame's payload_bytes field (file header is 8 bytes,
    // record_count is the first 4 of the frame header) to a huge value;
    // the reader must reject it without attempting the allocation.
    bytes[8 + 4 + 3] = 0xFF;
    EXPECT_EQ(thrown_code([&] { decode_records(bytes); }),
              codec_errc::implausible_frame);
}

TEST(FlowCodecTest, BadMagicOrVersionThrowsTypedCode) {
    auto bytes = encode_records(assorted_records());
    auto bad_magic = bytes;
    bad_magic[0] ^= 0xFF;
    EXPECT_EQ(thrown_code([&] { decode_records(bad_magic); }),
              codec_errc::bad_magic);

    auto bad_version = bytes;
    bad_version[4] = 0x7F;
    EXPECT_EQ(thrown_code([&] { decode_records(bad_version); }),
              codec_errc::unsupported_version);
}

TEST(FlowCodecTest, ErrorCodeNamesAreStable) {
    EXPECT_STREQ(to_string(codec_errc::checksum_mismatch),
                 "checksum_mismatch");
    EXPECT_STREQ(to_string(codec_errc::error_budget_exceeded),
                 "error_budget_exceeded");
}

TEST(FlowCodecTest, WriterIsReusableAfterFinish) {
    const auto records = assorted_records();
    std::ostringstream os;
    flow_codec_writer w(os, {.records_per_frame = 100});
    w.add(std::span(records).first(10));
    w.finish();
    w.add(std::span(records).subspan(10, 10));
    w.finish();
    std::istringstream is(os.str());
    flow_codec_reader r(is);
    std::vector<flow::flow_record> frame;
    std::size_t total = 0;
    while (r.next_frame(frame)) total += frame.size();
    EXPECT_EQ(total, 20u);
}
