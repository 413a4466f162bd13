// Golden digests of the network studies' cell records. Every figure,
// table and perfbench spool is built from network_study::cell_records,
// so a change to the cell synthesizer (background, outage dip, anomaly
// planting, anonymization) must show up here rather than drift the
// figures silently. The pinned bins cover a plain background bin, a
// single-OD anomaly, a PoP-wide outage and a multi-OD DDoS.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "diagnosis/dataset.h"

using namespace tfd;

namespace {

void fnv1a(std::uint64_t& h, std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001b3ull;
    }
}

/// FNV-1a over every field of every record of one bin, OD by OD.
std::uint64_t bin_digest(const diagnosis::network_study& study,
                         std::size_t bin) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int od = 0; od < study.topo().od_count(); ++od)
        for (const auto& r : study.cell_records(bin, od)) {
            fnv1a(h, r.key.src.value, 4);
            fnv1a(h, r.key.dst.value, 4);
            fnv1a(h, r.key.src_port, 2);
            fnv1a(h, r.key.dst_port, 2);
            fnv1a(h, r.key.protocol, 1);
            fnv1a(h, r.packets, 8);
            fnv1a(h, r.bytes, 8);
            fnv1a(h, r.first_us, 8);
            fnv1a(h, r.last_us, 8);
            fnv1a(h, static_cast<std::uint32_t>(r.ingress_pop), 4);
        }
    return h;
}

void expect_digests(
    const diagnosis::network_study& study,
    const std::vector<std::pair<std::size_t, std::uint64_t>>& golden) {
    for (const auto& [bin, digest] : golden)
        EXPECT_EQ(bin_digest(study, bin), digest)
            << study.config().name << " bin " << bin << " = 0x" << std::hex
            << bin_digest(study, bin);
}

}  // namespace

TEST(StudyGoldenTest, AbileneCellsAreUnchanged) {
    const diagnosis::network_study study(diagnosis::dataset_config::abilene(42));
    const auto& a = study.schedule().anomalies();
    ASSERT_GT(a.size(), 47u);
    ASSERT_EQ(a[21].type, traffic::anomaly_type::outage);
    ASSERT_EQ(a[21].start_bin, 744u);
    ASSERT_EQ(a[47].type, traffic::anomaly_type::ddos);
    ASSERT_EQ(a[47].start_bin, 1586u);
    ASSERT_EQ(a[47].od_flows.size(), 6u);
    expect_digests(study, {{0, 0xd90d4358df741102ull},
                           {15, 0x3150bd078126ce26ull},
                           {744, 0x48efde268c0bbf4bull},
                           {1586, 0xa1c89f9aa058622cull}});
}

TEST(StudyGoldenTest, GeantCellsAreUnchanged) {
    const diagnosis::network_study study(diagnosis::dataset_config::geant(43));
    const auto& a = study.schedule().anomalies();
    ASSERT_GT(a.size(), 29u);
    ASSERT_EQ(a[6].type, traffic::anomaly_type::outage);
    ASSERT_EQ(a[6].start_bin, 153u);
    ASSERT_EQ(a[29].type, traffic::anomaly_type::ddos);
    ASSERT_EQ(a[29].start_bin, 505u);
    ASSERT_EQ(a[29].od_flows.size(), 4u);
    expect_digests(study, {{0, 0xebdc2c8f60c95c7bull},
                           {41, 0xa1f3bd3c19246031ull},
                           {153, 0x63c7861f8d9ca9faull},
                           {505, 0x54ad8c7b80d57a7full}});
}
