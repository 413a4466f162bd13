// Unit tests for OD aggregation/binning.
#include "flow/od_aggregator.h"

#include <gtest/gtest.h>

#include "net/topology.h"

using namespace tfd::flow;
using tfd::net::topology;

TEST(BinIndexTest, FiveMinuteBins) {
    EXPECT_EQ(bin_index(0), 0u);
    EXPECT_EQ(bin_index(default_bin_us - 1), 0u);
    EXPECT_EQ(bin_index(default_bin_us), 1u);
    EXPECT_EQ(bin_index(10 * default_bin_us + 5), 10u);
}

TEST(OdResolverTest, ResolvesIngressEgress) {
    const auto topo = topology::abilene();
    od_resolver res(topo);
    flow_record r;
    r.ingress_pop = 2;
    r.key.dst = topo.address_in_pop(9, 1234);
    auto od = res.resolve(r);
    ASSERT_TRUE(od.has_value());
    EXPECT_EQ(*od, topo.od_index(2, 9));
}

TEST(OdResolverTest, UnknownIngressOrEgressFails) {
    const auto topo = topology::abilene();
    od_resolver res(topo);
    flow_record r;
    r.ingress_pop = -1;
    r.key.dst = topo.address_in_pop(0, 1);
    EXPECT_FALSE(res.resolve(r).has_value());

    r.ingress_pop = 0;
    r.key.dst = tfd::net::parse_ipv4("200.0.0.1");  // external
    EXPECT_FALSE(res.resolve(r).has_value());
}

TEST(BinRecordsTest, BinsAndCountsDroppedPerReason) {
    const auto topo = topology::abilene();
    od_resolver res(topo);
    std::vector<flow_record> recs(4);
    recs[0].ingress_pop = 0;
    recs[0].key.dst = topo.address_in_pop(1, 5);
    recs[0].first_us = 0;
    recs[1].ingress_pop = 0;
    recs[1].key.dst = topo.address_in_pop(2, 5);
    recs[1].first_us = default_bin_us * 3 + 17;
    recs[2].ingress_pop = 0;
    recs[2].key.dst = tfd::net::parse_ipv4("250.0.0.1");  // off-net egress
    recs[3].ingress_pop = -1;                             // unknown ingress
    recs[3].key.dst = topo.address_in_pop(1, 5);

    drop_counts dropped;
    auto binned = bin_records(res, recs, default_bin_us, &dropped);
    EXPECT_EQ(dropped.unresolvable_egress, 1u);
    EXPECT_EQ(dropped.unknown_ingress, 1u);
    EXPECT_EQ(dropped.total(), 2u);
    ASSERT_EQ(binned.size(), 2u);
    EXPECT_EQ(binned[0].bin, 0u);
    EXPECT_EQ(binned[0].od, topo.od_index(0, 1));
    EXPECT_EQ(binned[1].bin, 3u);
    EXPECT_EQ(binned[1].od, topo.od_index(0, 2));
}

TEST(BinRecordsTest, AcceptsSpanAndSubrange) {
    const auto topo = topology::abilene();
    od_resolver res(topo);
    std::vector<flow_record> recs(3);
    for (auto& r : recs) {
        r.ingress_pop = 1;
        r.key.dst = topo.address_in_pop(4, 9);
    }
    // A subrange without copying into a fresh vector.
    auto binned = bin_records(res, std::span(recs).subspan(1));
    EXPECT_EQ(binned.size(), 2u);
}

TEST(OdResolverTest, BatchResolveReportsReasons) {
    const auto topo = topology::abilene();
    od_resolver res(topo);
    std::vector<flow_record> recs(3);
    recs[0].ingress_pop = 3;
    recs[0].key.dst = topo.address_in_pop(7, 1);
    recs[1].ingress_pop = 99;  // out of range
    recs[1].key.dst = topo.address_in_pop(7, 1);
    recs[2].ingress_pop = 3;
    recs[2].key.dst = tfd::net::parse_ipv4("240.1.2.3");

    std::vector<int> ods;
    drop_counts dropped;
    const auto resolved = res.resolve_batch(recs, ods, &dropped);
    EXPECT_EQ(resolved, 1u);
    ASSERT_EQ(ods.size(), 3u);
    EXPECT_EQ(ods[0], topo.od_index(3, 7));
    EXPECT_EQ(ods[1], -1);
    EXPECT_EQ(ods[2], -1);
    EXPECT_EQ(dropped.unknown_ingress, 1u);
    EXPECT_EQ(dropped.unresolvable_egress, 1u);
}
