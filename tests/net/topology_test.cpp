// Unit tests for the backbone topology model.
#include "net/topology.h"

#include <gtest/gtest.h>

#include <queue>
#include <set>
#include <stdexcept>
#include <vector>

using namespace tfd::net;

namespace {

/// PoPs reachable from PoP 0 over the topology's links (BFS).
std::size_t reachable_from_first(const topology& t) {
    std::vector<bool> seen(static_cast<std::size_t>(t.pop_count()), false);
    std::queue<int> frontier;
    seen[0] = true;
    frontier.push(0);
    std::size_t count = 1;
    while (!frontier.empty()) {
        const int p = frontier.front();
        frontier.pop();
        for (const int q : t.adjacency()[static_cast<std::size_t>(p)])
            if (!seen[static_cast<std::size_t>(q)]) {
                seen[static_cast<std::size_t>(q)] = true;
                frontier.push(q);
                ++count;
            }
    }
    return count;
}

}  // namespace

TEST(TopologyTest, AbileneHasPaperGeometry) {
    const auto t = topology::abilene();
    EXPECT_EQ(t.name(), "Abilene");
    EXPECT_EQ(t.pop_count(), 11);
    EXPECT_EQ(t.od_count(), 121);  // paper: 121 OD flows
    EXPECT_EQ(t.links().size(), 14u);
}

TEST(TopologyTest, GeantHasPaperGeometry) {
    const auto t = topology::geant();
    EXPECT_EQ(t.pop_count(), 22);
    EXPECT_EQ(t.od_count(), 484);  // paper: 484 OD flows
}

TEST(TopologyTest, PopLookupByName) {
    const auto t = topology::abilene();
    auto id = t.pop_by_name("NYCM");
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(t.pop_at(*id).name, "NYCM");
    EXPECT_FALSE(t.pop_by_name("NOPE").has_value());
    EXPECT_THROW(t.pop_at(-1), std::out_of_range);
    EXPECT_THROW(t.pop_at(11), std::out_of_range);
}

TEST(TopologyTest, OdIndexRoundTrip) {
    const auto t = topology::abilene();
    for (int o = 0; o < t.pop_count(); ++o)
        for (int d = 0; d < t.pop_count(); ++d) {
            const int od = t.od_index(o, d);
            const auto [oo, dd] = t.od_pair(od);
            EXPECT_EQ(oo, o);
            EXPECT_EQ(dd, d);
        }
    EXPECT_THROW(t.od_index(0, 11), std::out_of_range);
    EXPECT_THROW(t.od_pair(121), std::out_of_range);
}

TEST(TopologyTest, AddressSpacesAreDisjointAcrossPops) {
    const auto t = topology::geant();
    std::set<std::uint32_t> nets;
    for (const auto& p : t.pops()) {
        EXPECT_EQ(p.address_space.length, 8);
        EXPECT_TRUE(nets.insert(p.address_space.network.value).second);
    }
}

TEST(TopologyTest, EgressResolutionMapsAddressesToOwningPop) {
    const auto t = topology::abilene();
    for (const auto& p : t.pops()) {
        const ipv4 a = t.address_in_pop(p.id, 0xDEADBEEF);
        EXPECT_TRUE(p.address_space.contains(a));
        auto egress = t.egress_pop(a);
        ASSERT_TRUE(egress.has_value());
        EXPECT_EQ(*egress, p.id);
    }
}

TEST(TopologyTest, ExternalAddressHasNoEgress) {
    const auto t = topology::abilene();
    // Abilene uses base octet 10..20; 200.x is outside.
    EXPECT_FALSE(t.egress_pop(parse_ipv4("200.1.2.3")).has_value());
}

TEST(TopologyTest, EgressTableContainsCustomerPrefixes) {
    const auto t = topology::abilene();
    // 11 PoPs x (1 aggregate + 3 customer prefixes).
    EXPECT_EQ(t.egress_table().size(), 11u * 4u);
}

TEST(TopologyTest, ConstructorValidation) {
    EXPECT_THROW(topology("x", {}, {}), std::invalid_argument);
    EXPECT_THROW(topology("x", {"A", "B"}, {{0, 5}}), std::invalid_argument);
}

TEST(TopologyTest, SyntheticIsDeterministicInPopsAndSeed) {
    const auto a = topology::synthetic(64, 7);
    const auto b = topology::synthetic(64, 7);
    EXPECT_EQ(a.name(), "Synthetic-64");
    EXPECT_EQ(a.pop_count(), 64);
    EXPECT_EQ(a.od_count(), 64 * 64);
    ASSERT_EQ(a.links().size(), b.links().size());
    for (std::size_t i = 0; i < a.links().size(); ++i) {
        EXPECT_EQ(a.links()[i].a, b.links()[i].a);
        EXPECT_EQ(a.links()[i].b, b.links()[i].b);
    }
    // A different seed rewires.
    const auto c = topology::synthetic(64, 8);
    bool same = a.links().size() == c.links().size();
    for (std::size_t i = 0; same && i < a.links().size(); ++i)
        same = a.links()[i].a == c.links()[i].a &&
               a.links()[i].b == c.links()[i].b;
    EXPECT_FALSE(same);
}

TEST(TopologyTest, SyntheticIsConnectedAcrossTheBand) {
    // Every generated backbone must be connected (the spanning-tree
    // guarantee), as the real ones are.
    for (int pops : {2, 16, 50, 100, 150, 180}) {
        const auto t = topology::synthetic(pops, 3);
        EXPECT_GE(t.links().size(),
                  static_cast<std::size_t>(pops) - 1);  // tree at minimum
        EXPECT_EQ(reachable_from_first(t), static_cast<std::size_t>(pops));
    }
    for (const auto& t : {topology::abilene(), topology::geant()})
        EXPECT_EQ(reachable_from_first(t),
                  static_cast<std::size_t>(t.pop_count()));
}

TEST(TopologyTest, ReachabilityCountsOnlyLinkedPops) {
    const topology t("island", {"A", "B", "C"}, {{0, 1}});
    EXPECT_EQ(reachable_from_first(t), 2u);
}

TEST(TopologyTest, SyntheticValidation) {
    EXPECT_THROW(topology::synthetic(1), std::invalid_argument);
    EXPECT_THROW(topology::synthetic(181), std::invalid_argument);
    // base_octet + pops must stay inside the /8 space (checked by the
    // base constructor).
    EXPECT_THROW(topology::synthetic(100, 1, 200), std::invalid_argument);
}
