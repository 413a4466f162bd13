// tfd::core — multi-attribute anomaly identification (Section 4.2).
//
// Detection says *when*; identification says *which OD flow(s)*. For
// each candidate flow k a 4p x 4 selection matrix Theta_k picks that
// flow's four feature coordinates, and the best anomaly magnitude f_k is
// the least-squares minimizer of || C_res (h - Theta_k f_k) || where
// C_res projects onto the residual subspace. The flow with the smallest
// minimum wins; the method recurses (deflating the winner's contribution)
// until the residual drops below the detection threshold, so anomalies
// spanning several OD flows are identified one flow at a time.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "core/multiway.h"
#include "core/subspace.h"

namespace tfd::core {

/// One identified flow within a detection.
struct identified_flow {
    int od = -1;
    /// Estimated per-feature anomaly magnitude f_k (in normalized units).
    std::array<double, flow::feature_count> magnitude{};
    /// Residual SPE *after* deflating this flow.
    double spe_after = 0.0;
};

/// Result of recursive identification at one timebin.
struct identification {
    std::vector<identified_flow> flows;  ///< in order of identification
    double spe_before = 0.0;             ///< SPE of the raw observation
};

/// Options bounding the recursion.
struct identify_options {
    std::size_t max_flows = 5;  ///< at most this many flows identified
    /// Stop when SPE falls below this (typically the Q threshold).
    double stop_threshold = 0.0;
};

/// Identify the OD flow(s) responsible for an anomalous observation
/// `obs` (length 4p) under a fitted multiway subspace model.
///
/// Throws std::invalid_argument on dimension mismatch.
identification identify_flows(const subspace_model& model,
                              const multiway_matrix& m,
                              std::span<const double> obs,
                              const identify_options& opts);

/// Why an anomalous row fired: the identified flows, the flow judged
/// primarily responsible, and its residual entropy vector.
struct row_explanation {
    std::vector<identified_flow> flows;  ///< from identify_flows
    /// First identified flow, or the one with the largest residual
    /// energy when identification found none.
    int top_od = -1;
    /// Unit-norm residual entropy 4-vector of top_od, in feature order
    /// (srcIP, srcPort, dstIP, dstPort) — the classification coordinates.
    std::array<double, flow::feature_count> h_tilde{};
};

/// identify_flows, then the top-OD choice and its unit-norm residual:
/// the one explanation both the batch and the online detector attach
/// to an anomalous row.
row_explanation explain_row(const subspace_model& model,
                            const multiway_matrix& m,
                            std::span<const double> obs,
                            const identify_options& opts);

}  // namespace tfd::core
