// Detection parity of the subspace fit against the full-spectrum
// oracle: subspace_model::fit (partial-spectrum eigensolver, leading
// axes only, residual moments from trace identities) must flag the same
// bins as a full-QL linalg::fit_pca of the same matrix, with per-bin SPE
// and captured variance agreeing to tight tolerance. Threshold parity
// follows from the leading-eigenvalue and spectrum_moments parity pinned
// in tests/linalg/pca_topk_test.cpp, so both sides are judged against
// the model's threshold here.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/multiway.h"
#include "core/subspace.h"
#include "linalg/pca.h"

using namespace tfd::core;
namespace la = tfd::linalg;

namespace {

double noise(std::size_t a, std::size_t b, std::size_t c) {
    std::uint64_t h = a * 0x9E3779B97F4A7C15ULL ^ b * 0xBF58476D1CE4E5B9ULL ^
                      c * 0x94D049BB133111EBULL;
    h ^= h >> 31;
    h *= 0x2545F4914F6CDD1DULL;
    h ^= h >> 29;
    return static_cast<double>(h >> 11) / 9007199254740992.0 - 0.5;
}

// Entropy tensor with three diurnal harmonics per OD (they occupy the
// ~6 leading principal components) plus noise, and two injected
// anomalies: bins 40 and 71 get a moderate entropy dip/spike on one OD
// flow each — large enough to clear the Q threshold, small enough that
// PCA does not absorb the spike direction into the normal subspace.
multiway_matrix synthetic_multiway(std::size_t t, std::size_t p) {
    std::array<la::matrix, 4> feats;
    for (int f = 0; f < 4; ++f) {
        feats[f].resize(t, p);
        for (std::size_t r = 0; r < t; ++r)
            for (std::size_t od = 0; od < p; ++od) {
                const double b = 2 * M_PI * static_cast<double>(r);
                double v = 5.0;
                v += 2.0 * std::sin(b / 96.0 + 0.3 * f + 0.5 * od);
                v += 1.2 * std::sin(b / 48.0 + 0.7 * f + 1.1 * od);
                v += 0.7 * std::sin(b / 24.0 + 1.3 * f + 2.3 * od);
                v += 0.15 * noise(r, od, f);
                feats[f](r, od) = v;
            }
    }
    for (int f = 0; f < 4; ++f) {
        feats[f](40, 3) += (f % 2 ? 0.6 : -0.6);
        feats[f](71, 7) += (f % 2 ? -0.6 : 0.6);
    }
    return unfold(feats);
}

// Fits both sides on `x` and checks SPE, flagged bins and captured
// variance; returns the model's anomalous bins.
std::vector<std::size_t> expect_fit_matches_oracle(const la::matrix& x,
                                                   std::size_t normal_dims,
                                                   double alpha) {
    const subspace_options opts{.normal_dims = normal_dims, .center = true};
    const auto model = subspace_model::fit(x, opts);
    const auto oracle = la::fit_pca(x);
    EXPECT_EQ(model.normal_dims(), normal_dims);

    const auto spe = model.spe_rows(x);
    const auto spe_oracle =
        la::squared_prediction_error_rows(oracle, x, normal_dims);
    EXPECT_EQ(spe.size(), spe_oracle.size());
    for (std::size_t r = 0; r < spe.size(); ++r)
        EXPECT_NEAR(spe[r], spe_oracle[r], 1e-7 * (1.0 + spe_oracle[r]))
            << "bin " << r;

    const double threshold = model.q_threshold(alpha);
    std::vector<std::size_t> flagged_oracle;
    for (std::size_t r = 0; r < spe_oracle.size(); ++r)
        if (spe_oracle[r] > threshold) flagged_oracle.push_back(r);
    const auto det = detect_rows(x, opts, alpha);
    EXPECT_EQ(det.threshold, threshold);
    EXPECT_EQ(det.anomalous_bins, flagged_oracle);

    EXPECT_NEAR(model.variance_captured(),
                oracle.variance_captured(normal_dims), 1e-9);
    return det.anomalous_bins;
}

}  // namespace

TEST(FitParityTest, CovarianceBranchMatchesFullPcaOracle) {
    // 96 bins x 48 columns: t >= n, the eigenproblem is the covariance.
    const auto m = synthetic_multiway(96, 12);
    // At k = 6 the injections fire; at k = 8 the wider normal subspace
    // absorbs them, and the quiet verdicts must agree too.
    EXPECT_FALSE(expect_fit_matches_oracle(m.h, 6, 0.999).empty());
    expect_fit_matches_oracle(m.h, 8, 0.999);
}

TEST(FitParityTest, GramBranchMatchesFullPcaOracle) {
    // 80 bins x 160 columns: t < n, the eigenproblem is the t x t Gram.
    const auto m = synthetic_multiway(80, 40);
    EXPECT_FALSE(expect_fit_matches_oracle(m.h, 6, 0.999).empty());
    expect_fit_matches_oracle(m.h, 10, 0.999);
}
