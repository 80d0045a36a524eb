#include "opt/lbfgs.h"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace epoc::opt;

// f(x) = sum (x_i - i)^2: smooth convex bowl.
double bowl(const std::vector<double>& x, std::vector<double>& g) {
    g.assign(x.size(), 0.0);
    double f = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double d = x[i] - static_cast<double>(i);
        f += d * d;
        g[i] = 2 * d;
    }
    return f;
}

// Rosenbrock: the classic curved-valley stress test.
double rosenbrock(const std::vector<double>& x, std::vector<double>& g) {
    const double a = 1.0, b = 100.0;
    g.assign(2, 0.0);
    const double f = (a - x[0]) * (a - x[0]) + b * (x[1] - x[0] * x[0]) * (x[1] - x[0] * x[0]);
    g[0] = -2 * (a - x[0]) - 4 * b * x[0] * (x[1] - x[0] * x[0]);
    g[1] = 2 * b * (x[1] - x[0] * x[0]);
    return f;
}

TEST(Lbfgs, SolvesQuadraticBowl) {
    const auto res = lbfgs_minimize(bowl, {5.0, -3.0, 10.0, 0.0});
    EXPECT_TRUE(res.converged);
    for (std::size_t i = 0; i < res.x.size(); ++i)
        EXPECT_NEAR(res.x[i], static_cast<double>(i), 1e-5);
}

TEST(Lbfgs, SolvesRosenbrock) {
    LbfgsOptions opt;
    opt.max_iterations = 2000; // the banana valley costs ~700 iterations
    const auto res = lbfgs_minimize(rosenbrock, {-1.2, 1.0}, opt);
    EXPECT_NEAR(res.x[0], 1.0, 1e-4);
    EXPECT_NEAR(res.x[1], 1.0, 1e-4);
}

TEST(Lbfgs, TargetValueStopsEarly) {
    LbfgsOptions opt;
    opt.target_value = 1.0;
    const auto res = lbfgs_minimize(bowl, {100.0}, opt);
    EXPECT_TRUE(res.converged);
    EXPECT_LE(res.value, 1.0 + 1e-9);
}

TEST(Lbfgs, AlreadyAtMinimum) {
    const auto res = lbfgs_minimize(bowl, {0.0, 1.0, 2.0});
    EXPECT_TRUE(res.converged);
    EXPECT_NEAR(res.value, 0.0, 1e-12);
}

} // namespace
