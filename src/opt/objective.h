// Objective interface of the L-BFGS optimizer (opt/lbfgs.h), which the
// synthesis instantiater drives.
#pragma once

#include <functional>
#include <vector>

namespace epoc::opt {

/// Evaluate f(x) and its gradient. The gradient vector is resized/written by
/// the callee.
using Objective =
    std::function<double(const std::vector<double>& x, std::vector<double>& grad)>;

struct OptimizeResult {
    std::vector<double> x;
    double value = 0.0;
    int iterations = 0;
    bool converged = false;
};

} // namespace epoc::opt
