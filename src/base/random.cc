#include "base/random.hh"

#include <cmath>

namespace kindle
{

ZipfianGenerator::ZipfianGenerator(std::uint64_t n_arg, double theta_arg,
                                   std::uint64_t seed)
    : n(n_arg), theta(theta_arg), rng(seed)
{
    kindle_assert(n > 0, "zipfian over empty item set");
    kindle_assert(theta > 0.0 && theta < 1.0,
                  "zipfian skew must be in (0,1), got {}", theta);
    alpha = 1.0 / (1.0 - theta);
    zetan = zeta(n, theta);
    const double zeta2 = zeta(2, theta);
    eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
          (1.0 - zeta2 / zetan);
}

double
ZipfianGenerator::zeta(std::uint64_t count, double theta_arg) const
{
    // Exact sum up to a threshold; above it, the integral of x^-theta
    // approximates the tail, keeping constructor cost bounded for
    // huge key spaces.
    constexpr std::uint64_t exactLimit = 1u << 20;
    double sum = 0.0;
    if (count <= exactLimit) {
        for (std::uint64_t i = 1; i <= count; ++i)
            sum += 1.0 / std::pow(static_cast<double>(i), theta_arg);
        return sum;
    }
    for (std::uint64_t i = 1; i <= exactLimit; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta_arg);
    // Integral tail approximation of sum_{exactLimit+1..count} i^-theta.
    const double a = static_cast<double>(exactLimit);
    const double b = static_cast<double>(count);
    sum += (std::pow(b, 1.0 - theta_arg) - std::pow(a, 1.0 - theta_arg)) /
           (1.0 - theta_arg);
    return sum;
}

std::uint64_t
ZipfianGenerator::next()
{
    const double u = rng.uniformReal();
    const double uz = u * zetan;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta))
        return 1;
    const double frac =
        static_cast<double>(n) *
        std::pow(eta * u - eta + 1.0, alpha);
    auto idx = static_cast<std::uint64_t>(frac);
    return idx >= n ? n - 1 : idx;
}

} // namespace kindle
