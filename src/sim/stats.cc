#include "sim/stats.hh"

#include <iomanip>

namespace ccnuma
{
namespace stats
{

void
Scalar::print(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(44) << (prefix + name())
       << std::right << std::setw(16) << value_
       << "  # " << desc() << "\n";
}

void
Average::reset()
{
    sum_ = 0.0;
    count_ = 0;
    min_ = 1e300;
    max_ = -1e300;
}

void
Average::print(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(44) << (prefix + name() + ".mean")
       << std::right << std::setw(16) << mean()
       << "  # " << desc() << " (n=" << count_ << ", min="
       << minValue() << ", max=" << maxValue() << ")\n";
}

void
Distribution::reset()
{
    avg_.reset();
    std::fill(buckets_.begin(), buckets_.end(), 0);
    underflow_ = 0;
    overflow_ = 0;
}

double
Distribution::quantile(double q) const
{
    std::uint64_t total = count();
    if (total == 0)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    // Rank of the requested quantile among the sorted samples
    // (midpoint convention keeps q=0.5 of a single sample exact).
    double target = q * static_cast<double>(total);
    double cum = static_cast<double>(underflow_);
    if (target <= cum)
        return minValue();
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (!buckets_[i])
            continue;
        double next = cum + static_cast<double>(buckets_[i]);
        if (target <= next) {
            double frac = (target - cum) /
                          static_cast<double>(buckets_[i]);
            return (static_cast<double>(i) + frac) * bucketSize_;
        }
        cum = next;
    }
    // Landed in the overflow bucket: interpolate from the last bucket
    // edge up to the recorded maximum.
    if (overflow_) {
        double lo = static_cast<double>(buckets_.size()) * bucketSize_;
        double hi = std::max(maxValue(), lo);
        double frac = (target - cum) / static_cast<double>(overflow_);
        return lo + frac * (hi - lo);
    }
    return maxValue();
}

void
Distribution::print(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(44) << (prefix + name() + ".mean")
       << std::right << std::setw(16) << mean()
       << "  # " << desc() << " (n=" << count() << ")\n";
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (!buckets_[i])
            continue;
        os << std::left << std::setw(44)
           << (prefix + name() + ".bucket" + std::to_string(i))
           << std::right << std::setw(16) << buckets_[i]
           << "  # [" << i * bucketSize_ << ", "
           << (i + 1) * bucketSize_ << ")\n";
    }
    if (underflow_) {
        os << std::left << std::setw(44)
           << (prefix + name() + ".underflow")
           << std::right << std::setw(16) << underflow_ << "\n";
    }
    if (overflow_) {
        os << std::left << std::setw(44)
           << (prefix + name() + ".overflow")
           << std::right << std::setw(16) << overflow_ << "\n";
    }
}

void
Group::resetAll()
{
    for (auto *s : stats_)
        s->reset();
}

void
Group::print(std::ostream &os) const
{
    for (const auto *s : stats_)
        s->print(os, name_ + ".");
}

} // namespace stats
} // namespace ccnuma
