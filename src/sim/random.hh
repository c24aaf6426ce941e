/**
 * @file
 * Deterministic random-number generation for the simulator.
 *
 * Every stochastic component takes an explicit Rng (or a seed used to
 * derive a private Rng) so experiments are reproducible and components
 * can be reseeded independently.  The generator is xoshiro-quality
 * std::mt19937_64; distributions cover what the workload models need:
 * exponential and hyper-exponential interarrivals, lognormal and
 * Pareto service times, Zipf popularity, and arbitrary empirical
 * discrete mixes.
 */

#ifndef VCP_SIM_RANDOM_HH
#define VCP_SIM_RANDOM_HH

#include <cstdint>
#include <random>
#include <vector>

namespace vcp {

/** A seedable random source with the distributions the models need. */
class Rng
{
  public:
    /** Construct with an explicit seed (deterministic). */
    explicit Rng(std::uint64_t seed = 0x5eed5eedULL)
        : engine(seed)
    {}

    /** Derive an independent child generator (for per-component RNGs). */
    Rng fork();

    /** Uniform real in [lo, hi). */
    double uniform(double lo = 0.0, double hi = 1.0);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /** Exponential with the given mean (not rate). */
    double exponential(double mean);

    /** Normal (Gaussian). */
    double normal(double mean, double stddev);

    /**
     * Lognormal parameterized by the *resulting* mean and coefficient
     * of variation — far more convenient for latency models than the
     * underlying mu/sigma.
     */
    double lognormalMeanCv(double mean, double cv);

    /** Classic lognormal with underlying normal mu/sigma. */
    double lognormal(double mu, double sigma);

    /** Pareto with shape alpha and minimum xm. */
    double pareto(double alpha, double xm);

    /**
     * Sample an index from a discrete distribution given by
     * (unnormalized) non-negative weights.
     */
    std::size_t discrete(const std::vector<double> &weights);

    /** Access to the raw engine for std:: distribution interop. */
    std::mt19937_64 &raw() { return engine; }

  private:
    std::mt19937_64 engine;
};

/**
 * Precomputed sampler for a Zipf(n, s) popularity distribution.
 * Builds the CDF once; each draw is a binary search.
 */
class ZipfSampler
{
  public:
    /**
     * @param n number of ranks; must be >= 1.
     * @param s skew parameter; 0 gives the uniform distribution.
     */
    ZipfSampler(std::int64_t n, double s);

    /** Draw a rank in [0, n). */
    std::int64_t operator()(Rng &rng) const;

    /** Probability mass of rank r. */
    double pmf(std::int64_t r) const;

    std::int64_t size() const { return n; }

  private:
    std::int64_t n;
    std::vector<double> cdf;
};

/**
 * Sampler over an arbitrary empirical discrete distribution with
 * precomputed alias-free CDF (binary search per draw).
 */
class DiscreteSampler
{
  public:
    /** @param weights unnormalized non-negative weights; sum must be > 0. */
    explicit DiscreteSampler(std::vector<double> weights);

    /** Draw an index in [0, weights.size()). */
    std::size_t operator()(Rng &rng) const;

    /** Normalized probability of index i. */
    double probability(std::size_t i) const;

    std::size_t size() const { return cdf.size(); }

  private:
    std::vector<double> cdf;
    std::vector<double> probs;
};

} // namespace vcp

#endif // VCP_SIM_RANDOM_HH
