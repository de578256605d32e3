#pragma once
// Adaptive admission — derive the executor's batch flop budget online.
//
// The executor closes a batch at `max_batch_flops`. Because the serving
// engine counts flops EXACTLY (Σ base-row lengths per lhs entry — no
// estimation), every flushed batch yields one exact (flops, latency)
// sample, and a latency target translates directly into a flop budget:
//
//   latency ≈ fixed_cost + ns_per_flop · flops
//   ⇒ max_batch_flops = (target − fixed_cost) / ns_per_flop
//
// This controller is that translation: an EWMA over the per-batch
// ns-per-flop (batches large enough that the fixed cost is noise). It is a
// PURE component — observe() takes the sample, limits() returns the
// recommendation, nothing reads a clock — so tests drive it with injected
// timings and assert exact convergence. The executor wires real batch
// timings in when `Config.latency_target` is set; with the target unset
// (the default) admission stays fully static. There is no queue-depth
// limit to steer: the async flusher launches whenever its queue is
// non-empty, so batch sizes follow load by themselves.
//
// Adaptivity never touches results: admission only decides how the queue
// is SLICED into batches, and batching is answer-invariant by the serving
// determinism contract.
//
// Tail-aware mode: alongside the EWMA mean the controller keeps a
// log-bucketed histogram of every usable ns-per-flop sample (the
// util/metrics.hpp bucket geometry, in 1/1024 ns-per-flop fixed point,
// stored as a plain copyable array — still pure, still no clocks). With
// `Config.use_p95` set, budget derivation divides the target by the
// nearest-rank p95 instead of the mean: tail-aware admission that one
// lucky fast batch cannot widen. The executor exports the live budget and
// the usable-sample count as gauges, so a starved controller (all batches
// below min_sample_flops) is visible instead of silently static.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>

#include "util/metrics.hpp"

namespace hyperspace::serve {

class AdmissionController {
 public:
  struct Config {
    /// Per-batch latency to converge toward. Zero disables the controller.
    std::chrono::microseconds latency_target{0};
    /// Clamp bounds for the derived flop budget: the controller must not
    /// starve admission to nothing on a latency spike nor open the flood
    /// gates on one lucky fast batch.
    std::uint64_t min_batch_flops = 1u << 10;
    std::uint64_t max_batch_flops = std::uint64_t{1} << 40;
    /// EWMA smoothing weight of a new sample, in [0, 1].
    double gain = 0.25;
    /// Ignore batches below this flop mass when estimating ns/flop: tiny
    /// batches measure the fixed launch cost, not the marginal flop cost.
    std::uint64_t min_sample_flops = 256;
    /// Steer by the p95 of observed ns-per-flop instead of the EWMA mean.
    /// Tail-aware: the budget converges to what the SLOW batches cost, so
    /// a latency target is met at the tail, not on average. Falls back to
    /// the EWMA until the histogram has a sample.
    bool use_p95 = false;
  };

  /// The live admission limit the executor consumes.
  struct Limits {
    std::uint64_t max_batch_flops;
  };

  AdmissionController() = default;
  explicit AdmissionController(Config cfg, Limits initial)
      : cfg_(cfg), limits_(clamp(initial)) {}

  bool enabled() const { return cfg_.latency_target.count() > 0; }

  /// Feed one flushed batch's exact sample: its admitted flop mass and its
  /// measured wall latency.
  void observe(std::uint64_t flops, std::chrono::nanoseconds latency) {
    if (!enabled()) return;
    if (flops < cfg_.min_sample_flops) return;  // fixed-cost noise
    const double sample = static_cast<double>(latency.count()) /
                          static_cast<double>(flops);
    if (sample <= 0.0) return;
    ns_per_flop_ = ns_per_flop_ <= 0.0 ? sample : ewma(ns_per_flop_, sample);
    buckets_[util::metrics::bucket_index(to_fixed(sample))] += 1;
    samples_ += 1;
    const double target_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            cfg_.latency_target)
            .count());
    const double cost = cfg_.use_p95 && samples_ > 0
                            ? std::max(p95_ns_per_flop(), kMinCost)
                            : ns_per_flop_;
    const double want = target_ns / cost;
    limits_ = clamp({want >= static_cast<double>(cfg_.max_batch_flops)
                         ? cfg_.max_batch_flops
                         : static_cast<std::uint64_t>(want)});
  }

  Limits limits() const { return limits_; }
  const Config& config() const { return cfg_; }

  /// Current ns-per-flop estimate (0 until the first usable sample).
  double ns_per_flop() const { return ns_per_flop_; }

  /// Usable samples observed (those at or above min_sample_flops). A
  /// controller stuck at 0 here is starved — every batch measured fixed
  /// cost — and its limits are whatever they were configured to.
  std::uint64_t samples() const { return samples_; }

  /// Nearest-rank percentile of every usable ns-per-flop sample so far,
  /// at the histogram's 2^-4 relative resolution. 0 until the first
  /// sample.
  double ns_per_flop_percentile(double q) const {
    const auto rank = util::metrics::nearest_rank(q, samples_);
    if (rank == 0) return 0.0;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      cum += buckets_[i];
      if (cum >= rank) return from_fixed(util::metrics::bucket_floor(i));
    }
    return 0.0;
  }
  double p95_ns_per_flop() const { return ns_per_flop_percentile(0.95); }

 private:
  /// ns-per-flop is routinely below 1, so the histogram stores samples in
  /// 1/1024 ns-per-flop fixed point to keep sub-ns resolution.
  static constexpr double kFixedScale = 1024.0;
  static constexpr double kMinCost = 1.0 / kFixedScale;
  static std::uint64_t to_fixed(double ns_per_flop) {
    return static_cast<std::uint64_t>(ns_per_flop * kFixedScale);
  }
  static double from_fixed(std::uint64_t v) {
    return static_cast<double>(v) / kFixedScale;
  }

  double ewma(double prev, double sample) const {
    return prev + cfg_.gain * (sample - prev);
  }

  Limits clamp(Limits l) const {
    l.max_batch_flops = std::clamp(l.max_batch_flops, cfg_.min_batch_flops,
                                   cfg_.max_batch_flops);
    return l;
  }

  Config cfg_{};
  Limits limits_{std::uint64_t{1} << 32};
  double ns_per_flop_ = 0.0;
  std::uint64_t samples_ = 0;
  /// Plain (non-atomic) sample histogram: observe() is already serialized
  /// by the executor's flush lock, and a plain array keeps the controller
  /// copyable and pure.
  std::array<std::uint64_t, util::metrics::kNumBuckets> buckets_{};
};

}  // namespace hyperspace::serve
