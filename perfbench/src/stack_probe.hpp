#pragma once

// The stack probe: fault::run_schedule's main loop rebuilt from the
// simulator's public constructors (same fixture constants, injector,
// manager, channel, transactions and optional health layer), so the
// benchmark can time each call into a layer from the outside. Its result
// must equal run_schedule's for the same schedule; the benchmark checks
// that on every schedule it probes, which keeps the probe from drifting
// away from the program it measures.

#include <cstdint>
#include <string>

#include "fault/chaos.hpp"
#include "spans.hpp"

namespace perfbench {

struct ProbeOptions {
  /// activity_driven, busy_path and recovery as run_schedule takes them.
  recosim::fault::ChaosRunOptions run;
  /// Time the layers: per-cycle step/send/receive sums, sampled occupancy
  /// and progress queries, verify_invariants. Off, the probe only folds
  /// the delivery hash (the reference-mode check).
  bool timed = false;
  /// Span sink for the timed pass (may be null).
  SpanRecorder* spans = nullptr;
  std::uint64_t trace = 0;
};

/// Everything the probe measures about one schedule. Counts are exact
/// (simulated); *_ns fields are host time and stay 0 when untimed.
struct ProbeResult {
  recosim::fault::ChaosResult result;  ///< the fields run_schedule reports
  /// FNV-1a fold of (src, dst, tag, cycle) over every packet
  /// ReliableChannel::receive returned, in order.
  std::uint64_t delivery_hash = 0;

  // sim
  std::uint64_t ff_cycles = 0;
  std::uint64_t ff_jumps = 0;
  std::uint64_t components_end = 0;
  std::uint64_t active_sum = 0;  ///< Σ active components after each step
  std::uint64_t steps = 0;       ///< traffic-phase Kernel::run(1) calls
  std::int64_t step_ns = 0;
  std::uint64_t early_steps = 0, late_steps = 0;  ///< first / last quarter
  std::int64_t early_ns = 0, late_ns = 0;
  std::int64_t settle_ns = 0;

  // architecture
  std::uint64_t arch_sent = 0;
  std::uint64_t arch_dropped = 0;
  std::uint64_t in_flight_calls = 0;
  std::int64_t in_flight_ns = 0;
  std::uint64_t progress_calls = 0;
  std::int64_t progress_ns = 0;
  std::uint64_t verify_calls = 0;
  std::int64_t verify_ns = 0;

  // fault
  std::uint64_t send_calls = 0;
  std::int64_t send_ns = 0;
  std::uint64_t receive_calls = 0;
  std::uint64_t receive_hits = 0;
  std::int64_t receive_ns = 0;
  std::uint64_t data_sent = 0;
  std::uint64_t retransmissions = 0;

  // core / fpga
  std::uint64_t txns = 0;
  std::uint64_t drain_cycles = 0;  ///< Σ over transactions
  std::uint64_t icap_requests = 0;
  std::uint64_t icap_aborts = 0;

  // health
  std::uint64_t detector_polls = 0;

  std::int64_t total_ns = 0;  ///< the whole probe call
};

/// One step of the FNV-1a fold the delivery hash uses: the eight bytes of
/// `v`, low byte first, into `h` (start from kFnvOffset).
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
std::uint64_t fnv1a_fold(std::uint64_t h, std::uint64_t v);

ProbeResult probe_schedule(const recosim::fault::ChaosSchedule& schedule,
                           const ProbeOptions& options);

/// Compare the fields the probe must reproduce (delivered, accepted,
/// committed / rolled back / forced drains, end cycle, max latency,
/// incidents). Returns "" when equal, else a description of the first
/// difference.
std::string outcome_difference(const recosim::fault::ChaosResult& probe,
                               const recosim::fault::ChaosResult& program);

}  // namespace perfbench
