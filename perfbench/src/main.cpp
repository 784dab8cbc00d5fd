// Campaign benchmark: runs one recosim-chaos workload through the
// simulation farm, times it end to end with tracing off (--trace 0), or
// replays the same schedules through the stack probe and reports
// per-layer figures (--trace 1). See perfbench/README.md.
//
//   campaign_bench --workload chaos|stream|guarded --seed N --seconds S
//                  --trace 0|1 [--work-dir DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Exit status: 0 correct, 1 a
// correctness check failed (the JSON says which count), 2 usage error.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "farm/chaos_campaign.hpp"
#include "farm/farm.hpp"
#include "fault/chaos.hpp"
#include "spans.hpp"
#include "stack_probe.hpp"
#include "stats.hpp"
#include "verify/diagnostic.hpp"
#include "verify/envelope.hpp"

namespace {

using namespace recosim;
using perfbench::now_ns;

/// A workload: one recosim-chaos invocation style. Every pass runs
/// `campaigns` campaigns of kSeedsPerCampaign seeds over all four
/// architectures; the pass is the workload's fixed input set.
struct Workload {
  const char* name;
  int ops;
  sim::Cycle horizon;
  bool recovery;
  bool lint_first;
  int workers;
  bool journal;
  int campaigns;
  /// Seeds are drawn from 1..seed_range: the range the repository's CI
  /// runs clean in this mode (2000-seed plain campaign, 200-seed
  /// --recovery smoke). --seed picks a window of it.
  std::uint64_t seed_range;
};

// chaos: the default recosim-chaos campaign, transaction/watchdog bound.
// stream: no transactions, long horizon; kernel, architecture and
//   ReliableChannel per-cycle costs dominate.
// guarded: --recovery --lint-first on two workers with a journal; the only
//   workload where health, verify and the farm's parallel dispatch work.
constexpr Workload kWorkloads[] = {
    {"chaos", 8, 30'000, false, false, 1, false, 3, 2000},
    {"stream", 0, 200'000, false, false, 1, false, 3, 2000},
    {"guarded", 8, 30'000, true, true, 2, true, 4, 200},
};

constexpr std::uint64_t kSeedsPerCampaign = 10;
/// The traced pass re-runs every kReferenceEvery-th seed in reference mode
/// (no activity-driven kernel, busy path off) and, with recovery, without
/// the health layer.
constexpr std::size_t kReferenceEvery = 10;
constexpr int kDigestRepeats = 20;
/// The end-to-end pass is repeated at least kMinPasses times (best-of
/// needs repeats) and at most kMaxPasses, as long as --seconds allows.
constexpr int kMinPasses = 3;
constexpr int kMaxPasses = 12;

const fault::ChaosArch* kArchs = std::begin(fault::kAllChaosArchs);
constexpr std::size_t kArchCount = std::size(fault::kAllChaosArchs);

std::vector<std::uint64_t> campaign_seeds(const Workload& w,
                                          std::uint64_t seed, int campaign) {
  const std::uint64_t per_pass = kSeedsPerCampaign * w.campaigns;
  const std::uint64_t base = 1 + (seed % (w.seed_range / per_pass)) * per_pass +
                             kSeedsPerCampaign * campaign;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < kSeedsPerCampaign; ++i) seeds.push_back(base + i);
  return seeds;
}

/// Same-process calibration: a fixed churn of inserts and erases on a
/// std::map of up to 8192 nodes, timed in ms, so readers can relate figures
/// measured on different hosts. It is allocation- and pointer-heavy like
/// the simulator, which a pure arithmetic loop is not.
double calibration_ms() {
  const std::int64_t t0 = now_ns();
  std::map<std::uint32_t, int> m;
  std::uint32_t x = 7;
  for (int k = 0; k < 150'000; ++k) {
    x = x * 1664525u + 1013904223u;
    m[(x >> 8) % 8192] = k;
    if (k % 3 == 0) m.erase((x >> 4) % 8192);
  }
  volatile std::size_t sink = m.size();
  (void)sink;
  return static_cast<double>(now_ns() - t0) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- one farm campaign ------------------------------------------------------

struct CampaignRun {
  double setup_s = 0;  ///< campaign start to the first job dispatched
  double wall_s = 0;   ///< first job dispatched to the farm returning
  std::vector<double> run_s;  ///< per job, host time of its last attempt
  std::vector<farm::ChaosJobOutcome> outcomes;
  farm::CampaignReport report;
  std::uint64_t journal_bytes = 0;
};

CampaignRun run_campaign(const Workload& w, std::vector<std::uint64_t> seeds,
                         const std::string& work_dir) {
  CampaignRun c;
  const std::int64_t start = now_ns();
  farm::ChaosCampaignOptions opt;
  opt.seeds = std::move(seeds);
  opt.ops = w.ops;
  opt.horizon = w.horizon;
  opt.recovery = w.recovery;
  opt.lint_first = w.lint_first;
  std::vector<farm::Job> jobs = farm::make_chaos_jobs(opt, &c.outcomes);
  c.run_s.assign(jobs.size(), 0.0);
  std::atomic<std::int64_t> first_dispatch{0};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].fn = [inner = std::move(jobs[i].fn), slot = &c.run_s[i],
                  &first_dispatch](const farm::RunContext& ctx) {
      const std::int64_t t0 = now_ns();
      std::int64_t unset = 0;
      first_dispatch.compare_exchange_strong(unset, t0);
      farm::RunResult r = inner(ctx);
      *slot = static_cast<double>(now_ns() - t0) / 1e9;
      return r;
    };
  }
  farm::FarmConfig fc;
  fc.jobs = w.workers;
  fc.campaign_config = farm::chaos_campaign_config(opt);
  std::string journal;
  if (w.journal) {
    journal = work_dir + "/journal-" + w.name + ".jsonl";
    std::filesystem::remove(journal);
    fc.journal_path = journal;
  }
  farm::SimFarm f(fc);
  c.report = f.run(jobs);
  const std::int64_t end = now_ns();
  c.setup_s = static_cast<double>(first_dispatch.load() - start) / 1e9;
  c.wall_s = static_cast<double>(end - first_dispatch.load()) / 1e9;
  if (!journal.empty()) {
    c.journal_bytes = std::filesystem::file_size(journal);
    std::filesystem::remove(journal);
  }
  return c;
}

bool lint_skipped(const CampaignRun& c, std::size_t job) {
  return c.report.records[job].digest == "lint-skipped";
}

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

/// Simulated results and exact work counts, apart from the wall-clock
/// fields: a simulator-only speed-up leaves the first object byte-identical.
struct Deterministic {
  std::uint64_t runs = 0, lint_skipped = 0, sim_cycles = 0, delivered = 0;
  std::uint64_t committed = 0, rolled_back = 0, incidents = 0;
  // Only the traced pass sees these (they are internal to run_schedule).
  bool probed = false;
  std::uint64_t icap_requests = 0, icap_aborts = 0;
  std::uint64_t delivery_hash = perfbench::kFnvOffset;
  std::uint64_t executed_cycles = 0, ff_jumps = 0;

  void add(const fault::ChaosResult& r) {
    ++runs;
    sim_cycles += r.end_cycle;
    delivered += r.delivered;
    committed += r.txns_committed;
    rolled_back += r.txns_rolled_back;
    incidents += r.incidents;
  }
  void print(const char* workload, std::uint64_t seed) const {
    std::printf("{\"deterministic\": {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"runs\": %" PRIu64 ", \"lint_skipped\": %" PRIu64
                ", \"sim_cycles\": %" PRIu64 ", \"delivered\": %" PRIu64
                ", \"txns_committed\": %" PRIu64
                ", \"txns_rolled_back\": %" PRIu64 ", \"incidents\": %" PRIu64,
                workload, seed, runs, lint_skipped, sim_cycles, delivered,
                committed, rolled_back, incidents);
    if (probed)
      std::printf(", \"icap_requests\": %" PRIu64 ", \"icap_aborts\": %" PRIu64
                  ", \"delivery_hash\": \"%016" PRIx64
                  "\"}, \"work_counts\": {\"executed_cycles\": %" PRIu64
                  ", \"ff_jumps\": %" PRIu64 "}}\n",
                  icap_requests, icap_aborts, delivery_hash, executed_cycles,
                  ff_jumps);
    else
      std::printf("}}\n");
  }
};

// --- --trace 0: end to end ------------------------------------------------

int run_end_to_end(const Workload& w, std::uint64_t seed, double seconds,
                   const std::string& work_dir) {
  // Every pass runs the same jobs. Interference from other tenants of a
  // shared host only ever adds time, so each job's host time is its best
  // over the passes, and each campaign's wall time likewise.
  const std::size_t jobs_per_pass =
      kArchCount * kSeedsPerCampaign * static_cast<std::size_t>(w.campaigns);
  std::vector<double> best_run_s(jobs_per_pass, 1e300);
  std::vector<double> best_wall_s(w.campaigns, 1e300);
  std::vector<double> setup_s;
  std::vector<double> calib_ms{calibration_ms()};
  std::vector<std::string> digests(jobs_per_pass);
  std::vector<char> measured(jobs_per_pass, 0);
  std::vector<std::size_t> arch_of(jobs_per_pass);
  std::uint64_t attempted = 0, failed = 0, skipped = 0;
  Deterministic det;

  const std::int64_t start = now_ns();
  int passes = 0;
  double pass_s = 0;
  do {
    const std::int64_t pass_start = now_ns();
    std::size_t job = 0;
    for (int cidx = 0; cidx < w.campaigns; ++cidx) {
      const CampaignRun c =
          run_campaign(w, campaign_seeds(w, seed, cidx), work_dir);
      calib_ms.push_back(calibration_ms());
      setup_s.push_back(c.setup_s);
      best_wall_s[cidx] = std::min(best_wall_s[cidx], c.wall_s);
      for (std::size_t j = 0; j < c.report.records.size(); ++j, ++job) {
        const farm::RunRecord& rec = c.report.records[j];
        ++attempted;
        if (passes == 0) digests[job] = rec.digest;
        if (rec.digest != digests[job]) {
          std::fprintf(stderr,
                       "FAIL %s seed %" PRIu64 ": digest differs between passes\n",
                       rec.key.arch.c_str(), rec.key.seed);
          ++failed;
        }
        if (lint_skipped(c, j)) {
          ++skipped;
          if (passes == 0) ++det.lint_skipped;
          continue;
        }
        if (rec.status != farm::RunStatus::kOk) {
          std::fprintf(stderr, "FAIL %s seed %" PRIu64 ": %s\n%s",
                       rec.key.arch.c_str(), rec.key.seed,
                       farm::to_string(rec.status), rec.output.c_str());
          ++failed;
          continue;
        }
        if (passes == 0) det.add(c.outcomes[j].result);
        measured[job] = 1;
        arch_of[job] = j / kSeedsPerCampaign;
        best_run_s[job] = std::min(best_run_s[job], c.run_s[j]);
      }
    }
    ++passes;
    pass_s = static_cast<double>(now_ns() - pass_start) / 1e9;
  } while (passes < kMinPasses ||
           (passes < kMaxPasses &&
            static_cast<double>(now_ns() - start) / 1e9 + pass_s <= seconds));

  std::vector<double> run_ms;
  std::vector<double> arch_s(kArchCount, 0.0);
  std::vector<std::uint64_t> arch_runs(kArchCount, 0);
  for (std::size_t j = 0; j < jobs_per_pass; ++j) {
    if (!measured[j]) continue;
    run_ms.push_back(best_run_s[j] * 1e3);
    arch_s[arch_of[j]] += best_run_s[j];
    ++arch_runs[arch_of[j]];
  }
  double wall_s = 0;
  for (double s : best_wall_s) wall_s += s;

  det.print(w.name, seed);
  const perfbench::Distribution d = perfbench::distribution(run_ms);
  std::printf("passes %d, runs per pass %zu, lint-skipped %" PRIu64
              ", run_ms samples %zu%s\n",
              passes, d.count, skipped, d.count,
              d.p90_resolved ? "" : " (p90 has fewer than 10 samples beyond it)");
  std::printf("host.calib_ms %.3f (median of %zu, one before the first "
              "campaign and one after each)\n",
              perfbench::median(calib_ms), calib_ms.size());

  std::vector<Metric> m;
  m.push_back({"runs_per_s", ratio(static_cast<double>(det.runs), wall_s), "1/s"});
  for (std::size_t a = 0; a < kArchCount; ++a)
    m.push_back({std::string("runs_per_s.") + fault::to_string(kArchs[a]),
                 ratio(static_cast<double>(arch_runs[a]), arch_s[a]), "1/s"});
  m.push_back({"sim_cycles_per_s",
               ratio(static_cast<double>(det.sim_cycles), wall_s), "1/s"});
  m.push_back({"run_ms_p50", d.p50, "ms"});
  m.push_back({"run_ms_p90", d.p90, "ms"});
  m.push_back({"setup_s", perfbench::median(setup_s), "s"});
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  m.push_back({"run_ok_share",
               ratio(static_cast<double>(attempted - skipped - failed),
                     static_cast<double>(attempted - skipped)),
               "share"});
  print_result(failed == 0, attempted, failed, m);
  return failed == 0 ? 0 : 1;
}

// --- --trace 1: per layer ---------------------------------------------------

struct ArchLayer {
  std::uint64_t steps = 0, sent = 0, dropped = 0;
  std::int64_t step_ns = 0;
  std::uint64_t in_flight_calls = 0, progress_calls = 0, verify_calls = 0;
  std::int64_t in_flight_ns = 0, progress_ns = 0, verify_ns = 0;
};

int run_traced(const Workload& w, std::uint64_t seed,
               const std::string& work_dir) {
  std::vector<double> calib;
  for (int i = 0; i < 5; ++i) calib.push_back(calibration_ms());
  const double calib_ms = perfbench::median(calib);
  perfbench::SpanRecorder spans;
  fault::ChaosRunOptions ro;
  ro.recovery = w.recovery;
  fault::ChaosRunOptions reference = ro;
  reference.activity_driven = false;
  reference.busy_path = false;
  fault::ChaosRunOptions no_health = ro;
  no_health.recovery = false;

  Deterministic det;
  det.probed = true;
  std::vector<ArchLayer> arch(kArchCount);
  perfbench::ProbeResult sum;  // counts and times summed over probed runs
  std::uint64_t attempted = 0, failed = 0, probed = 0, lint_runs = 0;
  std::int64_t make_ns = 0, lint_ns = 0, program_ns = 0, digest_ns = 0;
  std::int64_t health_on_ns = 0, health_off_ns = 0;
  std::uint64_t health_on_steps = 0, health_off_steps = 0;
  std::uint64_t references = 0;

  auto fail = [&](const fault::ChaosSchedule& s, const std::string& what) {
    std::fprintf(stderr, "FAIL %s seed %" PRIu64 ": %s\n",
                 fault::to_string(s.arch), s.seed, what.c_str());
    ++failed;
  };

  std::uint64_t trace = 0;
  for (int cidx = 0; cidx < w.campaigns; ++cidx) {
    const std::vector<std::uint64_t> seeds = campaign_seeds(w, seed, cidx);
    for (std::size_t a = 0; a < kArchCount; ++a) {
      for (std::size_t si = 0; si < seeds.size(); ++si, ++trace) {
        ++attempted;
        fault::ChaosSchedule s;
        {
          perfbench::ScopedSpan span(&spans, "fault.make_schedule", trace);
          const std::int64_t t0 = now_ns();
          s = fault::make_schedule(kArchs[a], seeds[si], w.ops, w.horizon);
          make_ns += now_ns() - t0;
        }
        if (w.lint_first) {
          perfbench::ScopedSpan span(&spans, "verify.timeline_lint", trace);
          const std::int64_t t0 = now_ns();
          verify::DiagnosticSink lint;
          std::vector<verify::ResourceEnvelope> envelopes;
          verify::EnvelopeParams ep;
          ep.collect = &envelopes;
          fault::timeline_lint_schedule(s, lint, &ep);
          lint_ns += now_ns() - t0;
          ++lint_runs;
          if (lint.error_count() > 0) {
            ++det.lint_skipped;
            continue;
          }
        }

        const std::int64_t t0 = now_ns();
        const fault::ChaosResult program = fault::run_schedule(s, ro);
        program_ns += now_ns() - t0;
        if (!program.ok) fail(s, "run_schedule reports violations");

        perfbench::ProbeOptions po;
        po.run = ro;
        po.timed = true;
        po.spans = &spans;
        po.trace = trace;
        const perfbench::ProbeResult p = perfbench::probe_schedule(s, po);
        ++probed;
        if (const std::string diff =
                perfbench::outcome_difference(p.result, program);
            !diff.empty())
          fail(s, "stack probe differs from run_schedule: " + diff);

        const std::int64_t d0 = now_ns();
        // The digest lives in another translation unit, so the calls stay.
        for (int i = 0; i < kDigestRepeats; ++i)
          (void)farm::chaos_result_digest(program);
        digest_ns += now_ns() - d0;

        if (si % kReferenceEvery == 0) {
          perfbench::ProbeOptions ref;
          ref.run = reference;
          const perfbench::ProbeResult r = perfbench::probe_schedule(s, ref);
          ++references;
          if (r.delivery_hash != p.delivery_hash)
            fail(s, "delivery order differs in reference mode");
          if (const std::string diff =
                  perfbench::outcome_difference(r.result, program);
              !diff.empty())
            fail(s, "reference mode differs: " + diff);
          if (w.recovery) {
            perfbench::ProbeOptions off;
            off.run = no_health;
            off.timed = true;
            const perfbench::ProbeResult q = perfbench::probe_schedule(s, off);
            health_off_ns += q.step_ns;
            health_off_steps += q.steps;
            health_on_ns += p.step_ns;
            health_on_steps += p.steps;
          }
        }

        det.add(p.result);
        det.icap_requests += p.icap_requests;
        det.icap_aborts += p.icap_aborts;
        det.delivery_hash =
            perfbench::fnv1a_fold(det.delivery_hash, p.delivery_hash);
        det.executed_cycles += p.result.end_cycle - p.ff_cycles;
        det.ff_jumps += p.ff_jumps;

        ArchLayer& al = arch[a];
        al.steps += p.steps;
        al.step_ns += p.step_ns;
        al.sent += p.arch_sent;
        al.dropped += p.arch_dropped;
        al.in_flight_calls += p.in_flight_calls;
        al.in_flight_ns += p.in_flight_ns;
        al.progress_calls += p.progress_calls;
        al.progress_ns += p.progress_ns;
        al.verify_calls += p.verify_calls;
        al.verify_ns += p.verify_ns;

        sum.result.end_cycle += p.result.end_cycle;
        sum.result.incidents += p.result.incidents;
        sum.ff_cycles += p.ff_cycles;
        sum.ff_jumps += p.ff_jumps;
        sum.components_end += p.components_end;
        sum.active_sum += p.active_sum;
        sum.steps += p.steps;
        sum.step_ns += p.step_ns;
        sum.early_steps += p.early_steps;
        sum.early_ns += p.early_ns;
        sum.late_steps += p.late_steps;
        sum.late_ns += p.late_ns;
        sum.settle_ns += p.settle_ns;
        sum.send_calls += p.send_calls;
        sum.send_ns += p.send_ns;
        sum.receive_calls += p.receive_calls;
        sum.receive_hits += p.receive_hits;
        sum.receive_ns += p.receive_ns;
        sum.data_sent += p.data_sent;
        sum.retransmissions += p.retransmissions;
        sum.txns += p.txns;
        sum.result.txns_rolled_back += p.result.txns_rolled_back;
        sum.drain_cycles += p.drain_cycles;
        sum.icap_requests += p.icap_requests;
        sum.icap_aborts += p.icap_aborts;
        sum.detector_polls += p.detector_polls;
        sum.total_ns += p.total_ns;
      }
    }
  }

  // The farm layer: one campaign of the workload on its own farm
  // configuration, each Job::fn wrapped with a timer.
  const CampaignRun c = run_campaign(w, campaign_seeds(w, seed, 0), work_dir);
  double run_sum_s = 0;
  for (double s : c.run_s) run_sum_s += s;
  if (c.report.ok + c.report.failed + c.report.quarantined !=
          c.report.records.size() ||
      c.report.failed + c.report.quarantined > 0) {
    std::fprintf(stderr, "FAIL farm campaign: %zu failed, %zu quarantined\n",
                 c.report.failed, c.report.quarantined);
    ++failed;
  }

  det.print(w.name, seed);
  const std::string span_file = work_dir + "/spans-" + w.name + ".jsonl";
  if (!spans.write_jsonl(span_file)) {
    std::fprintf(stderr, "cannot write %s\n", span_file.c_str());
    ++failed;
  }
  std::printf("probed %" PRIu64 " schedules (%" PRIu64
              " in reference mode), spans in %s\n",
              probed, references, span_file.c_str());

  const double runs = static_cast<double>(probed);
  const double cycles = static_cast<double>(sum.result.end_cycle);
  const auto ns_per = [](std::int64_t ns, std::uint64_t n) {
    return ratio(static_cast<double>(ns), static_cast<double>(n));
  };
  std::vector<Metric> m;
  m.push_back({"host.calib_ms", calib_ms, "ms"});
  m.push_back({"sim.step_ns", ns_per(sum.step_ns, sum.steps), "ns"});
  m.push_back({"sim.step_ns_late_over_early",
               ratio(ns_per(sum.late_ns, sum.late_steps),
                     ns_per(sum.early_ns, sum.early_steps)),
               "ratio"});
  m.push_back({"sim.settle_ms", ratio(static_cast<double>(sum.settle_ns) / 1e6, runs),
               "ms"});
  m.push_back({"sim.executed_per_sim_cycle",
               ratio(cycles - static_cast<double>(sum.ff_cycles), cycles),
               "ratio"});
  m.push_back({"sim.ff_jump_mean",
               ratio(static_cast<double>(sum.ff_cycles),
                     static_cast<double>(sum.ff_jumps)),
               "cycles"});
  m.push_back({"sim.components_end",
               ratio(static_cast<double>(sum.components_end), runs), "count"});
  m.push_back({"sim.active_components_mean",
               ratio(static_cast<double>(sum.active_sum),
                     static_cast<double>(sum.steps)),
               "count"});
  for (std::size_t a = 0; a < kArchCount; ++a) {
    const std::string p = fault::to_string(kArchs[a]);
    const ArchLayer& al = arch[a];
    m.push_back({p + ".step_ns", ns_per(al.step_ns, al.steps), "ns"});
    m.push_back({p + ".in_flight_ns", ns_per(al.in_flight_ns, al.in_flight_calls),
                 "ns"});
    m.push_back({p + ".progress_query_ns",
                 ns_per(al.progress_ns, al.progress_calls), "ns"});
    m.push_back({p + ".verify_invariants_us",
                 ns_per(al.verify_ns, al.verify_calls) / 1e3, "us"});
    m.push_back({p + ".drop_ratio",
                 ratio(static_cast<double>(al.dropped),
                       static_cast<double>(al.sent)),
                 "ratio"});
  }
  m.push_back({"fault.make_schedule_us", ns_per(make_ns, attempted) / 1e3, "us"});
  m.push_back({"fault.run_schedule_ms", ns_per(program_ns, probed) / 1e6, "ms"});
  m.push_back({"fault.channel_send_ns", ns_per(sum.send_ns, sum.send_calls), "ns"});
  m.push_back({"fault.channel_receive_ns",
               ns_per(sum.receive_ns, sum.receive_calls), "ns"});
  m.push_back({"fault.receive_calls_per_sim_cycle",
               ratio(static_cast<double>(sum.receive_calls), cycles), "ratio"});
  m.push_back({"fault.receive_hit_ratio",
               ratio(static_cast<double>(sum.receive_hits),
                     static_cast<double>(sum.receive_calls)),
               "ratio"});
  m.push_back({"fault.retransmit_ratio",
               ratio(static_cast<double>(sum.retransmissions),
                     static_cast<double>(sum.data_sent)),
               "ratio"});
  m.push_back({"core.rollback_ratio",
               ratio(static_cast<double>(sum.result.txns_rolled_back),
                     static_cast<double>(sum.txns)),
               "ratio"});
  m.push_back({"core.drain_cycles_mean",
               ratio(static_cast<double>(sum.drain_cycles),
                     static_cast<double>(sum.txns)),
               "cycles"});
  m.push_back({"fpga.icap_abort_ratio",
               ratio(static_cast<double>(sum.icap_aborts),
                     static_cast<double>(sum.icap_requests)),
               "ratio"});
  m.push_back({"health.step_ns_delta",
               w.recovery ? ns_per(health_on_ns, health_on_steps) -
                                ns_per(health_off_ns, health_off_steps)
                          : 0.0,
               "ns"});
  m.push_back({"health.detector_polls_per_sim_cycle",
               ratio(static_cast<double>(sum.detector_polls), cycles), "ratio"});
  m.push_back({"health.incidents_per_run",
               ratio(static_cast<double>(sum.result.incidents), runs), "count"});
  m.push_back({"verify.timeline_lint_ms", ns_per(lint_ns, lint_runs) / 1e6, "ms"});
  m.push_back({"verify.lint_skipped_share",
               ratio(static_cast<double>(det.lint_skipped),
                     static_cast<double>(attempted)),
               "share"});
  m.push_back({"farm.overhead_share",
               ratio(c.wall_s - run_sum_s / w.workers, c.wall_s), "share"});
  m.push_back({"farm.parallel_efficiency",
               ratio(run_sum_s, c.wall_s * w.workers), "share"});
  m.push_back({"farm.digest_us",
               ns_per(digest_ns, probed * kDigestRepeats) / 1e3, "us"});
  m.push_back({"farm.journal_bytes_per_run",
               ratio(static_cast<double>(c.journal_bytes),
                     static_cast<double>(c.report.records.size())),
               "bytes"});
  m.push_back({"trace.overhead_share",
               ratio(static_cast<double>(sum.total_ns - program_ns),
                     static_cast<double>(program_ns)),
               "share"});
  const auto self = spans.self_ns_by_layer();
  for (const char* layer :
       {"sim", "arch", "fault", "core", "health", "verify", "probe"}) {
    const auto it = self.find(layer);
    const double ns = it == self.end() ? 0.0 : static_cast<double>(it->second);
    m.push_back({std::string("self_ms_per_run.") + layer, ratio(ns / 1e6, runs),
                 "ms"});
  }
  print_result(failed == 0, attempted, failed, m);
  return failed == 0 ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "campaign_bench: %s\nusage: campaign_bench --workload "
               "chaos|stream|guarded --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string work_dir = ".";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage((arg + " needs a value").c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads)
        if (value == w.name) workload = &w;
      if (!workload) return usage(("unknown workload " + value).c_str());
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (arg == "--work-dir") {
      work_dir = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (!workload || !have_seed || seconds <= 0 || trace < 0)
    return usage("--workload, --seed, --seconds and --trace are required");
  try {
    std::filesystem::create_directories(work_dir);
    return trace ? run_traced(*workload, seed, work_dir)
                 : run_end_to_end(*workload, seed, seconds, work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 2;
  }
}
