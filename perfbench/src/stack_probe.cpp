#include "stack_probe.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "buscom/buscom.hpp"
#include "conochi/conochi.hpp"
#include "core/reconfig_manager.hpp"
#include "core/reconfig_txn.hpp"
#include "dynoc/dynoc.hpp"
#include "fault/injector.hpp"
#include "fault/reliable_channel.hpp"
#include "health/health.hpp"
#include "rmboc/rmboc.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"
#include "verify/diagnostic.hpp"

namespace perfbench {

using namespace recosim;
using fault::ChaosArch;

namespace {

// The chaos fixture constants of src/fault/chaos.cpp. A change there that
// is not mirrored here shows up as a probe/run_schedule mismatch.
constexpr int kRmbocSlots = 4;
constexpr int kRmbocBuses = 4;
constexpr int kBuscomBuses = 4;
constexpr int kDynocSize = 7;
constexpr fpga::Point kConochiSwitches[] = {{1, 1}, {5, 1}, {1, 5}, {5, 5}};
constexpr fpga::ModuleId kEndpointA = 1;
constexpr fpga::ModuleId kEndpointB = 2;
constexpr std::uint32_t kOpIds[] = {10, 11, 12, 13};

/// Occupancy and progress queries are timed in batches of kQueryBatch
/// calls every kQueryEvery traffic cycles; verify_invariants kVerifyRepeats
/// times after the run. These calls are const and leave the run unchanged.
constexpr sim::Cycle kQueryEvery = 256;
constexpr int kQueryBatch = 8;
constexpr int kVerifyRepeats = 5;

fpga::Device chaos_device() {
  fpga::Device d;
  d.name = "chaos_small";
  d.clb_columns = 24;
  d.clb_rows = 16;
  d.granularity = fpga::ReconfigGranularity::kTile;
  d.frames_per_clb_column = 4;
  d.bits_per_frame = 256;
  d.icap_width_bits = 32;
  d.icap_clock_mhz = 100.0;
  return d;
}

bool uses_rectangles(ChaosArch a) {
  return a == ChaosArch::kDynoc || a == ChaosArch::kConochi;
}

fpga::HardwareModule unit_module() {
  fpga::HardwareModule m;
  m.width_clbs = 1;
  m.height_clbs = 1;
  return m;
}

struct Fixture {
  std::unique_ptr<core::CommArchitecture> arch;
  sim::Cycle send_gap = 100;
  fault::ReliableChannelConfig channel;
};

Fixture make_fixture(sim::Kernel& kernel, ChaosArch a) {
  Fixture fx;
  switch (a) {
    case ChaosArch::kRmboc: {
      rmboc::RmbocConfig cfg;
      cfg.slots = kRmbocSlots;
      cfg.buses = kRmbocBuses;
      fx.arch = std::make_unique<rmboc::Rmboc>(kernel, cfg);
      fx.arch->attach(kEndpointA, unit_module());
      fx.arch->attach(kEndpointB, unit_module());
      fx.send_gap = 200;
      fx.channel.base_timeout = 2'048;
      fx.channel.max_timeout = 16'384;
      break;
    }
    case ChaosArch::kBuscom: {
      buscom::BuscomConfig cfg;
      cfg.buses = kBuscomBuses;
      fx.arch = std::make_unique<buscom::Buscom>(kernel, cfg);
      fx.arch->attach(kEndpointA, unit_module());
      fx.arch->attach(kEndpointB, unit_module());
      fx.send_gap = 600;
      fx.channel.base_timeout = 8'192;
      fx.channel.max_timeout = 65'536;
      break;
    }
    case ChaosArch::kDynoc: {
      dynoc::DynocConfig cfg;
      cfg.width = cfg.height = kDynocSize;
      auto dynoc = std::make_unique<dynoc::Dynoc>(kernel, cfg);
      dynoc->attach_at(kEndpointA, unit_module(), {1, 1});
      dynoc->attach_at(kEndpointB, unit_module(), {5, 1});
      fx.arch = std::move(dynoc);
      fx.send_gap = 100;
      break;
    }
    case ChaosArch::kConochi: {
      conochi::ConochiConfig cfg;
      cfg.grid_width = 8;
      cfg.grid_height = 8;
      auto conochi = std::make_unique<conochi::Conochi>(kernel, cfg);
      for (const auto& p : kConochiSwitches) conochi->add_switch(p);
      conochi->lay_wire({2, 1}, {4, 1});
      conochi->lay_wire({2, 5}, {4, 5});
      conochi->lay_wire({1, 2}, {1, 4});
      conochi->lay_wire({5, 2}, {5, 4});
      conochi->attach_at(kEndpointA, unit_module(), {1, 1});
      conochi->attach_at(kEndpointB, unit_module(), {5, 5});
      fx.arch = std::move(conochi);
      fx.send_gap = 150;
      break;
    }
  }
  return fx;
}

core::TxnConfig txn_config(health::FailureDetector* det) {
  core::TxnConfig tc;
  tc.drain_timeout = 4'000;
  tc.drain_stall_deadline = 1'000;
  tc.txn_timeout = 25'000;
  if (det)
    tc.on_drain_escalation = [det](const std::vector<fpga::ModuleId>& m) {
      det->observe_drain_escalation(m);
    };
  return tc;
}

}  // namespace

std::uint64_t fnv1a_fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

ProbeResult probe_schedule(const fault::ChaosSchedule& s,
                           const ProbeOptions& opt) {
  ProbeResult out;
  const bool timed = opt.timed;
  SpanRecorder* rec = timed ? opt.spans : nullptr;
  const std::int64_t probe_start = timed ? now_ns() : 0;
  ScopedSpan run_span(rec, "probe.run", opt.trace);

  sim::Kernel kernel;
  kernel.set_activity_driven(opt.run.activity_driven);
  kernel.set_busy_path_enabled(opt.run.busy_path);
  Fixture fx = [&] {
    ScopedSpan span(rec, "arch.build", opt.trace);
    return make_fixture(kernel, s.arch);
  }();
  core::CommArchitecture& arch = *fx.arch;

  std::unique_ptr<core::ReconfigManager> mgr_owner;
  {
    ScopedSpan span(rec, "core.manager_build", opt.trace);
    mgr_owner = std::make_unique<core::ReconfigManager>(
        kernel, chaos_device(), /*system_clock_mhz=*/100.0,
        uses_rectangles(s.arch) ? core::PlacementStrategy::kRectangles
                                : core::PlacementStrategy::kSlots,
        /*slot_count=*/4);
    mgr_owner->set_icap_retry_policy(/*limit=*/2, /*base_backoff=*/64);
  }
  core::ReconfigManager& mgr = *mgr_owner;

  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<fault::ReliableChannel> rc_owner;
  {
    ScopedSpan span(rec, "fault.build", opt.trace);
    injector = std::make_unique<fault::FaultInjector>(
        kernel, arch, s.faults, sim::Rng(s.seed * 977 + 13));
    injector->attach_icap(mgr.icap());
    rc_owner = std::make_unique<fault::ReliableChannel>(
        kernel, arch, fx.channel, sim::Rng(s.seed * 31 + 7));
    rc_owner->add_endpoint(kEndpointA);
    rc_owner->add_endpoint(kEndpointB);
    for (std::uint32_t id : kOpIds) rc_owner->add_endpoint(id);
  }
  fault::ReliableChannel& rc = *rc_owner;

  std::unique_ptr<health::FailureDetector> detector;
  std::unique_ptr<health::RecoveryOrchestrator> orch;
  health::FailureDetector* det = nullptr;
  if (opt.run.recovery) {
    ScopedSpan span(rec, "health.build", opt.trace);
    detector = std::make_unique<health::FailureDetector>(kernel, arch);
    det = detector.get();
    rc.set_event_hook(
        [det](const fault::ChannelEvent& ev) { det->observe_channel_event(ev); });
    health::OrchestratorConfig oc;
    oc.evac_txn = txn_config(det);
    orch = std::make_unique<health::RecoveryOrchestrator>(
        kernel, arch, *detector, &rc, &mgr, oc);
  }

  std::vector<std::unique_ptr<core::ReconfigTxn>> txns;
  for (const fault::ChaosOp& op : s.ops) {
    kernel.schedule_at(op.at, [&kernel, &mgr, &arch, &rc, &txns, det, op] {
      core::TxnRequest req;
      req.id = op.id;
      req.old_id = op.old_id;
      req.module.width_clbs = op.w;
      req.module.height_clbs = op.h;
      req.module.name = "chaos";
      switch (op.kind) {
        case fault::ChaosOp::Kind::kLoad: req.kind = core::TxnKind::kLoad; break;
        case fault::ChaosOp::Kind::kSwap: req.kind = core::TxnKind::kSwap; break;
        case fault::ChaosOp::Kind::kUnload:
          req.kind = core::TxnKind::kUnload;
          break;
        case fault::ChaosOp::Kind::kLoadCompact:
          req.kind = core::TxnKind::kLoadWithCompaction;
          break;
      }
      auto txn = std::make_unique<core::ReconfigTxn>(
          kernel, mgr, arch, std::move(req), txn_config(det));
      core::ReconfigTxn* t = txn.get();
      t->add_drain_source([&rc, t] {
        std::size_t n = 0;
        for (fpga::ModuleId id : t->quiesced_modules()) n += rc.outstanding(id);
        return n;
      });
      txns.push_back(std::move(txn));
    });
  }

  sim::Rng traffic(s.seed * 131 + 3);
  struct Flow {
    fpga::ModuleId src, dst;
    sim::Cycle accepted_at = 0;
  };
  std::map<std::uint64_t, Flow> accepted;
  std::map<std::uint64_t, int> delivered;
  sim::Cycle max_latency = 0;
  std::uint64_t next_tag = 0;
  std::uint64_t hash = kFnvOffset;
  std::vector<fpga::ModuleId> all_endpoints{kEndpointA, kEndpointB};
  for (std::uint32_t id : kOpIds) all_endpoints.push_back(id);
  auto drain_receives = [&] {
    for (fpga::ModuleId id : all_endpoints) {
      for (;;) {
        ++out.receive_calls;
        auto p = rc.receive(id);
        if (!p) break;
        ++out.receive_hits;
        hash = fnv1a_fold(hash, p->src);
        hash = fnv1a_fold(hash, p->dst);
        hash = fnv1a_fold(hash, p->tag);
        hash = fnv1a_fold(hash, kernel.now());
        if (++delivered[p->tag] == 1) {
          if (const auto it = accepted.find(p->tag); it != accepted.end())
            max_latency =
                std::max(max_latency, kernel.now() - it->second.accepted_at);
        }
      }
    }
  };

  volatile std::uint64_t query_sink = 0;
  auto time_queries = [&] {
    std::int64_t t0 = now_ns();
    for (int i = 0; i < kQueryBatch; ++i) query_sink = arch.in_flight_packets();
    std::int64_t t1 = now_ns();
    out.in_flight_ns += t1 - t0;
    out.in_flight_calls += kQueryBatch;
    for (int i = 0; i < kQueryBatch; ++i)
      query_sink = arch.packets_delivered() + arch.packets_dropped();
    out.progress_ns += now_ns() - t1;
    out.progress_calls += kQueryBatch;
  };

  {
    ScopedSpan traffic_span(rec, "probe.traffic", opt.trace);
    const sim::Cycle early_end = s.horizon / 4;
    const sim::Cycle late_begin = s.horizon - s.horizon / 4;
    std::int64_t receive_ns = 0, query_ns = 0;
    sim::Cycle next_send = 0;
    while (kernel.now() < s.horizon) {
      if (kernel.now() >= next_send) {
        fpga::ModuleId src = kEndpointA;
        fpga::ModuleId dst = kEndpointB;
        if (traffic.chance(0.5)) std::swap(src, dst);
        if (traffic.chance(0.25)) {
          std::vector<fpga::ModuleId> live;
          for (std::uint32_t id : kOpIds)
            if (arch.is_attached(id)) live.push_back(id);
          if (!live.empty()) {
            src = kEndpointA;
            dst = live[traffic.index(live.size())];
          }
        }
        if (!rc.peer_dead(src, dst)) {
          proto::Packet p;
          p.src = src;
          p.dst = dst;
          p.payload_bytes = 16;
          p.tag = ++next_tag;
          const std::int64_t t0 = timed ? now_ns() : 0;
          const bool sent = rc.send(p);
          if (timed) out.send_ns += now_ns() - t0;
          ++out.send_calls;
          if (sent)
            accepted.emplace(p.tag, Flow{src, dst, kernel.now()});
          else
            --next_tag;
        }
        next_send = kernel.now() + fx.send_gap;
      }
      const sim::Cycle cycle = kernel.now();
      if (timed) {
        const std::int64_t t0 = now_ns();
        kernel.run(1);
        const std::int64_t t1 = now_ns();
        drain_receives();
        const std::int64_t t2 = now_ns();
        out.step_ns += t1 - t0;
        receive_ns += t2 - t1;
        if (cycle < early_end) {
          out.early_ns += t1 - t0;
          ++out.early_steps;
        } else if (cycle >= late_begin) {
          out.late_ns += t1 - t0;
          ++out.late_steps;
        }
        if (cycle % kQueryEvery == 0) {
          time_queries();
          query_ns += now_ns() - t2;
        }
      } else {
        kernel.run(1);
        drain_receives();
      }
      ++out.steps;
      out.active_sum += kernel.active_components();
    }
    out.receive_ns = receive_ns;
    if (rec) {
      rec->aggregate("sim.step", out.steps, out.step_ns);
      rec->aggregate("fault.send", out.send_calls, out.send_ns);
      rec->aggregate("fault.receive", out.receive_calls, receive_ns);
      rec->aggregate("probe.queries", out.in_flight_calls + out.progress_calls,
                     query_ns);
    }
  }

  {
    ScopedSpan span(rec, "sim.settle", opt.trace);
    const std::int64_t t0 = timed ? now_ns() : 0;
    kernel.run_until(
        [&] {
          for (const auto& t : txns)
            if (!t->done()) return false;
          if (rc.outstanding() != 0) return false;
          return !orch || orch->idle();
        },
        250'000);
    if (timed) out.settle_ns = now_ns() - t0;
  }
  {
    ScopedSpan span(rec, "fault.receive_final", opt.trace);
    drain_receives();
  }

  fault::ChaosResult& r = out.result;
  r.end_cycle = kernel.now();
  r.accepted = accepted.size();
  r.delivered = rc.delivered_total();
  r.max_delivery_latency = max_latency;
  for (const auto& t : txns) {
    if (t->committed()) ++r.txns_committed;
    if (t->state() == core::TxnState::kRolledBack) ++r.txns_rolled_back;
    if (t->forced_drain()) ++r.forced_drains;
    out.drain_cycles += t->drain_cycles();
  }
  out.txns = txns.size();
  if (orch) {
    r.incidents = orch->incidents().size();
    r.evacuations = orch->stats().counter_value("evacuations");
    for (const auto& inc : orch->incidents()) {
      if (inc.outcome == health::IncidentOutcome::kRecovered)
        ++r.incidents_recovered;
      if (inc.outcome == health::IncidentOutcome::kDegradedStable)
        ++r.incidents_degraded_stable;
    }
    out.detector_polls = detector->stats().counter_value("polls");
  }
  out.delivery_hash = hash;

  {
    ScopedSpan span(rec, "arch.verify_invariants", opt.trace);
    const int repeats = timed ? kVerifyRepeats : 1;
    const std::int64_t t0 = timed ? now_ns() : 0;
    for (int i = 0; i < repeats; ++i) {
      verify::DiagnosticSink sink;
      arch.verify_invariants(sink);
    }
    if (timed) out.verify_ns = now_ns() - t0;
    out.verify_calls = repeats;
  }

  out.ff_cycles = kernel.fast_forwarded_cycles();
  out.ff_jumps = kernel.fast_forwards();
  out.components_end = kernel.component_count();
  out.arch_sent = arch.packets_sent();
  out.arch_dropped = arch.packets_dropped();
  out.data_sent = rc.stats().counter_value("data_sent");
  out.retransmissions = rc.stats().counter_value("retransmissions");
  out.icap_requests = mgr.icap().stats().counter_value("requests");
  out.icap_aborts = mgr.icap().stats().counter_value("aborted");
  if (timed) out.total_ns = now_ns() - probe_start;
  return out;
}

std::string outcome_difference(const fault::ChaosResult& probe,
                               const fault::ChaosResult& program) {
  const std::pair<const char*, std::pair<std::uint64_t, std::uint64_t>>
      fields[] = {
          {"delivered", {probe.delivered, program.delivered}},
          {"accepted", {probe.accepted, program.accepted}},
          {"txns_committed", {probe.txns_committed, program.txns_committed}},
          {"txns_rolled_back",
           {probe.txns_rolled_back, program.txns_rolled_back}},
          {"forced_drains", {probe.forced_drains, program.forced_drains}},
          {"end_cycle", {probe.end_cycle, program.end_cycle}},
          {"max_delivery_latency",
           {probe.max_delivery_latency, program.max_delivery_latency}},
          {"incidents", {probe.incidents, program.incidents}},
          {"incidents_recovered",
           {probe.incidents_recovered, program.incidents_recovered}},
          {"evacuations", {probe.evacuations, program.evacuations}},
      };
  for (const auto& [name, values] : fields)
    if (values.first != values.second)
      return std::string(name) + " " + std::to_string(values.first) +
             " (probe) != " + std::to_string(values.second) + " (program)";
  return "";
}

}  // namespace perfbench
