// Self-tests of the campaign benchmark's own arithmetic and of the stack
// probe's fidelity. Run with: python3 perfbench/run.py --self-test

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/chaos.hpp"
#include "spans.hpp"
#include "stack_probe.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL %s\n", what.c_str());
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);  // unsorted input
  check(near(perfbench::percentile(v, 0.5), 5.5), "median of 1..10 is 5.5");
  check(near(perfbench::percentile(v, 0.9), 9.1), "p90 of 1..10 is 9.1");
  check(near(perfbench::percentile(v, 0.0), 1.0), "p0 is the minimum");
  check(near(perfbench::percentile(v, 1.0), 10.0), "p100 is the maximum");
  check(near(perfbench::median({7.0}), 7.0), "median of one sample");
  check(perfbench::percentile({}, 0.5) == 0.0, "empty sample reads 0");

  const perfbench::Distribution small = perfbench::distribution(v);
  check(small.count == 10 && !small.p90_resolved,
        "10 samples leave p90 unresolved");
  std::vector<double> big(100, 1.0);
  const perfbench::Distribution d = perfbench::distribution(big);
  check(d.count == 100 && d.p90_resolved,
        "100 samples put 10 beyond p90");
}

void test_span_self_time() {
  perfbench::SpanRecorder rec;
  const auto root = rec.open("probe.run", 7, 0);
  const auto a = rec.open("arch.build", 7, 10);
  rec.close(a, 40);
  const auto b = rec.open("sim.settle", 7, 50);
  rec.aggregate("fault.receive", 3, 25);
  rec.aggregate("fault.send", 0, 99);  // no calls: not recorded
  rec.close(b, 90);
  rec.close(root, 100);

  check(rec.spans().size() == 4, "aggregate with no calls is dropped");
  check(rec.spans()[3].parent == b && rec.spans()[3].trace == 7,
        "aggregate is a child of the innermost open span");
  const auto by_name = rec.self_ns_by_name();
  check(by_name.at("probe.run") == 100 - 30 - 40, "root self time");
  check(by_name.at("arch.build") == 30, "leaf self time");
  check(by_name.at("sim.settle") == 40 - 25, "self time minus aggregate child");
  check(by_name.at("fault.receive") == 25, "aggregate self time");
  const auto by_layer = rec.self_ns_by_layer();
  check(by_layer.at("probe") + by_layer.at("arch") + by_layer.at("sim") +
                by_layer.at("fault") ==
            100,
        "layer self times add up to the root span");

  bool threw = false;
  const auto outer = rec.open("probe.run", 8, 0);
  rec.open("sim.step", 8, 1);
  try {
    rec.close(outer, 2);
  } catch (const std::logic_error&) {
    threw = true;
  }
  check(threw, "closing a span out of order throws");
}

void test_probe_matches_program() {
  using recosim::fault::ChaosRunOptions;
  struct Mode {
    const char* name;
    int ops;
    recosim::sim::Cycle horizon;
    bool recovery;
  };
  const Mode modes[] = {{"chaos", 8, 30'000, false},
                        {"stream", 0, 200'000, false},
                        {"guarded", 8, 30'000, true}};
  for (const Mode& mode : modes) {
    for (auto arch : recosim::fault::kAllChaosArchs) {
      const auto s = recosim::fault::make_schedule(arch, 3, mode.ops, mode.horizon);
      ChaosRunOptions ro;
      ro.recovery = mode.recovery;
      const auto program = recosim::fault::run_schedule(s, ro);
      perfbench::ProbeOptions po;
      po.run = ro;
      po.timed = true;
      const auto probe = perfbench::probe_schedule(s, po);
      const std::string what = std::string(mode.name) + "/" +
                               recosim::fault::to_string(arch);
      const std::string diff =
          perfbench::outcome_difference(probe.result, program);
      check(diff.empty(), what + ": probe equals run_schedule " + diff);
      check(probe.steps == mode.horizon, what + ": one step per traffic cycle");

      perfbench::ProbeOptions ref;
      ref.run = ro;
      ref.run.activity_driven = false;
      ref.run.busy_path = false;
      const auto reference = perfbench::probe_schedule(s, ref);
      check(reference.delivery_hash == probe.delivery_hash,
            what + ": reference mode delivers in the same order");
    }
  }
}

}  // namespace

int main() {
  test_percentiles();
  test_span_self_time();
  test_probe_matches_program();
  std::printf("%s (%d failure(s))\n", failures ? "FAILED" : "ok", failures);
  return failures ? 1 : 0;
}
