// Scenario benchmark program: sets up one workload spec, runs it once, and
// prints one JSON object on the last line of stdout. perfbench/run.py starts
// one process per run and aggregates them.
//
//   scenario_bench --spec=FILE --seed=N [--mode=timed|digest|traced]
//                  [--warmup-s=S --measure-s=S] [--trace-out=FILE]
//
// timed   parse + validate + Compile kSetups times (setup_s), then Run()
//         once with audit, digest and telemetry off; reports host wall time
//         of Run() in total and per 100 ms simulated slice, peak RSS, the
//         RunResult metrics and the registry's counts.
// digest  the same with the timeline digest on (recording expected outputs,
//         invariance checks).
// traced  the digest run plus host-time spans around every call into xp,
//         one span per 100 ms simulated slice (from a simulator timer this
//         file owns) carrying the registry-counter deltas of the slice, and
//         the layer replays of replay.h at the shape the run measured. The
//         spans are written to --trace-out as JSON when the run ends.
//
// --seed reaches the simulation only through xp::SpecOverlay::seed. The
// phase overrides exist for short self-test runs.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/replay.h"
#include "src/rc/lifecycle.h"
#include "src/sim/simulator.h"
#include "src/telemetry/json.h"
#include "src/xp/runner.h"
#include "src/xp/spec.h"

namespace {

using Clock = std::chrono::steady_clock;

// Setups per process: setup_s is their median, so one slow setup (the first
// is always cold) does not decide it.
constexpr int kSetups = 50;
// Host-time budget of each layer replay.
constexpr double kReplaySeconds = 0.25;

struct Flags {
  std::string spec;
  std::string mode = "timed";
  std::uint64_t seed = 1;
  std::optional<double> warmup_s;
  std::optional<double> measure_s;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "scenario_bench: %s\n"
               "usage: scenario_bench --spec=FILE --seed=N "
               "[--mode=timed|digest|traced]\n"
               "       [--warmup-s=S --measure-s=S] [--trace-out=FILE]\n",
               why.c_str());
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Usage("bad argument " + arg);
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    if (key == "spec") {
      f.spec = val;
    } else if (key == "mode") {
      f.mode = val;
    } else if (key == "seed") {
      f.seed = std::stoull(val);
    } else if (key == "warmup-s") {
      f.warmup_s = std::stod(val);
    } else if (key == "measure-s") {
      f.measure_s = std::stod(val);
    } else if (key == "trace-out") {
      f.trace_out = val;
    } else {
      Usage("unknown flag --" + key);
    }
  }
  if (f.spec.empty()) {
    Usage("--spec is required");
  }
  if (f.mode != "timed" && f.mode != "digest" && f.mode != "traced") {
    Usage("unknown mode " + f.mode);
  }
  if (f.mode == "traced" && f.trace_out.empty()) {
    Usage("--mode=traced needs --trace-out");
  }
  return f;
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated percentile, p in [0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// Spans recorded in memory and written out once, when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
    std::vector<std::pair<std::string, double>> args;
  };

  int Begin(const std::string& name, int parent = -1) {
    spans_.push_back({name, parent, Now(), 0.0, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Opens a span that started at an earlier host time.
  int BeginAt(const std::string& name, int parent, Clock::time_point start) {
    spans_.push_back({name, parent, Seconds(origin_, start), 0.0, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<std::size_t>(id)].end_s = Now(); }
  void Arg(int id, const std::string& key, double value) {
    spans_[static_cast<std::size_t>(id)].args.emplace_back(key, value);
  }
  double Duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end_s - s.start_s;
  }

  bool Write(const std::string& path, const std::string& header) const;

 private:
  double Now() const { return Seconds(origin_, Clock::now()); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// Minimal JSON emitter for flat objects of numbers, strings and lists.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    Key(key);
    Value(v);
    return *this;
  }
  Json& Str(const std::string& key, const std::string& v) {
    Key(key);
    Quote(v);
    return *this;
  }
  Json& Bool(const std::string& key, bool v) {
    Key(key);
    out_ << (v ? "true" : "false");
    return *this;
  }
  Json& Nums(const std::string& key, const std::vector<double>& v) {
    Key(key);
    out_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      out_ << (i > 0 ? "," : "");
      Value(v[i]);
    }
    out_ << ']';
    return *this;
  }
  Json& Strs(const std::string& key, const std::vector<std::string>& v) {
    Key(key);
    out_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      out_ << (i > 0 ? "," : "");
      Quote(v[i]);
    }
    out_ << ']';
    return *this;
  }
  Json& Obj(const std::string& key, const Json& inner) {
    Key(key);
    out_ << inner.str();
    return *this;
  }
  std::string str() const {
    std::string s = "{";
    s += out_.str();
    s += '}';
    return s;
  }

 private:
  void Key(const std::string& key) {
    out_ << (first_ ? "" : ",");
    first_ = false;
    Quote(key);
    out_ << ':';
  }
  void Value(double v) {
    if (!std::isfinite(v)) {
      out_ << "null";
      return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ << buf;
  }
  void Quote(const std::string& s) { out_ << '"' << telemetry::EscapeJson(s) << '"'; }

  std::ostringstream out_;
  bool first_ = true;
};

bool Tracer::Write(const std::string& path, const std::string& header) const {
  std::ofstream out(path);
  out << "{\"run\":" << header << ",\"spans\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json args;
    for (const auto& [k, v] : s.args) {
      args.Num(k, v);
    }
    Json span;
    span.Num("id", static_cast<double>(i))
        .Str("name", s.name)
        .Num("parent", s.parent)
        .Num("start_s", s.start_s)
        .Num("end_s", s.end_s)
        .Obj("args", args);
    out << span.str() << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// Counts container destructions during Run(); with the live counts before
// and after, that gives the containers created.
class DestroyCounter : public rc::LifecycleListener {
 public:
  void OnContainerDestroyed(rc::ResourceContainer& /*c*/) override { ++destroyed; }
  std::uint64_t destroyed = 0;
};

// Deterministic counts the run leaves in the scenario's registry (and the
// per-server stats the registry only names for the first server).
struct Counts {
  double events_dispatched = 0;
  double events_canceled = 0;
  double packets_in = 0;
  double packets_out = 0;
  double accepts = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double containers_live = 0;
  double disk_requests = 0;
  double latency_samples = 0;
};

Counts ReadCounts(xp::Scenario& sc) {
  const telemetry::Registry& reg = sc.metrics();
  Counts c;
  c.events_dispatched = reg.Value("engine.events_dispatched");
  c.events_canceled = reg.Value("engine.events_canceled");
  c.packets_in = reg.Value("net.packets_in");
  c.packets_out = reg.Value("net.packets_out");
  c.cache_hits = reg.Value("httpd.cache.hits");
  c.cache_misses = reg.Value("httpd.cache.misses");
  c.containers_live = reg.Value("rc.containers.live");
  c.disk_requests = reg.Value("disk.requests");
  for (const auto& s : sc.servers()) {
    c.accepts += static_cast<double>(s->stats().connections_accepted);
  }
  for (const auto& p : sc.populations()) {
    sim::SampleSet kept;
    p->MergeLatencies(kept);
    c.latency_samples += static_cast<double>(kept.count());
  }
  return c;
}

Json CountsJson(const Counts& c) {
  Json j;
  j.Num("engine.events_dispatched", c.events_dispatched)
      .Num("engine.events_canceled", c.events_canceled)
      .Num("net.packets_in", c.packets_in)
      .Num("net.packets_out", c.packets_out)
      .Num("httpd.connections_accepted", c.accepts)
      .Num("httpd.cache.hits", c.cache_hits)
      .Num("httpd.cache.misses", c.cache_misses)
      .Num("rc.containers.live", c.containers_live)
      .Num("disk.requests", c.disk_requests)
      .Num("load.latency_samples", c.latency_samples);
  return j;
}

// The 100 ms simulated slices of the traced run: a self-rearming simulator
// timer that only reads state, so the digest and every RunResult metric are
// those of an untraced run. Each slice is a span carrying the registry-
// counter deltas of the slice.
class SliceTimer {
 public:
  static constexpr sim::Duration kSlice = sim::Msec(100);

  SliceTimer(xp::Scenario& sc, Tracer& tracer, int parent)
      : sc_(sc), tracer_(tracer), parent_(parent) {
    prev_ = Read();
    last_ = Clock::now();
    Arm();
  }
  // The armed simulator callback holds `this`.
  SliceTimer(const SliceTimer&) = delete;
  SliceTimer& operator=(const SliceTimer&) = delete;

  int fired() const { return fired_; }
  const std::vector<double>& ns_per_event() const { return ns_per_event_; }
  const std::vector<double>& live() const { return live_; }
  const std::vector<double>& depth() const { return depth_; }

 private:
  struct Reading {
    double dispatched, canceled, packets, completed, accepts;
  };

  Reading Read() const {
    const telemetry::Registry& reg = sc_.metrics();
    Reading r{reg.Value("engine.events_dispatched"), reg.Value("engine.events_canceled"),
              reg.Value("net.packets_in") + reg.Value("net.packets_out"),
              reg.Value("clients.completed"), 0.0};
    for (const auto& s : sc_.servers()) {
      r.accepts += static_cast<double>(s->stats().connections_accepted);
    }
    return r;
  }

  void Arm() {
    sc_.simulator().After(kSlice, [this] { Fire(); });
  }

  void Fire() {
    const Clock::time_point now = Clock::now();
    const Reading cur = Read();
    ++fired_;
    // This timer's own dispatch is not the workload's.
    const double events = cur.dispatched - prev_.dispatched - 1.0;
    const double live = sc_.metrics().Value("rc.containers.live");
    const double depth = sc_.metrics().Value("engine.queue_depth");
    const int span = tracer_.BeginAt("slice", parent_, last_);
    tracer_.End(span);
    tracer_.Arg(span, "sim_end_s", sim::ToSeconds(sc_.simulator().now()));
    tracer_.Arg(span, "events_dispatched", events);
    tracer_.Arg(span, "events_canceled", cur.canceled - prev_.canceled);
    tracer_.Arg(span, "packets", cur.packets - prev_.packets);
    tracer_.Arg(span, "accepts", cur.accepts - prev_.accepts);
    // Client statistics restart at the end of warm-up.
    tracer_.Arg(span, "requests_completed", cur.completed >= prev_.completed
                                                 ? cur.completed - prev_.completed
                                                 : cur.completed);
    tracer_.Arg(span, "containers_live", live);
    tracer_.Arg(span, "queue_depth", depth);
    if (events > 0) {
      ns_per_event_.push_back(Seconds(last_, now) * 1e9 / events);
    }
    live_.push_back(live);
    depth_.push_back(depth);
    prev_ = cur;
    last_ = Clock::now();  // the reads above are tracing cost, not the slice's
    Arm();
  }

  xp::Scenario& sc_;
  Tracer& tracer_;
  const int parent_;
  Clock::time_point last_;
  Reading prev_{};
  int fired_ = 0;
  std::vector<double> ns_per_event_;
  std::vector<double> live_;
  std::vector<double> depth_;
};

// The same 100 ms simulated slices in a timed run, reading nothing but the
// host clock. run.py sums, slice by slice, the fastest of a run's processes:
// the measuring host alternates between a fast and a ~2x slower speed every
// second or so, and no single process stays in the fast one throughout.
class SliceClock {
 public:
  SliceClock(sim::Simulator& sim, double sim_s) : sim_(sim) {
    ends_.reserve(static_cast<std::size_t>(sim_s / sim::ToSeconds(SliceTimer::kSlice)) + 2);
    Arm();
  }
  // The armed simulator callback holds `this`.
  SliceClock(const SliceClock&) = delete;
  SliceClock& operator=(const SliceClock&) = delete;

  int fired() const { return static_cast<int>(ends_.size()); }

  // Host seconds of each slice from `start` to `end`; the last one is the
  // partial slice ending with Run().
  std::vector<double> Durations(Clock::time_point start, Clock::time_point end) const {
    std::vector<double> d;
    for (const Clock::time_point t : ends_) {
      d.push_back(Seconds(start, t));
      start = t;
    }
    d.push_back(Seconds(start, end));
    return d;
  }

 private:
  void Arm() {
    sim_.After(SliceTimer::kSlice, [this] {
      ends_.push_back(Clock::now());
      Arm();
    });
  }

  sim::Simulator& sim_;
  std::vector<Clock::time_point> ends_;
};

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) {
    s += x;
  }
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  const bool traced = flags.mode == "traced";

  xp::SpecOverlay overlay;
  overlay.seed = flags.seed;
  overlay.telemetry = false;
  overlay.warmup_s = flags.warmup_s;
  overlay.measure_s = flags.measure_s;
  xp::CompileOptions copts;
  copts.digest = flags.mode != "timed";

  Tracer tracer;
  std::vector<double> setup_s;
  std::vector<double> parse_s;
  std::vector<double> compile_s;
  std::unique_ptr<xp::CompiledScenario> compiled;
  for (int k = 0; k < kSetups; ++k) {
    compiled.reset();
    const int setup = tracer.Begin("xp.setup");
    const int parse = tracer.Begin("xp.ParseSpecFile", setup);
    xp::SpecParseResult parsed = xp::ParseSpecFile(flags.spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.error.c_str());
      return 1;
    }
    const std::string overlay_error = xp::ApplyOverlay(parsed.spec, overlay);
    if (!overlay_error.empty()) {
      std::fprintf(stderr, "%s: %s\n", flags.spec.c_str(), overlay_error.c_str());
      return 1;
    }
    tracer.End(parse);
    const int compile = tracer.Begin("xp.Compile", setup);
    xp::CompileResult cr = xp::Compile(parsed.spec, copts);
    if (!cr.ok()) {
      std::fprintf(stderr, "%s: %s\n", flags.spec.c_str(), cr.error.c_str());
      return 1;
    }
    tracer.End(compile);
    tracer.End(setup);
    compiled = std::move(cr.compiled);
    setup_s.push_back(tracer.Duration(setup));
    parse_s.push_back(tracer.Duration(parse));
    compile_s.push_back(tracer.Duration(compile));
  }

  xp::Scenario& sc = compiled->scenario();
  const xp::PhaseSpec& phases = compiled->spec().phases;
  const double sim_s = phases.warmup_s + phases.measure_s;

  DestroyCounter destroys;
  const double live_before = sc.metrics().Value("rc.containers.live");
  const int run_span = tracer.Begin("xp.CompiledScenario::Run");
  std::optional<SliceTimer> slices;
  std::optional<SliceClock> slice_clock;
  if (traced) {
    sc.kernel().containers().AddLifecycleListener(&destroys);
    slices.emplace(sc, tracer, run_span);
  } else if (flags.mode == "timed") {
    slice_clock.emplace(sc.simulator(), sim_s);
  }
  const Clock::time_point run0 = Clock::now();
  const xp::RunResult rr = compiled->Run();
  const Clock::time_point run1 = Clock::now();
  tracer.End(run_span);
  const double run_wall_s = Seconds(run0, run1);

  Counts counts = ReadCounts(sc);
  perfbench::TreeShape shape;
  perfbench::ShareTreeParams tree_params;
  if (traced) {
    sc.kernel().containers().RemoveLifecycleListener(&destroys);
    // The slice timer's own dispatches are not the workload's.
    counts.events_dispatched -= slices->fired();
    shape = perfbench::SnapshotShape(sc.kernel().containers());
    tree_params.decay_per_tick = sc.kernel().costs().decay_per_tick;
    tree_params.limit_window = sc.kernel().costs().limit_window;
  }
  std::vector<double> slice_wall_s;
  if (slice_clock) {
    counts.events_dispatched -= slice_clock->fired();
    slice_wall_s = slice_clock->Durations(run0, run1);
  }
  const double peak_rss_mb = PeakRssMiB();

  const int teardown = tracer.Begin("xp.~CompiledScenario");
  compiled.reset();
  tracer.End(teardown);

  Json metrics;
  for (const auto& [name, value] : rr.metrics) {
    metrics.Num(name, value);
  }
  std::vector<std::string> failed_assertions;
  for (const xp::AssertionResult& a : rr.assertions) {
    if (!a.passed) {
      failed_assertions.push_back(a.detail);
    }
  }

  Json out;
  out.Str("mode", flags.mode)
      .Num("seed", static_cast<double>(flags.seed))
      .Num("sim_s", sim_s)
      .Nums("setup_s", setup_s)
      .Num("run_wall_s", run_wall_s)
      .Nums("slice_wall_s", slice_wall_s)
      .Num("teardown_s", tracer.Duration(teardown))
      .Num("peak_rss_mb", peak_rss_mb)
      .Bool("assertions_ok", rr.ok)
      .Strs("failed_assertions", failed_assertions)
      .Str("digest", rr.digest_hex)
      .Obj("metrics", metrics)
      .Obj("counts", CountsJson(counts));

  if (traced) {
    const std::uint64_t seed = flags.seed;
    Json layers;
    layers.Num("xp.parse_s", Median(parse_s))
        .Num("xp.compile_s", Median(compile_s))
        .Num("xp.teardown_s", tracer.Duration(teardown))
        .Num("slices", slices->fired())
        .Num("sim.host_ns_per_event.p50", Percentile(slices->ns_per_event(), 50))
        .Num("sim.host_ns_per_event.p90", Percentile(slices->ns_per_event(), 90))
        .Num("sched.live_containers.mean", Mean(slices->live()))
        .Num("sched.live_containers.max",
             slices->live().empty()
                 ? 0.0
                 : *std::max_element(slices->live().begin(), slices->live().end()))
        .Num("sim.queue_depth.mean", Mean(slices->depth()))
        .Num("rc.destroyed", static_cast<double>(destroys.destroyed))
        .Num("rc.created", static_cast<double>(destroys.destroyed) +
                               counts.containers_live - live_before)
        .Num("shape.containers", static_cast<double>(shape.nodes.size()))
        .Num("shape.leaves", shape.leaves())
        .Num("shape.widest_children", shape.children(shape.widest_parent()));

    const double dispatched = counts.events_dispatched;
    const double canceled = counts.events_canceled;
    const double cancel_frac =
        dispatched + canceled > 0 ? canceled / (dispatched + canceled) : 0.0;
    const int replays = tracer.Begin("replays");
    auto replay = [&](const char* name, auto&& fn) {
      const int span = tracer.Begin(name, replays);
      const perfbench::ReplayResult r = fn();
      tracer.End(span);
      tracer.Arg(span, "ops", static_cast<double>(r.ops));
      tracer.Arg(span, "ns_per_op", r.ns_per_op);
      return r.ns_per_op;
    };
    layers.Num("sim.queue_op_ns", replay("sim.EventQueue", [&] {
      return perfbench::ReplayEventQueue(Mean(slices->depth()), cancel_frac, seed,
                                         kReplaySeconds);
    }));
    layers.Num("sched.pop_ns", replay("sched.ShareTree::Pop", [&] {
      return perfbench::ReplaySharePop(shape, tree_params, seed, kReplaySeconds);
    }));
    layers.Num("sched.charge_ns", replay("sched.ShareTree::OnCharge+Flush", [&] {
      return perfbench::ReplayShareCharge(shape, tree_params, seed, kReplaySeconds);
    }));
    layers.Num("rc.create_destroy_ns", replay("rc.ContainerTemplate", [&] {
      return perfbench::ReplayCreateDestroy(shape, kReplaySeconds);
    }));
    tracer.End(replays);
    out.Obj("layers", layers);

    Json header;
    header.Str("spec", flags.spec).Num("seed", static_cast<double>(seed));
    if (!tracer.Write(flags.trace_out, header.str())) {
      std::fprintf(stderr, "scenario_bench: cannot write %s\n", flags.trace_out.c_str());
      return 1;
    }
  }

  std::printf("%s\n", out.str().c_str());
  return 0;
}
