#include "perfbench/replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <random>
#include <unordered_map>

#include "src/sched/share_tree.h"
#include "src/sim/event_queue.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Calls `batch` (which returns how many operations it did) until `budget_s`
// of host time has passed.
template <typename Batch>
ReplayResult Timed(double budget_s, Batch&& batch) {
  const Clock::time_point start = Clock::now();
  std::uint64_t ops = 0;
  double elapsed = 0.0;
  do {
    ops += batch();
    elapsed = Seconds(start, Clock::now());
  } while (elapsed < budget_s);
  return {ops > 0 ? elapsed * 1e9 / static_cast<double>(ops) : 0.0, ops};
}

// A private container manager holding a copy of a snapshot's tree.
struct Mirror {
  rc::ContainerManager manager;
  std::vector<rc::ContainerRef> refs;  // parallel to TreeShape::nodes

  explicit Mirror(const TreeShape& shape) {
    refs.reserve(shape.nodes.size());
    for (const ShapeNode& n : shape.nodes) {
      const rc::ContainerRef parent =
          n.parent < 0 ? nullptr : refs[static_cast<std::size_t>(n.parent)];
      auto r = manager.Create(parent, "mirror", n.attrs);
      if (!r.ok()) {
        std::fprintf(stderr, "perfbench: cannot mirror container tree: %s\n",
                     rccommon::ErrcName(r.error()));
        std::exit(1);
      }
      refs.push_back(std::move(r.value()));
    }
  }
};

sched::ShareTreeOptions CpuTree(const ShareTreeParams& params) {
  sched::ShareTreeOptions options;
  options.resource = rc::ResourceKind::kCpu;
  options.decay_per_tick = params.decay_per_tick;
  options.limit_window = params.limit_window;
  options.starve_priority_zero = true;
  return options;
}

std::vector<rc::ResourceContainer*> Leaves(const TreeShape& shape, const Mirror& mirror) {
  std::vector<rc::ResourceContainer*> out;
  for (std::size_t i = 0; i < shape.nodes.size(); ++i) {
    if (shape.nodes[i].children == 0) {
      out.push_back(mirror.refs[i].get());
    }
  }
  if (out.empty()) {
    out.push_back(mirror.manager.root().get());
  }
  return out;
}

}  // namespace

int TreeShape::leaves() const {
  int n = 0;
  for (const ShapeNode& node : nodes) {
    n += node.children == 0 ? 1 : 0;
  }
  return n;
}

int TreeShape::children(int parent) const {
  if (parent >= 0) {
    return nodes[static_cast<std::size_t>(parent)].children;
  }
  int n = 0;
  for (const ShapeNode& node : nodes) {
    n += node.parent < 0 ? 1 : 0;
  }
  return n;
}

int TreeShape::widest_parent() const {
  int best = -1;
  int best_children = children(-1);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].children > best_children) {
      best = static_cast<int>(i);
      best_children = nodes[i].children;
    }
  }
  return best;
}

TreeShape SnapshotShape(const rc::ContainerManager& manager) {
  std::vector<rc::ResourceContainer*> live;
  manager.ForEachLive([&](rc::ResourceContainer& c) {
    if (!c.is_root()) {
      live.push_back(&c);
    }
  });
  // Parents first; ties keep slot order, so the snapshot is deterministic.
  std::stable_sort(live.begin(), live.end(),
                   [](const rc::ResourceContainer* a, const rc::ResourceContainer* b) {
                     return a->depth() < b->depth();
                   });
  std::unordered_map<const rc::ResourceContainer*, int> index;
  TreeShape shape;
  shape.nodes.reserve(live.size());
  for (rc::ResourceContainer* c : live) {
    ShapeNode n;
    const auto it = index.find(c->parent());
    n.parent = it == index.end() ? -1 : it->second;
    n.attrs = c->attributes();
    if (n.parent >= 0) {
      ++shape.nodes[static_cast<std::size_t>(n.parent)].children;
    }
    index.emplace(c, static_cast<int>(shape.nodes.size()));
    shape.nodes.push_back(n);
  }
  return shape;
}

ReplayResult ReplayEventQueue(double depth, double cancel_frac, std::uint64_t seed,
                              double budget_s) {
  sim::EventQueue queue;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<sim::Duration> delay(1, 20000);
  const auto noop = [] {};
  sim::SimTime now = 0;
  const auto live = static_cast<std::size_t>(std::max(1.0, depth));
  std::vector<sim::EventHandle> recent(std::max<std::size_t>(live, 64));
  std::size_t next = 0;
  for (std::size_t i = 0; i < live; ++i) {
    recent[next++ % recent.size()] = queue.Schedule(now + delay(rng), noop);
  }
  // Cancels per dispatched event that make canceled / (dispatched +
  // canceled) equal `cancel_frac`.
  const double c = std::clamp(cancel_frac, 0.0, 0.8);
  const double cancels_per_dispatch = c / (1.0 - c);
  double credit = 0.0;
  return Timed(budget_s, [&] {
    constexpr int kBatch = 256;
    for (int i = 0; i < kBatch; ++i) {
      recent[next++ % recent.size()] = queue.Schedule(now + delay(rng), noop);
      credit += cancels_per_dispatch;
      while (credit >= 1.0) {
        credit -= 1.0;
        sim::EventHandle& victim = recent[rng() % recent.size()];
        if (victim.pending()) {
          victim.Cancel();
          victim = queue.Schedule(now + delay(rng), noop);
        }
      }
      now = queue.RunNext();
    }
    return static_cast<std::uint64_t>(kBatch);
  });
}

ReplayResult ReplaySharePop(const TreeShape& shape, const ShareTreeParams& params,
                            std::uint64_t seed, double budget_s) {
  Mirror mirror(shape);
  sched::ShareTree tree(&mirror.manager, CpuTree(params));
  const std::vector<rc::ResourceContainer*> leaves = Leaves(shape, mirror);
  // One backlogged item per chosen leaf, spread evenly over the leaves.
  const std::size_t runnable = std::min<std::size_t>(leaves.size(), 16);
  std::vector<rc::ResourceContainer*> items(runnable);
  std::mt19937_64 rng(seed);
  const std::size_t offset = rng() % leaves.size();
  for (std::size_t i = 0; i < runnable; ++i) {
    items[i] = leaves[(offset + i * leaves.size() / runnable) % leaves.size()];
    tree.Push(items[i], &items[i]);
  }
  sim::SimTime now = 0;
  sim::SimTime next_tick = sim::Msec(100);
  return Timed(budget_s, [&] {
    constexpr int kBatch = 64;
    std::uint64_t pops = 0;
    for (int i = 0; i < kBatch; ++i) {
      auto* item = static_cast<rc::ResourceContainer**>(tree.Pop(now));
      now += 100;
      if (now >= next_tick) {
        tree.Tick();
        next_tick += sim::Msec(100);
      }
      if (item == nullptr) {
        continue;  // every backlogged leaf throttled: let the window pass
      }
      ++pops;
      tree.OnCharge(**item, 100, now);
      tree.Push(*item, item);
    }
    return pops;
  });
}

ReplayResult ReplayShareCharge(const TreeShape& shape, const ShareTreeParams& params,
                               std::uint64_t seed, double budget_s) {
  Mirror mirror(shape);
  sched::ShareTree tree(&mirror.manager, CpuTree(params));
  const std::vector<rc::ResourceContainer*> leaves = Leaves(shape, mirror);
  std::mt19937_64 rng(seed);
  sim::SimTime now = 0;
  return Timed(budget_s, [&] {
    constexpr int kFlushes = 32;
    constexpr int kChargesPerFlush = 8;
    for (int f = 0; f < kFlushes; ++f) {
      for (int i = 0; i < kChargesPerFlush; ++i) {
        tree.OnCharge(*leaves[rng() % leaves.size()], 50, now);
        now += 50;
      }
      tree.Flush();
    }
    return static_cast<std::uint64_t>(kFlushes * kChargesPerFlush);
  });
}

ReplayResult ReplayCreateDestroy(const TreeShape& shape, double budget_s) {
  Mirror mirror(shape);
  const int p = shape.widest_parent();
  const rc::ContainerRef parent =
      p < 0 ? mirror.manager.root() : mirror.refs[static_cast<std::size_t>(p)];
  // The per-connection template: the attributes of a leaf already under the
  // widest parent, or defaults when it has none.
  rc::Attributes attrs;
  std::deque<rc::ContainerRef> window;
  for (std::size_t i = 0; i < shape.nodes.size(); ++i) {
    if (shape.nodes[i].parent == p && shape.nodes[i].children == 0) {
      if (window.empty()) {
        attrs = shape.nodes[i].attrs;
      }
      window.push_back(std::move(mirror.refs[i]));
    }
  }
  auto tmpl = mirror.manager.PrepareTemplate(p < 0 ? nullptr : parent, "conn", attrs);
  if (!tmpl.ok()) {
    std::fprintf(stderr, "perfbench: cannot prepare container template: %s\n",
                 rccommon::ErrcName(tmpl.error()));
    std::exit(1);
  }
  const std::size_t live = std::max<std::size_t>(window.size(), 1);
  return Timed(budget_s, [&] {
    constexpr int kBatch = 256;
    for (int i = 0; i < kBatch; ++i) {
      window.push_back(mirror.manager.CreateFromTemplate(*tmpl.value()).value());
      if (window.size() > live) {
        window.pop_front();
      }
    }
    return static_cast<std::uint64_t>(kBatch);
  });
}

}  // namespace perfbench
