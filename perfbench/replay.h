// Layer replays for the traced benchmark run. Each replay drives one layer's
// public API (sim::EventQueue, sched::ShareTree, rc::ContainerManager) on a
// synthetic input shaped like what the traced scenario measured — its event
// queue depth and cancel ratio, its live container tree — and reports host
// nanoseconds per operation. Every replay runs for a host-time budget, so its
// cost is bounded whatever the shape.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "src/rc/attributes.h"
#include "src/rc/manager.h"
#include "src/sim/time.h"

namespace perfbench {

// One live container of a snapshot. Parents precede their children.
struct ShapeNode {
  int parent = -1;  // index into the snapshot; -1 = child of the root
  rc::Attributes attrs;
  int children = 0;
};

struct TreeShape {
  std::vector<ShapeNode> nodes;
  int leaves() const;
  // Children of a node; -1 = the root.
  int children(int parent) const;
  // The node with the most children (the listen class the servers hang
  // per-connection containers under); -1 = the root.
  int widest_parent() const;
};

// Copies the structure and attributes of every live non-root container.
TreeShape SnapshotShape(const rc::ContainerManager& manager);

// CPU share-tree parameters of the scenario's kernel.
struct ShareTreeParams {
  double decay_per_tick = 1.0;
  sim::Duration limit_window = 0;
};

struct ReplayResult {
  double ns_per_op = 0.0;
  std::uint64_t ops = 0;
};

// Schedule (+ Cancel at `cancel_frac` of all scheduled events) + RunNext on
// a queue held at `depth` live events. ns per dispatched event.
ReplayResult ReplayEventQueue(double depth, double cancel_frac, std::uint64_t seed,
                              double budget_s);

// Pop -> OnCharge -> Push cycles with one item backlogged on each of up to
// 16 leaves spread over the tree. ns per Pop.
ReplayResult ReplaySharePop(const TreeShape& shape, const ShareTreeParams& params,
                            std::uint64_t seed, double budget_s);

// OnCharge on random leaves with a Flush every 8 charges. ns per OnCharge,
// Flush amortized.
ReplayResult ReplayShareCharge(const TreeShape& shape, const ShareTreeParams& params,
                               std::uint64_t seed, double budget_s);

// ContainerTemplate create + destroy of the oldest under the widest parent,
// the live count held at the snapshot's. ns per create+destroy pair.
ReplayResult ReplayCreateDestroy(const TreeShape& shape, double budget_s);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
