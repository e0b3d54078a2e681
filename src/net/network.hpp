#pragma once

#include <cassert>
#include <functional>
#include <set>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/name_table.hpp"
#include "des/parallel.hpp"
#include "des/simulator.hpp"
#include "net/fault.hpp"
#include "net/observer.hpp"
#include "net/packet.hpp"
#include "net/params.hpp"
#include "net/queue.hpp"
#include "net/topology.hpp"

namespace gcopss {

class Network;

// A protocol endpoint bound to one topology node. "Faces" are identified by
// the neighbour's NodeId (the paper's per-face IPC ports collapse to this in
// simulation). Each node owns a FIFO CPU: arriving packets queue for
// serviceTime() before handle() runs — this queueing is what produces the
// RP/server congestion the evaluation studies.
class Node {
 public:
  Node(NodeId id, Network& net);
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }

  // Invoked after the packet has completed CPU service at this node.
  // `fromFace` is the neighbour it arrived from (kInvalidNode for packets
  // originated locally, e.g. an application publish).
  virtual void handle(NodeId fromFace, const PacketPtr& pkt) = 0;

  // CPU cost of processing one packet at this node.
  virtual SimTime serviceTime(const PacketPtr& pkt) const = 0;

  // Fault-plan lifecycle hooks. onCrash() fires when a scheduled NodeFaultSpec
  // takes the node down (volatile state is gone); onRestart() when it comes
  // back (re-announce / resync). The bare setNodeFailed() blackhole does NOT
  // invoke these — it stays the low-level primitive.
  virtual void onCrash() {}
  virtual void onRestart() {}

  // Time until this node's CPU drains its current queue (0 = idle).
  SimTime cpuBacklog() const;

  // Worst serialization backlog over this node's outgoing face queues
  // (0 when link queues are disabled). The transmit-side twin of
  // cpuBacklog(): an RP whose uplink is saturated shows congestion here
  // even with an idle CPU, so the load balancer consumes the sum of both.
  SimTime faceQueueBacklog() const;

 protected:
  void send(NodeId toFace, PacketPtr pkt);
  // Send after an extra delay (e.g. a server pacing its unicast copies).
  void sendAfter(SimTime delay, NodeId toFace, PacketPtr pkt);
  // Occupy this node's CPU for `extra` beyond the current service — models
  // per-recipient work discovered only while handling a packet (the IP game
  // server's unicast fan-out cost).
  void extendCpuBusy(SimTime extra);
  // Inject a locally originated packet into this node's own CPU queue.
  void deliverLocal(PacketPtr pkt);
  Simulator& sim();
  const Simulator& sim() const;
  Network& network() { return *net_; }
  const SimParams& params() const;

 private:
  friend class Network;
  NodeId id_;
  Network* net_;
  // The simulator lane this node's events run on. Serial runs: the network's
  // Simulator. Parallel runs: the owning shard's Simulator (set by
  // Network::enableParallel) — all of this node's timers, CPU completions
  // and state live on that one lane, so handlers never need locks.
  Simulator* shardSim_;
  SimTime cpuFreeAt_ = 0;
  // Per-node transmit counter: the (srcNode, srcSeq) half of the parallel
  // engine's deterministic merge key. Independent of the shard mapping.
  std::uint64_t sendSeq_ = 0;
};

// Binds a Topology to a Simulator and a set of Nodes; moves packets across
// links (propagation + transmission delay) into the receiver's CPU queue and
// meters aggregate network load (bytes x link traversals).
class Network {
 public:
  Network(Simulator& sim, Topology& topo, SimParams params = {});

  void attach(std::unique_ptr<Node> node);
  template <typename T, typename... Args>
  T& emplaceNode(Args&&... args) {
    auto node = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *node;
    attach(std::move(node));
    return ref;
  }

  Node& node(NodeId id);
  bool hasNode(NodeId id) const;

  Simulator& sim() { return sim_; }
  Topology& topology() { return topo_; }
  // This world's name interner: routers key their FIBs by it, and Interests
  // and decoded packets look names up in it. Grow it only from sequential
  // context; a world that routes CDs during a parallel run interns them at
  // setup (ndn::Fib::insert refuses to grow it inside a round).
  NameTable& names() { return names_; }
  const SimParams& params() const { return params_; }
  SimParams& mutableParams() { return params_; }

  // Send `pkt` from node `from` to adjacent node `to`.
  void transmit(NodeId from, NodeId to, PacketPtr pkt);

  // Give every directed link a finite-bandwidth transmit queue guarded by
  // the configured discipline (see net/queue.hpp). Call after the topology
  // is final (all links added, hosts attached) and before any traffic;
  // replaces any previous queue set. Default-off: without this call the
  // legacy transmit path (fixed serialization delay, no occupancy) is
  // byte-for-byte unchanged.
  void enableLinkQueues(const LinkQueueConfig& cfg);
  bool linkQueuesEnabled() const { return !faceQueues_.empty(); }
  // The (from -> to) face queue; throws if queues are off or no such link.
  // Its stats() are as of `from`'s lane frontier; read them from sequential
  // context (or from `from`'s own lane).
  const FaceQueue& faceQueue(NodeId from, NodeId to) const;
  // Worst serialization backlog over `id`'s outgoing faces at `now`
  // (0 with queues off). Shard-safe from `id`'s own lane: a node's
  // outgoing queues are written only when that node transmits.
  SimTime maxFaceBacklog(NodeId id, SimTime now) const;
  // Roll-up over every face queue. Sequential context only.
  QueueAggregate queueAggregate() const;

  // Enqueue a packet into `at`'s CPU queue (used for local origination).
  void enqueueCpu(NodeId at, NodeId fromFace, PacketPtr pkt);

  // Failure injection: a failed node blackholes everything addressed to it
  // (its CPU never runs) until revived. Links stay up — neighbours keep
  // transmitting into the void, as with a crashed router.
  void setNodeFailed(NodeId id, bool failed);
  bool isFailed(NodeId id) const { return failed_.count(id) > 0; }

  // Install a seeded fault schedule: per-link loss/jitter/reorder applied to
  // every subsequent transmit, and node crash/restart events scheduled on the
  // simulator (crash = setNodeFailed + onCrash; restart = revive + onRestart).
  // Call once, before run(); replaces any previous plan.
  void applyFaultPlan(const FaultPlan& plan);
  // Zeroed stats when no plan is installed.
  const FaultStats& faultStats() const {
    static const FaultStats kEmpty{};
    return fault_ ? fault_->stats() : kEmpty;
  }

  // Passive packet tap (see net/observer.hpp). At most one at a time; the
  // caller keeps ownership and must clear it (or outlive the Network) before
  // the observer dies. Null = no tap, zero overhead beyond a pointer test.
  // Serial-only: observers see a single global event order that does not
  // exist under the parallel engine (asserted both ways).
  void setObserver(PacketObserver* obs) {
    assert(!(obs && par_) && "packet observers are serial-only");
    observer_ = obs;
  }
  PacketObserver* observer() const { return observer_; }

  // Switch this network onto the parallel engine. The connected components
  // of the links shorter than psim's lookahead are dealt round-robin to its
  // shards (Topology::shortLinkComponents), so no such link joins two
  // shards, and every node's lane becomes its shard's Simulator. A delivery
  // over a shorter link is scheduled straight on the sender's lane; every
  // other delivery routes through the engine's deterministic merge. Call
  // after the topology is final and nodes are attached, before scheduling
  // any traffic; psim's global lane must be this network's Simulator, and
  // psim must outlive every later use of the network (nodes and face queues
  // run on its shards). Requires: no observer, and any fault plan built
  // withIndependentStreams().
  void enableParallel(ParallelSimulator& psim);
  bool parallelEnabled() const { return par_ != nullptr; }
  ParallelSimulator* parallel() { return par_; }
  std::size_t shardOf(NodeId id) const {
    return par_ ? shardOf_[static_cast<std::size_t>(id)] : 0;
  }
  // The simulator lane `id`'s events run on (the network Simulator when
  // serial). Harnesses use it to pre-schedule per-node work onto the right
  // shard from sequential context.
  Simulator& nodeSim(NodeId id) { return *node(id).shardSim_; }

  // Aggregate load meters, summed over the per-context meters below; only
  // read them from sequential context.
  Bytes totalLinkBytes() const { return sumMeters().bytes; }
  std::uint64_t totalLinkPackets() const { return sumMeters().pkts; }
  std::uint64_t totalDrops() const { return sumMeters().drops; }
  // Face-queue refusals only (also counted in totalDrops()).
  std::uint64_t totalQueueDrops() const { return sumMeters().queueDrops; }
  void resetLoadMeter() {
    for (auto& m : meters_) m = LoadMeter{};
  }

 private:
  friend class Node;

  // Cache-line-sized load meter: each worker bumps only its own shard's slot
  // during a round, so the hot path stays contention- and race-free.
  struct alignas(64) LoadMeter {
    Bytes bytes = 0;
    std::uint64_t pkts = 0;
    std::uint64_t drops = 0;
    std::uint64_t queueDrops = 0;
  };
  LoadMeter sumMeters() const {
    LoadMeter t;
    for (const auto& m : meters_) {
      t.bytes += m.bytes;
      t.pkts += m.pkts;
      t.drops += m.drops;
      t.queueDrops += m.queueDrops;
    }
    return t;
  }
  // The meter of the calling context: its shard's inside a parallel round,
  // the sequential one otherwise.
  LoadMeter& meter();
  // Hands `pkt` to `to`'s CPU queue `after` from `now`.
  void deliver(Node& sender, NodeId to, const Topology::Link& link, SimTime now,
               SimTime after, PacketPtr pkt);
  FaceQueue& faceQueueRef(NodeId from, NodeId to);
  // The lane `id`'s events and outgoing face queues run on, attached or not:
  // its shard's Simulator when parallel, the network's Simulator otherwise.
  Simulator& laneOf(NodeId id);

  Simulator& sim_;
  Topology& topo_;
  SimParams params_;
  NameTable names_;
  std::vector<std::unique_ptr<Node>> nodes_;  // indexed by NodeId
  std::set<NodeId> failed_;
  std::unique_ptr<FaultInjector> fault_;
  PacketObserver* observer_ = nullptr;
  ParallelSimulator* par_ = nullptr;
  std::vector<std::size_t> shardOf_;  // NodeId -> shard (parallel only)
  // [0]: sequential context (serial runs, setup, global phases); [1 + s]:
  // shard s's parallel rounds.
  std::vector<LoadMeter> meters_;
  // Face queues, 2 per topology link, indexed 2*linkIdx + direction
  // (0 = link.a -> link.b). Built once by enableLinkQueues; each queue is
  // then mutated only by the lane owning its sending node, and its counters
  // are read from sequential context.
  GCOPSS_SHARD_CONFINED std::vector<FaceQueue> faceQueues_;
};

}  // namespace gcopss
