#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace gcopss {

Node::Node(NodeId id, Network& net)
    : id_(id), net_(&net), shardSim_(&net.sim()) {}

SimTime Node::cpuBacklog() const {
  const SimTime now = shardSim_->now();
  return cpuFreeAt_ > now ? cpuFreeAt_ - now : 0;
}

SimTime Node::faceQueueBacklog() const {
  return net_->maxFaceBacklog(id_, shardSim_->now());
}

void Node::send(NodeId toFace, PacketPtr pkt) { net_->transmit(id_, toFace, std::move(pkt)); }

void Node::sendAfter(SimTime delay, NodeId toFace, PacketPtr pkt) {
  // Scheduled on this node's own lane: the timer stays shard-local and the
  // transmit it fires takes the normal cross-shard path.
  shardSim_->schedule(delay, [this, toFace, p = std::move(pkt)]() mutable {
    net_->transmit(id_, toFace, std::move(p));
  });
}

void Node::extendCpuBusy(SimTime extra) {
  const SimTime now = shardSim_->now();
  cpuFreeAt_ = (cpuFreeAt_ > now ? cpuFreeAt_ : now) + extra;
}

void Node::deliverLocal(PacketPtr pkt) {
  net_->enqueueCpu(id_, kInvalidNode, std::move(pkt));
}

Simulator& Node::sim() { return *shardSim_; }
const Simulator& Node::sim() const { return *shardSim_; }
const SimParams& Node::params() const { return net_->params_; }

Network::Network(Simulator& sim, Topology& topo, SimParams params)
    : sim_(sim), topo_(topo), params_(params), meters_(1) {}

void Network::attach(std::unique_ptr<Node> node) {
  const auto idx = static_cast<std::size_t>(node->id());
  assert(idx < topo_.nodeCount() && "node id must come from the topology");
  if (nodes_.size() <= idx) nodes_.resize(idx + 1);
  assert(!nodes_[idx] && "node id already attached");
  node->shardSim_ = &laneOf(node->id());
  nodes_[idx] = std::move(node);
}

Simulator& Network::laneOf(NodeId id) {
  return par_ ? par_->shard(shardOf_[static_cast<std::size_t>(id)]) : sim_;
}

Node& Network::node(NodeId id) {
  const auto idx = static_cast<std::size_t>(id);
  if (idx >= nodes_.size() || !nodes_[idx]) throw std::out_of_range("no node attached");
  return *nodes_[idx];
}

bool Network::hasNode(NodeId id) const {
  const auto idx = static_cast<std::size_t>(id);
  return idx < nodes_.size() && nodes_[idx] != nullptr;
}

Network::LoadMeter& Network::meter() {
  // Serial runs test par_ first and never read the thread-local.
  if (par_) {
    const std::size_t sh = ParallelSimulator::currentShard();
    if (sh != ParallelSimulator::kNoShard) return meters_[1 + sh];
  }
  return meters_[0];
}

void Network::transmit(NodeId from, NodeId to, PacketPtr pkt) {
  const std::size_t li = topo_.linkIndexBetween(from, to);
  const Topology::Link& link = topo_.links()[li];
  LoadMeter& m = meter();
  m.bytes += pkt->size;
  ++m.pkts;
  // `now` on the sender's lane: identical to sim_.now() when serial, and in
  // a parallel round the executing shard's clock (during a global phase all
  // lanes agree — ParallelSimulator lines them up first).
  Node& sender = node(from);
  const SimTime now = sender.shardSim_->now();
  if (observer_) observer_->onWireSend(from, to, pkt, now);
  // One fault draw per transmit, queued or not (the RNG-lane streams stay
  // aligned across both); loss is modelled at the egress port, before the
  // packet takes queue space.
  SimTime extraDelay = 0;
  if (fault_) {
    const auto verdict = fault_->onTransmit(from, to, now);
    if (verdict.drop) {
      ++m.drops;
      if (observer_) observer_->onDrop(to, pkt, DropReason::WireFault, now);
      return;  // lost on the wire (random loss or down window)
    }
    extraDelay = verdict.extraDelay;  // jitter / reorder hold
  }
  // Time until the last bit leaves: the fixed serialization delay without
  // face queues, the queue's serialization completion with them.
  SimTime wire = 0;
  if (faceQueues_.empty()) {
    wire = static_cast<SimTime>(static_cast<double>(pkt->size) * 8.0 /
                                link.bandwidthBps * kSecond);
  } else {
    assert(2 * li + 1 < faceQueues_.size() &&
           "link added after enableLinkQueues — call it once the topology is final");
    // The queue lives on the sender's lane, so it admits at `now`.
    const auto adm = faceQueues_[2 * li + (from == link.a ? 0 : 1)].admit(pkt->size);
    if (!adm.admitted) {
      // A queue refusal is a drop with its own reason counter.
      ++m.drops;
      ++m.queueDrops;
      if (observer_) observer_->onDrop(to, pkt, DropReason::QueueDrop, now);
      return;
    }
    // txDone >= now, so a posted arrival still lands at least one lookahead
    // after the send.
    wire = adm.txDone - now;
  }
  // The receiver sees the packet one propagation delay after the last bit.
  deliver(sender, to, link, now, wire + link.delay + extraDelay, std::move(pkt));
}

void Network::deliver(Node& sender, NodeId to, const Topology::Link& link, SimTime now,
                      SimTime after, PacketPtr pkt) {
  const NodeId from = sender.id_;
  if (par_ && link.delay >= par_->lookahead()) {
    // Deliveries over links no shorter than the lookahead funnel through the
    // engine's merge — whether or not the endpoints share a shard — with a
    // key that ignores the shard mapping, so per-node event order is
    // identical at any thread count. (Capture fits InlineHandler's inline
    // storage: 24 bytes.)
    const ParallelSimulator::RemoteKey key{
        now, static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)),
        sender.sendSeq_++};
    par_->post(shardOf_[static_cast<std::size_t>(to)], now + after, key,
               [this, to, from, p = std::move(pkt)]() mutable {
                 enqueueCpu(to, from, std::move(p));
               });
    return;
  }
  // Serial runs, and shorter links: enableParallel never cuts those, so
  // the sender's lane is the receiver's too.
  sender.shardSim_->schedule(after, [this, to, from, p = std::move(pkt)]() mutable {
    enqueueCpu(to, from, std::move(p));
  });
}

void Network::enableLinkQueues(const LinkQueueConfig& cfg) {
  assert(cfg.enabled && "pass an enabled LinkQueueConfig (or never call)");
  faceQueues_.clear();
  faceQueues_.reserve(topo_.links().size() * 2);
  for (const Topology::Link& l : topo_.links()) {
    faceQueues_.emplace_back(l.a, l.b, l.bandwidthBps, cfg.capBytes, cfg.capPackets,
                             laneOf(l.a));
    faceQueues_.emplace_back(l.b, l.a, l.bandwidthBps, cfg.capBytes, cfg.capPackets,
                             laneOf(l.b));
  }
}

FaceQueue& Network::faceQueueRef(NodeId from, NodeId to) {
  const std::size_t li = topo_.linkIndexBetween(from, to);
  const Topology::Link& link = topo_.links()[li];
  return faceQueues_.at(2 * li + (from == link.a ? 0 : 1));
}

const FaceQueue& Network::faceQueue(NodeId from, NodeId to) const {
  return const_cast<Network*>(this)->faceQueueRef(from, to);
}

SimTime Network::maxFaceBacklog(NodeId id, SimTime now) const {
  if (faceQueues_.empty()) return 0;
  SimTime worst = 0;
  for (const auto& [nb, li] : topo_.adjacentLinks(id)) {
    const Topology::Link& link = topo_.links()[li];
    const FaceQueue& q = faceQueues_[2 * li + (id == link.a ? 0 : 1)];
    const SimTime b = q.backlog(now);
    if (b > worst) worst = b;
  }
  return worst;
}

QueueAggregate Network::queueAggregate() const {
  QueueAggregate agg;
  for (const FaceQueue& q : faceQueues_) {
    const FaceQueueStats& s = q.stats();
    agg.enqueued += s.enqueued;
    agg.departed += s.departed;
    agg.dropped += s.dropped;
    if (s.peakBytesQueued > agg.peakBytesQueued) agg.peakBytesQueued = s.peakBytesQueued;
    if (s.peakPacketsQueued > agg.peakPacketsQueued) {
      agg.peakPacketsQueued = s.peakPacketsQueued;
    }
    if (s.maxSojourn > agg.maxSojourn) agg.maxSojourn = s.maxSojourn;
    agg.sojournSum += s.sojournSum;
  }
  return agg;
}

void Network::enableParallel(ParallelSimulator& psim) {
  assert(&psim.globalLane() == &sim_ &&
         "psim's global lane must be this network's Simulator");
  assert(!observer_ && "packet observers are serial-only");
  assert((!fault_ || fault_->plan().links.empty() ||
          fault_->plan().independentStreams) &&
         "parallel fault plans need FaultPlan::withIndependentStreams()");
  par_ = &psim;
  // Deal whole short-link components round-robin, in ascending order of
  // their smallest node id (uniform-delay graphs: every node alone, i % k).
  const std::size_t k = psim.workerCount();
  shardOf_ = topo_.shortLinkComponents(psim.lookahead());
  for (std::size_t& shard : shardOf_) shard %= k;
  assert(std::all_of(topo_.links().begin(), topo_.links().end(),
                     [&](const Topology::Link& l) {
                       return l.delay >= psim.lookahead() ||
                              shardOf(l.a) == shardOf(l.b);
                     }) &&
         "no link shorter than the lookahead may join two shards");
  meters_.resize(1 + k);
  for (auto& n : nodes_) {
    if (n) n->shardSim_ = &laneOf(n->id());
  }
  for (FaceQueue& q : faceQueues_) q.setLane(laneOf(q.from()));
}

void Network::applyFaultPlan(const FaultPlan& plan) {
  fault_ = std::make_unique<FaultInjector>(plan);
  if (plan.independentStreams) {
    // Build every directed link's RNG lane up front: at run time a lane is
    // touched only by the shard owning the sending endpoint, and the lane
    // map itself is never mutated again.
    std::vector<std::pair<NodeId, NodeId>> directed;
    directed.reserve(topo_.links().size() * 2);
    for (const Topology::Link& l : topo_.links()) {
      directed.emplace_back(l.a, l.b);
      directed.emplace_back(l.b, l.a);
    }
    fault_->prepareLanes(directed);
  }
  for (const NodeFaultSpec& nf : fault_->plan().nodes) {
    sim_.scheduleAt(nf.crashAt, [this, id = nf.node]() {
      setNodeFailed(id, true);
      ++fault_->stats().crashes;
      if (hasNode(id)) node(id).onCrash();
    });
    if (nf.restartAt >= 0) {
      sim_.scheduleAt(nf.restartAt, [this, id = nf.node]() {
        setNodeFailed(id, false);
        ++fault_->stats().restarts;
        if (hasNode(id)) node(id).onRestart();
      });
    }
  }
}

void Network::setNodeFailed(NodeId id, bool failed) {
  if (failed) {
    failed_.insert(id);
  } else {
    failed_.erase(id);
  }
}

void Network::enqueueCpu(NodeId at, NodeId fromFace, PacketPtr pkt) {
  // Runs on `at`'s own lane in parallel mode (the transmit merge routed it
  // there), so the node's CPU state needs no synchronization. failed_ is
  // written only from sequential phases, so the read below is safe too.
  Node& n = node(at);
  Simulator& lsim = *n.shardSim_;
  if (observer_) observer_->onCpuEnqueue(at, fromFace, pkt, lsim.now());
  if (!failed_.empty() && failed_.count(at)) {
    ++meter().drops;
    if (observer_) observer_->onDrop(at, pkt, DropReason::NodeFailed, lsim.now());
    return;  // crashed node: blackhole
  }
  const SimTime now = lsim.now();
  if (params_.dropBacklog > 0 && n.cpuBacklog() > params_.dropBacklog) {
    ++meter().drops;
    if (observer_) observer_->onDrop(at, pkt, DropReason::BufferFull, lsim.now());
    return;  // finite buffer overflow: packet lost
  }
  const SimTime start = n.cpuFreeAt_ > now ? n.cpuFreeAt_ : now;
  const SimTime done = start + n.serviceTime(pkt);
  n.cpuFreeAt_ = done;
  lsim.scheduleAt(done, [this, at, fromFace, p = std::move(pkt)]() mutable {
    if (!failed_.empty() && failed_.count(at)) {
      ++meter().drops;
      if (observer_) {
        observer_->onDrop(at, p, DropReason::CrashedQueued, node(at).shardSim_->now());
      }
      return;  // accepted pre-crash, but the CPU died with it still queued
    }
    if (observer_) observer_->onHandle(at, fromFace, p, node(at).shardSim_->now());
    node(at).handle(fromFace, p);
  });
}

}  // namespace gcopss
