#include "cgra/simulator.hh"

#include <algorithm>

#include "cgra/pooled_run.hh"
#include "support/logging.hh"
#include "support/value_hash.hh"

namespace nachos {

const char *
backendName(BackendKind k)
{
    switch (k) {
      case BackendKind::OptLsq: return "OPT-LSQ";
      case BackendKind::NachosSw: return "NACHOS-SW";
      case BackendKind::Nachos: return "NACHOS";
    }
    return "?";
}

void
OrderingBackend::onOrderToken(OpId op, uint64_t cycle)
{
    (void)cycle;
    NACHOS_PANIC("backend received an ORDER token for op ", op,
                 " but does not override onOrderToken");
}

void
OrderingBackend::onForwardValue(OpId op, uint64_t cycle, int64_t value)
{
    (void)cycle;
    (void)value;
    NACHOS_PANIC("backend received a FORWARD value for op ", op,
                 " but does not override onForwardValue");
}

SimCore::SimCore(const SimPlan &plan, OrderingBackend &backend,
                 const SimConfig &cfg, PooledRun &run)
    : plan_(plan), tables_(plan.tables()), region_(plan.region()),
      backend_(backend), cfg_(cfg), stats_(run.stats),
      hierarchy_(run.hierarchy), energyModel_(cfg.energy),
      events_(run.core.events), waveBuf_(run.core.wave),
      states_(run.core.states), inputArena_(run.core.inputArena),
      staticValues_(run.core.staticValues),
      trace_(!cfg.traceFile.empty())
{
    NACHOS_ASSERT(region_.finalized(), "simulate a finalized region");
    NACHOS_ASSERT(plan.network().config() == cfg.net,
                  "firing plan built for a different operand network");
    NACHOS_ASSERT(hierarchy_.config() == cfg.mem,
                  "pooled hierarchy configured for another run");
    backend_.attach(*this);
    events_.reset();
    waveBuf_.clear();
    states_.assign(region_.numOps(), OpState{});
    inputArena_.assign(tables_.arenaSize(), 0);
    staticValues_.assign(tables_.staticProgram.size(), 0);
    if (cfg_.recordMemTrace)
        memCommits_.reserve(region_.memOps().size() * cfg_.invocations);

    using C = SimCounter;
    netTransfers_ = &stats_.counter(C::NetTransfers);
    netHops_ = &stats_.counter(C::NetHops);
    mdeMust_ = &stats_.counter(C::MdeOrderTokens);
    mdeForwards_ = &stats_.counter(C::MdeForwards);
    intOps_ = &stats_.counter(C::FuIntOps);
    fpOps_ = &stats_.counter(C::FuFpOps);
}

void
SimCore::scheduleOrderToken(uint64_t cycle, OpId to)
{
    events_.schedule(cycle, SimEvent{0, to, EvKind::OrderToken});
}

void
SimCore::scheduleForwardValue(uint64_t cycle, OpId to, int64_t value)
{
    events_.schedule(cycle,
                     SimEvent{value, to, EvKind::ForwardValue});
}

uint64_t
SimCore::netLatency(OpId from, OpId to) const
{
    return plan_.network().latency(from, to);
}

int64_t
SimCore::storeData(OpId op) const
{
    const Operation &o = region_.op(op);
    NACHOS_ASSERT(o.isStore(), "storeData on non-store");
    NACHOS_ASSERT(states_[op].pendingAllInputs == 0,
                  "store data not ready");
    return inputs(op)[0];
}

void
SimCore::mlpChange(int delta, uint64_t cycle)
{
    NACHOS_ASSERT(cycle >= mlpLastChange_, "MLP clock went backwards");
    const uint64_t span = cycle - mlpLastChange_;
    mlpArea_ += outstanding_ * span;
    if (outstanding_ > 0)
        mlpBusyCycles_ += span;
    mlpLastChange_ = cycle;
    if (delta > 0)
        outstanding_ += static_cast<uint64_t>(delta);
    else
        outstanding_ -= static_cast<uint64_t>(-delta);
    maxOutstanding_ = std::max(maxOutstanding_, outstanding_);
}

void
SimCore::performMemAccess(OpId op, uint64_t cycle)
{
    // Functional ordering correctness requires the access to happen
    // while the event clock is at `cycle`; defer if called early.
    if (cycle > now_) {
        events_.schedule(cycle, SimEvent{0, op, EvKind::MemPerform});
        return;
    }
    NACHOS_ASSERT(cycle == now_, "performMemAccess in the past: op ",
                  op, " cycle ", cycle, " now ", now_);
    OpState &st = states_[op];
    NACHOS_ASSERT(!st.performed, "op ", op, " performed twice");
    st.performed = true;
    const Operation &o = region_.op(op);
    NACHOS_ASSERT(o.isMem(), "performMemAccess on non-memory op");

    // Functional data motion happens at the perform cycle; events are
    // processed in cycle order, so conflicting accesses ordered by the
    // backend see each other's effects.
    int64_t value = 0;
    const uint32_t size = o.mem->accessSize;
    if (o.isStore()) {
        hierarchy_.data().write(st.addr, size, storeData(op));
    } else {
        value = hierarchy_.data().read(st.addr, size);
        loadValueDigest_ += loadDigestTerm(op, invocation_, value);
    }
    if (cfg_.recordMemTrace) {
        memCommits_.push_back({op,
                               static_cast<uint32_t>(invocation_),
                               cycle, st.addr, false});
    }

    const uint64_t done =
        hierarchy_.timedAccess(st.addr, o.isStore(), cycle);
    if (trace_.enabled()) {
        trace_.record({std::string(opKindName(o.kind)) + "#" +
                           std::to_string(op),
                       "memory", cycle, done - cycle,
                       plan_.placement().coordOf(op).row});
    }
    mlpChange(+1, cycle);
    events_.schedule(done, SimEvent{value, op, EvKind::MemDone});
}

void
SimCore::completeLoadForwarded(OpId op, uint64_t cycle, int64_t value)
{
    if (cycle > now_) {
        events_.schedule(cycle,
                         SimEvent{value, op, EvKind::LoadForward});
        return;
    }
    NACHOS_ASSERT(cycle == now_, "completeLoadForwarded in the past: ",
                  "op ", op, " cycle ", cycle, " now ", now_);
    OpState &st = states_[op];
    NACHOS_ASSERT(!st.performed, "op ", op, " performed twice");
    st.performed = true;
    NACHOS_ASSERT(region_.op(op).isLoad(), "only loads forward");
    // Every forwarding path (FORWARD MDE, LSQ CAM, MAY-station runtime
    // forward) requires an exact address+size match, so the forwarded
    // value must equal what a store-then-load memory round trip would
    // yield: the store's low accessSize bytes, zero-extended.
    const uint32_t size = region_.op(op).mem->accessSize;
    if (size < 8) {
        value = static_cast<int64_t>(
            static_cast<uint64_t>(value) &
            ((uint64_t{1} << (8 * size)) - 1));
    }
    loadValueDigest_ += loadDigestTerm(op, invocation_, value);
    if (cfg_.recordMemTrace) {
        memCommits_.push_back({op,
                               static_cast<uint32_t>(invocation_),
                               cycle, st.addr, true});
    }
    if (trace_.enabled()) {
        trace_.record({"forward#" + std::to_string(op), "forward",
                       cycle, 1, plan_.placement().coordOf(op).row});
    }
    completeOp(op, cycle, value);
}

void
SimCore::noteAddrReady(OpId op, uint64_t cycle)
{
    OpState &st = states_[op];
    NACHOS_ASSERT(!st.addrNotified, "double addr-ready");
    st.addrNotified = true;
    // One cycle of address generation in the FU.
    st.addrReadyCycle = cycle + 1;
    st.addr = region_.evalAddr(op, invocation_);
    const Operation &o = region_.op(op);
    if (o.mem->disambiguated()) {
        backend_.memAddrReady(op, st.addr, o.mem->accessSize,
                              st.addrReadyCycle);
    }
}

void
SimCore::opInputsComplete(OpId op, uint64_t cycle)
{
    const Operation &o = region_.op(op);
    NACHOS_ASSERT(o.isMem(), "InputsReady for pure op ", op);
    OpState &st = states_[op];
    const uint64_t ready = std::max(cycle, st.addrReadyCycle);
    if (!o.mem->scratchpad) {
        backend_.memFullyReady(op, ready);
        return;
    }
    // Local accesses bypass disambiguation entirely.
    int64_t value = 0;
    if (o.isStore())
        hierarchy_.data().write(st.addr, o.mem->accessSize, inputs(op)[0]);
    else
        value = hierarchy_.data().read(st.addr, o.mem->accessSize);
    const uint64_t done =
        hierarchy_.scratchpadAccess(st.addr, o.isStore(), ready);
    events_.schedule(done, SimEvent{value, op, EvKind::CompleteOp});
}

namespace {

/** Value of a pure op other than Const and LiveIn, from its `n`
 * operand values. */
int64_t
evalPure(OpKind kind, uint32_t n, const int64_t *in)
{
    switch (kind) {
      case OpKind::LiveOut:
        return in[0];
      case OpKind::Select:
        return n == 3 ? (in[0] ? in[1] : in[2]) : in[0];
      default:
        return evalCompute(kind, in[0], in[1]);
    }
}

} // namespace

/** Trace a pure op's FU occupancy; zero-latency ops take no slice. */
void
SimCore::traceCompute(OpKind kind, OpId op, uint64_t cycle,
                      uint32_t latency)
{
    if (latency == 0)
        return;
    trace_.record({std::string(opKindName(kind)) + "#" +
                       std::to_string(op),
                   "compute", cycle, latency,
                   plan_.placement().coordOf(op).row});
}

/**
 * Fire a pure op at `cycle` (the max arrival cycle of its operands):
 * no event round-trip — the op evaluates now and completes
 * arithmetically at cycle + FU latency, cascading into its users.
 */
void
SimCore::fireOp(OpId op, uint64_t cycle)
{
    const SimTables::OpInfo &info = tables_.opInfo[op];
    countFuExecution(info.kind, *intOps_, *fpOps_);
    if (trace_.enabled())
        traceCompute(info.kind, op, cycle, info.fuLatency);
    completeAt(op, cycle + info.fuLatency,
               evalPure(info.kind, numInputs(op), inputs(op)));
}

/**
 * Complete `op` at `cycle` (>= now; pure cascades complete in the
 * future) and deliver its value. Critical-op rule is the argmax of
 * (completion cycle, op id) — order-free, so it cannot depend on
 * whether completions were processed in event order (memory ops) or
 * cascade order (pure ops).
 */
void
SimCore::completeAt(OpId op, uint64_t cycle, int64_t value)
{
    OpState &st = states_[op];
    NACHOS_ASSERT(!st.completed, "op ", op, " completed twice");
    st.completed = true;
    if (!criticalSeen_ || cycle > invocationEnd_) {
        criticalOp_ = op;
        criticalSeen_ = true;
    } else if (cycle == invocationEnd_ && op > criticalOp_) {
        criticalOp_ = op;
    }
    invocationEnd_ = std::max(invocationEnd_, cycle);
    NACHOS_ASSERT(opsRemaining_ > 0, "completion underflow");
    --opsRemaining_;
    deliverToUsers(op, cycle, value);
}

void
SimCore::completeOp(OpId op, uint64_t cycle, int64_t value)
{
    completeAt(op, cycle, value);
    const Operation &o = region_.op(op);
    if (o.isMem() && o.mem->disambiguated())
        backend_.memCompleted(op, cycle);
}

void
SimCore::deliverToUsers(OpId op, uint64_t cycle, int64_t value)
{
    const uint32_t begin = tables_.fanoutOffset[op];
    const uint32_t end = tables_.fanoutOffset[op + 1];
    for (uint32_t i = begin; i < end; ++i) {
        const SimTables::FanoutEdge &e = tables_.fanoutEdges[i];
        netTransfers_->inc();
        netHops_->inc(e.hops);
        deliverOperand(e.user, e.slot, cycle + e.latency, value);
    }
}

/**
 * Eager operand delivery: runs when the producer completes, with
 * `arrival` the cycle the value reaches `op` over the mesh. The value
 * lands in the arena immediately (each slot is written exactly once
 * per invocation, so early writes are indistinguishable from on-time
 * ones) and the arrival cycle folds into the op's ready clocks. Pure
 * ops fire the moment their last operand is delivered — at the max
 * arrival cycle, off the event engine entirely. Memory ops instead
 * get one AddrReady event at the max address-operand arrival and one
 * InputsReady event at the max overall arrival: backend calls are
 * side-effecting against shared arbitration state, so they must run
 * at their true cycle, in canonical wave order.
 */
void
SimCore::deliverOperand(OpId op, uint32_t slot, uint64_t arrival,
                        int64_t value)
{
    const SimTables::OpInfo &info = tables_.opInfo[op];
    OpState &st = states_[op];
    NACHOS_ASSERT(slot < numInputs(op), "operand slot range");
    inputs(op)[slot] = value;
    st.readyCycle = std::max(st.readyCycle, arrival);
    NACHOS_ASSERT(st.pendingAllInputs > 0, "operand delivery underflow");
    --st.pendingAllInputs;

    if (slot >= info.firstAddrSlot) {
        NACHOS_ASSERT(st.pendingAddrInputs > 0,
                      "addr delivery underflow");
        --st.pendingAddrInputs;
        st.addrReadyCycle = std::max(st.addrReadyCycle, arrival);
        if (st.pendingAddrInputs == 0) {
            events_.schedule(st.addrReadyCycle,
                             SimEvent{0, op, EvKind::AddrReady});
        }
    }
    if (st.pendingAllInputs != 0)
        return;
    if (isMemKind(info.kind)) {
        events_.schedule(st.readyCycle,
                         SimEvent{0, op, EvKind::InputsReady});
    } else {
        fireOp(op, st.readyCycle);
    }
}

/**
 * Start an invocation: reset the dynamic ops, run the static program
 * (DESIGN.md §15.6) and schedule the memory seeds. Every static op
 * fires at a fixed offset from `start_cycle`, so the program evaluates
 * them in op order, accounts their work in bulk and hands their
 * values to dynamic consumers over the frontier edges; the values
 * arrive no earlier than start_cycle + 1, as the cascade's did.
 */
void
SimCore::seedInvocation(uint64_t start_cycle)
{
    // Re-arm the dynamic ops; the static ones keep no OpState. The
    // arena needs no clearing: deliverOperand writes each slot before
    // fireOp, storeData or the scratchpad store reads it, and no one
    // touches the static ops' slots.
    for (OpId op : tables_.dynamicOps) {
        OpState &st = states_[op];
        st = OpState{};
        st.pendingAllInputs = tables_.initialPendingAll[op];
        st.pendingAddrInputs = tables_.initialPendingAddr[op];
        st.readyCycle = start_cycle;
        st.addrReadyCycle = start_cycle;
    }
    opsRemaining_ = tables_.dynamicOps.size();
    invocationEnd_ = start_cycle;
    criticalSeen_ = false;

    const std::vector<SimTables::StaticOp> &program = tables_.staticProgram;
    if (!program.empty()) {
        int64_t *values = staticValues_.data();
        for (size_t i = 0; i < program.size(); ++i) {
            const SimTables::StaticOp &s = program[i];
            if (s.kind == OpKind::Const) {
                values[i] = s.imm;
            } else if (s.kind == OpKind::LiveIn) {
                values[i] = liveInValueFor(s.op, invocation_);
            } else {
                int64_t in[3] = {};
                for (uint32_t k = 0; k < s.numInputs; ++k)
                    in[k] = values[s.in[k]];
                values[i] = evalPure(s.kind, s.numInputs, in);
            }
        }
        const SimTables::StaticTotals &t = tables_.staticTotals;
        intOps_->inc(t.intOps);
        fpOps_->inc(t.fpOps);
        netTransfers_->inc(t.netTransfers);
        netHops_->inc(t.netHops);
        // completeAt's rule on the first completions of the invocation.
        criticalOp_ = tables_.staticCriticalOp;
        criticalSeen_ = true;
        invocationEnd_ = start_cycle + tables_.staticCriticalEnd;
        if (trace_.enabled()) {
            for (const SimTables::StaticOp &s : program) {
                traceCompute(s.kind, s.op, start_cycle + s.fireOffset,
                             s.fuLatency);
            }
        }
        for (const SimTables::FrontierEdge &e : tables_.frontier) {
            deliverOperand(e.user, e.slot, start_cycle + e.arrivalOffset,
                           values[e.producer]);
        }
    }

    for (const SimTables::SeedEvent &s : tables_.seedEvents) {
        events_.schedule(start_cycle,
                         SimEvent{0, s.op,
                                  s.addrSeed ? EvKind::AddrReady
                                             : EvKind::InputsReady});
    }
}

void
SimCore::dispatch(const SimEvent &ev)
{
    switch (ev.kind) {
      case EvKind::CompleteOp:
        completeOp(ev.op, now_, ev.value);
        break;
      case EvKind::MemDone:
        mlpChange(-1, now_);
        completeOp(ev.op, now_, ev.value);
        break;
      case EvKind::MemPerform:
        performMemAccess(ev.op, now_);
        break;
      case EvKind::LoadForward:
        completeLoadForwarded(ev.op, now_, ev.value);
        break;
      case EvKind::AddrReady:
        noteAddrReady(ev.op, now_);
        break;
      case EvKind::InputsReady:
        opInputsComplete(ev.op, now_);
        break;
      case EvKind::OrderToken:
        backend_.onOrderToken(ev.op, now_);
        break;
      case EvKind::ForwardValue:
        backend_.onForwardValue(ev.op, now_, ev.value);
        break;
    }
}

uint64_t
SimCore::runInvocation(uint64_t inv, uint64_t start_cycle)
{
    invocation_ = inv;
    invocationStart_ = start_cycle;
    backend_.beginInvocation(inv);
    seedInvocation(start_cycle);

    // Wave dispatch: drain everything pending for the earliest cycle,
    // already in canonical order, and dispatch it; same-cycle events
    // scheduled by those handlers form the next wave.
    while (!events_.empty()) {
        waveBuf_.clear();
        now_ = events_.drainWave(waveBuf_);
        planEventsDispatched_ += waveBuf_.size();
        for (const SimEvent &ev : waveBuf_)
            dispatch(ev);
    }
    NACHOS_ASSERT(opsRemaining_ == 0,
                  "dataflow deadlock: ", opsRemaining_,
                  " ops never completed in region ", region_.name(),
                  " invocation ", inv);
    return invocationEnd_;
}

SimResult
SimCore::run()
{
    uint64_t start = 0;
    uint64_t end = 0;
    for (uint64_t inv = 0; inv < cfg_.invocations; ++inv) {
        end = runInvocation(inv, start);
        start = end + 1;
    }

    // Flush the MLP integrator to the end of time.
    mlpChange(0, end);

    SimResult result;
    result.cycles = end + 1;
    result.cyclesPerInvocation =
        cfg_.invocations == 0
            ? 0
            : static_cast<double>(result.cycles) /
                  static_cast<double>(cfg_.invocations);
    result.maxMlp = maxOutstanding_;
    result.avgMlp = mlpBusyCycles_ == 0
                        ? 0
                        : static_cast<double>(mlpArea_) /
                              static_cast<double>(mlpBusyCycles_);
    result.energy = energyModel_.breakdown(stats_);
    result.stats = stats_;
    result.loadValueDigest = loadValueDigest_;
    result.criticalOp = criticalOp_;
    result.memImage = hierarchy_.data().image();
    result.memCommits = std::move(memCommits_);
    result.planEventsDispatched = planEventsDispatched_;
    if (trace_.enabled())
        trace_.writeFile(cfg_.traceFile);
    return result;
}

SimResult
simulate(const Region &region, const MdeSet &mdes, BackendKind kind,
         const SimConfig &cfg)
{
    HierarchyPool pool;
    return simulate(region, mdes, kind, cfg, pool);
}

SimResult
simulate(const Region &region, const MdeSet &mdes, BackendKind kind,
         const SimConfig &cfg, HierarchyPool &pool)
{
    const Placement placement(region);
    const SimPlan plan(region, placement, cfg.net);
    return simulate(plan, mdes, kind, cfg, pool);
}

SimResult
simulate(const SimPlan &plan, const MdeSet &mdes, BackendKind kind,
         const SimConfig &cfg, HierarchyPool &pool)
{
    const Region &region = plan.region();
    PooledRun &run = pool.beginRun(cfg.mem);
    const auto go = [&](OrderingBackend &backend) {
        SimCore core(plan, backend, cfg, run);
        return core.run();
    };
    switch (kind) {
      case BackendKind::OptLsq: {
        LsqBackend backend(region, cfg.lsq, run.lsq, run.stats);
        return go(backend);
      }
      case BackendKind::NachosSw:
      case BackendKind::Nachos: {
        MdeBackend backend(region, mdes, kind,
                           cfg.nachosComparesPerCycle, run.mde,
                           run.stats);
        return go(backend);
      }
    }
    NACHOS_PANIC("unknown backend kind");
}

} // namespace nachos
