/**
 * @file
 * Cycle-accurate (event-driven) simulator of the CGRA accelerator
 * executing an offload region for N invocations, under one of three
 * memory-ordering backends:
 *
 *   OptLsq   — the paper's optimized LSQ baseline (§VIII-C);
 *   NachosSw — compiler-only ordering: MDEs enforced as dataflow
 *              edges, MAY treated as MUST (§V);
 *   Nachos   — NACHOS-SW plus decentralized runtime MAY checks (§VII).
 *
 * The simulator owns the dataflow firing machinery (operand arrivals
 * over the mesh network, FU latencies, memory hierarchy); backends own
 * only the question "when may this memory op access memory, and does
 * it need to?". All backends share one functional memory so ordering
 * violations surface as value/image divergence (tested).
 *
 * Invocations execute back-to-back and drain fully (the offload path
 * is re-entered like the paper's unrolled hot path; caches stay warm
 * across invocations).
 *
 * Execution engine: the event queue carries only variable-latency
 * traffic — memory performs/completions, backend tokens and forwarded
 * values, per-memory-op readiness notifications (which also seed the
 * memory ops that have no operands to wait for). Pure fixed-latency
 * dataflow never touches it. The pure ops that depend on no memory op
 * (Const, LiveIn and what they alone feed) form the plan's static
 * program: they fire at fixed offsets from the invocation start, so
 * seeding an invocation evaluates them in op order, adds their
 * counters in bulk and delivers their values to the rest over the
 * frontier edges. The rest fire eagerly: operand delivery writes the
 * consumer's arena slot and folds the wire arrival cycle into its
 * ready clock, and a pure op whose operands are all in fires
 * arithmetically, as a straight-line cascade at completion cycle =
 * max arrival + FU latency (cgra/sim_tables, DESIGN.md §15).
 *
 * Events are small typed records dispatched from a cycle-indexed
 * CalendarQueue with no per-event allocation. Same-cycle events drain
 * a wave at a time, already in a canonical content order
 * (kind, op, value) — a pure function of event contents, so the
 * dispatch schedule cannot depend on the order handlers scheduled
 * them.
 */

#ifndef NACHOS_CGRA_SIMULATOR_HH
#define NACHOS_CGRA_SIMULATOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "cgra/function_unit.hh"
#include "cgra/hierarchy_pool.hh"
#include "cgra/network.hh"
#include "cgra/placement.hh"
#include "cgra/sim_tables.hh"
#include "cgra/trace.hh"
#include "energy/model.hh"
#include "ir/dfg.hh"
#include "lsq/opt_lsq.hh"
#include "mde/mde.hh"
#include "mem/hierarchy.hh"
#include "support/event_queue.hh"
#include "support/sim_stats.hh"

namespace nachos {

/** Which ordering scheme runs under the region. */
enum class BackendKind : uint8_t { OptLsq, NachosSw, Nachos };

const char *backendName(BackendKind k);

/** Full simulation configuration. */
struct SimConfig
{
    NetworkConfig net;
    HierarchyConfig mem;
    LsqConfig lsq;
    EnergyParams energy;
    uint64_t invocations = 100;
    /** NACHOS comparator arbiter width (ablation; paper uses 1). */
    uint32_t nachosComparesPerCycle = 1;
    /** Write a Chrome trace-event JSON of op executions here. */
    std::string traceFile;
    /**
     * Record every committed memory op into SimResult::memCommits, in
     * functional commit order (the order data motion hit memory). The
     * differential fuzzer checks ordering invariants against it.
     */
    bool recordMemTrace = false;
};

/** One committed memory operation (recordMemTrace only). */
struct MemCommit
{
    uint32_t op = 0;
    uint32_t invocation = 0;
    uint64_t cycle = 0;
    /** Concrete address; meaningful for performed accesses (a
     *  forwarded load may complete before its address resolves). */
    uint64_t addr = 0;
    /** True if a load completed via ST->LD forwarding (no memory
     *  access was performed). */
    bool forwarded = false;
};

/** Simulation outcome. */
struct SimResult
{
    uint64_t cycles = 0; ///< total cycles over all invocations
    double cyclesPerInvocation = 0;
    uint64_t maxMlp = 0;
    double avgMlp = 0;
    /** All event counters (cache, lsq, mde, fu, net): the rows of the
     * counter table this run registered. */
    SimStats stats;
    EnergyBreakdown energy;
    /** Order-insensitive digest of every load's observed value. */
    uint64_t loadValueDigest = 0;
    /** Op completing last in the final invocation: the argmax of
     *  (completion cycle, op id), an order-free rule that cannot depend
     *  on cascade order (diagnostics). */
    OpId criticalOp = 0;
    /** Final functional-memory image (sorted bytes). */
    std::vector<std::pair<uint64_t, uint8_t>> memImage;
    /** Commit-ordered memory trace (cfg.recordMemTrace only). */
    std::vector<MemCommit> memCommits;

    // ---- firing-plan observability ------------------------------------
    // Kept out of `stats` deliberately: the counters, digest, image and
    // commit trace describe the modeled machine, while these counters
    // describe the host engine's own work.
    uint64_t planEventsDispatched = 0; ///< events the engine dispatched
};

class SimCore;

/** Strategy interface: memory-ordering policy of the accelerator. */
class OrderingBackend
{
  public:
    explicit OrderingBackend(const Region &region) : region_(region) {}
    virtual ~OrderingBackend() = default;

    void attach(SimCore &core) { core_ = &core; }

    /** Reset per-invocation state. */
    virtual void beginInvocation(uint64_t inv) = 0;

    /** Op's address operands resolved; `addr` is the concrete address. */
    virtual void memAddrReady(OpId op, uint64_t addr, uint32_t size,
                              uint64_t cycle) = 0;

    /** All operands (stores: including data) resolved. */
    virtual void memFullyReady(OpId op, uint64_t cycle) = 0;

    /** The op's memory action finished at `cycle`. */
    virtual void memCompleted(OpId op, uint64_t cycle) = 0;

    /**
     * Typed event deliveries: fire when a token/value scheduled via
     * SimCore::scheduleOrderToken / scheduleForwardValue arrives.
     * Backends that schedule them must override; the defaults panic.
     */
    virtual void onOrderToken(OpId op, uint64_t cycle);
    virtual void onForwardValue(OpId op, uint64_t cycle, int64_t value);

  protected:
    const Region &region_;
    SimCore *core_ = nullptr;
};

/**
 * The dataflow execution engine. Its backend-services section is the
 * API ordering backends build on.
 */
class SimCore
{
  public:
    /**
     * The counters, the memory hierarchy and the engine's buffers come
     * from `run`, a pool's kept run state (cgra/hierarchy_pool), which
     * HierarchyPool::beginRun() has reset for this run: a pooled run
     * is observably identical to one on a fresh pool (tested). The
     * pool must outlive the core.
     *
     * The core borrows `plan` (the region's placement and firing
     * tables), whose network must match `cfg`; the plan must outlive
     * the core.
     */
    SimCore(const SimPlan &plan, OrderingBackend &backend,
            const SimConfig &cfg, PooledRun &run);

    /** Run all invocations; returns the aggregated result. */
    SimResult run();

    // ---- backend services ---------------------------------------------

    /** Deliver a 1-bit ORDER token to backend.onOrderToken at `cycle`. */
    void scheduleOrderToken(uint64_t cycle, OpId to);

    /** Deliver a FORWARD value to backend.onForwardValue at `cycle`. */
    void scheduleForwardValue(uint64_t cycle, OpId to, int64_t value);

    /**
     * Perform op's memory access at `cycle`: functional data motion
     * now, timed completion later; backend sees memCompleted().
     */
    void performMemAccess(OpId op, uint64_t cycle);

    /** Complete a load without touching memory (forwarded value). */
    void completeLoadForwarded(OpId op, uint64_t cycle, int64_t value);

    /** Operand-network latency between two mapped ops. */
    uint64_t netLatency(OpId from, OpId to) const;

    /** Count a 1-bit ORDER token traversal (energy). */
    void countOrderToken() { mdeMust_->inc(); }

    /** Count a FORWARD value traversal (energy). */
    void countForward() { mdeForwards_->inc(); }

    /** Data value a store will write (valid once fully ready). */
    int64_t storeData(OpId op) const;

    const Region &region() const { return region_; }

  private:
    /**
     * Typed event record (16 bytes); cycle lives in the queue ring.
     * The enum order IS the canonical intra-wave dispatch order: the
     * queue keeps each cycle's events ordered on (kind, op, value), a
     * pure function of event contents (nothing provenance- or
     * sequence-derived), so the dispatch schedule cannot depend on
     * which handler scheduled an event first. AddrReady ordering
     * before InputsReady is load-bearing: when both land in one wave
     * the address must resolve before the op is declared fully ready.
     */
    enum class EvKind : uint8_t
    {
        CompleteOp,   ///< op finished (memory/scratchpad); value
        MemDone,      ///< timed memory completion; value
        MemPerform,   ///< deferred performMemAccess
        LoadForward,  ///< deferred completeLoadForwarded; value
        AddrReady,    ///< mem op's address operands all arrived
        InputsReady,  ///< mem op's operands (incl. data) all arrived
        OrderToken,   ///< backend.onOrderToken(op)
        ForwardValue, ///< backend.onForwardValue(op, value)
    };

    struct SimEvent
    {
        int64_t value = 0;
        uint32_t op = 0;
        EvKind kind = EvKind::InputsReady;
    };

    /** Canonical intra-wave order: (kind, op, value). Equivalent
     * events are byte-identical, so the order is total in effect. */
    struct EventBefore
    {
        bool
        operator()(const SimEvent &a, const SimEvent &b) const
        {
            if (a.kind != b.kind)
                return a.kind < b.kind;
            if (a.op != b.op)
                return a.op < b.op;
            return a.value < b.value;
        }
    };

    /** Per-invocation dynamic op state (POD; reset by assignment). */
    struct OpState
    {
        uint32_t pendingAddrInputs = 0;
        uint32_t pendingAllInputs = 0;
        uint64_t readyCycle = 0;     ///< max operand arrival
        uint64_t addrReadyCycle = 0;
        bool addrNotified = false;
        bool completed = false;
        bool performed = false;
        uint64_t addr = 0;
    };

  public:
    /**
     * The engine's storage a pool keeps between runs; each run resets
     * what it uses in O(state touched) and allocates nothing once the
     * buffers have grown to the largest region seen.
     */
    struct Buffers
    {
        CalendarQueue<SimEvent, EventBefore> events;
        /** Current wave's events, in canonical order. */
        std::vector<SimEvent> wave;
        std::vector<OpState> states;
        /** Operand-value arena: op's slots at tables_.inputOffset[op].
         * Zeroed per run; every slot a run reads was written earlier in
         * the same invocation, so invocations never clear it. */
        std::vector<int64_t> inputArena;
        /** Static program values, one per tables_.staticProgram entry;
         * every entry is rewritten before it is read, each invocation. */
        std::vector<int64_t> staticValues;
    };

  private:
    const SimPlan &plan_;
    /** Static firing tables: the plan's (cgra/sim_tables). */
    const SimTables &tables_;
    const Region &region_;
    OrderingBackend &backend_;
    SimConfig cfg_;
    /** The run's counters and memory hierarchy: the pool's. */
    SimStats &stats_;
    MemoryHierarchy &hierarchy_;
    EnergyModel energyModel_;

    // The pool's Buffers, by member.
    CalendarQueue<SimEvent, EventBefore> &events_;
    uint64_t now_ = 0;
    std::vector<SimEvent> &waveBuf_;
    std::vector<OpState> &states_;
    std::vector<int64_t> &inputArena_;
    std::vector<int64_t> &staticValues_;
    Counter *netTransfers_ = nullptr;
    Counter *netHops_ = nullptr;
    Counter *mdeMust_ = nullptr;
    Counter *mdeForwards_ = nullptr;
    Counter *intOps_ = nullptr;
    Counter *fpOps_ = nullptr;

    uint64_t invocation_ = 0;
    uint64_t invocationStart_ = 0;
    size_t opsRemaining_ = 0;
    uint64_t invocationEnd_ = 0;
    OpId criticalOp_ = 0;
    /** False until the invocation's first completion lands. */
    bool criticalSeen_ = false;

    // MLP accounting.
    uint64_t outstanding_ = 0;
    uint64_t maxOutstanding_ = 0;
    uint64_t mlpLastChange_ = 0;
    uint64_t mlpArea_ = 0;
    uint64_t mlpBusyCycles_ = 0;

    uint64_t loadValueDigest_ = 0;
    std::vector<MemCommit> memCommits_;
    TraceCollector trace_;

    // Firing-plan observability (SimResult::planEventsDispatched).
    uint64_t planEventsDispatched_ = 0;

    int64_t *inputs(OpId op)
    {
        return inputArena_.data() + tables_.inputOffset[op];
    }
    const int64_t *inputs(OpId op) const
    {
        return inputArena_.data() + tables_.inputOffset[op];
    }
    uint32_t numInputs(OpId op) const { return tables_.numInputs(op); }

    void dispatch(const SimEvent &ev);
    uint64_t runInvocation(uint64_t inv, uint64_t start_cycle);
    void seedInvocation(uint64_t start_cycle);
    void traceCompute(OpKind kind, OpId op, uint64_t cycle,
                      uint32_t latency);
    void fireOp(OpId op, uint64_t cycle);
    void deliverOperand(OpId op, uint32_t slot, uint64_t arrival,
                        int64_t value);
    void opInputsComplete(OpId op, uint64_t cycle);
    void completeAt(OpId op, uint64_t cycle, int64_t value);
    void completeOp(OpId op, uint64_t cycle, int64_t value);
    void deliverToUsers(OpId op, uint64_t cycle, int64_t value);
    void noteAddrReady(OpId op, uint64_t cycle);
    void mlpChange(int delta, uint64_t cycle);
};

/**
 * Build the backend for `kind` and simulate the region under it, on a
 * fresh pool.
 */
SimResult simulate(const Region &region, const MdeSet &mdes,
                   BackendKind kind, const SimConfig &cfg);

/**
 * Pooled variant: run on `pool`'s kept run state — counters, memory
 * hierarchy, engine buffers and backend tables (cgra/hierarchy_pool).
 * Results are identical to the unpooled overload; only the set-up
 * cost differs.
 */
SimResult simulate(const Region &region, const MdeSet &mdes,
                   BackendKind kind, const SimConfig &cfg,
                   HierarchyPool &pool);

/**
 * Plan variant: simulate `plan`'s region on a plan built once for it.
 * Callers that run several backends or configurations of one region
 * (the fuzzer, simulateRequest) share one plan across those runs;
 * results are identical to the overloads above, which place the
 * region and build a plan per call.
 */
SimResult simulate(const SimPlan &plan, const MdeSet &mdes,
                   BackendKind kind, const SimConfig &cfg,
                   HierarchyPool &pool);

} // namespace nachos

#endif // NACHOS_CGRA_SIMULATOR_HH
