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
 * values, per-memory-op readiness notifications, invocation seeds.
 * Pure fixed-latency dataflow never touches it: operand delivery is
 * eager (the producer's completion writes every consumer's arena slot
 * and folds the wire arrival cycle into the consumer's ready clock),
 * and a pure op whose operands are all in fires arithmetically, as a
 * straight-line cascade at completion cycle = max arrival + FU
 * latency (cgra/sim_tables, DESIGN.md §15).
 *
 * Events are small typed records dispatched from a cycle-bucketed
 * CalendarQueue with no per-event allocation. Same-cycle events drain
 * a wave at a time and dispatch in a canonical content order
 * (kind, op, slot, value) — a pure function of event contents, so the
 * dispatch schedule cannot depend on the order handlers scheduled
 * them.
 */

#ifndef NACHOS_CGRA_SIMULATOR_HH
#define NACHOS_CGRA_SIMULATOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "cgra/function_unit.hh"
#include "cgra/network.hh"
#include "cgra/placement.hh"
#include "cgra/sim_tables.hh"
#include "cgra/trace.hh"
#include "energy/model.hh"
#include "ir/dfg.hh"
#include "lsq/opt_lsq.hh"
#include "mde/mde.hh"
#include "mem/hierarchy.hh"
#include "mem/hierarchy_pool.hh"
#include "support/event_queue.hh"
#include "support/stats.hh"

namespace nachos {

/** Which ordering scheme runs under the region. */
enum class BackendKind : uint8_t { OptLsq, NachosSw, Nachos };

const char *backendName(BackendKind k);

/** Full simulation configuration. */
struct SimConfig
{
    GridConfig grid;
    NetworkConfig net;
    HierarchyConfig mem;
    LsqConfig lsq;
    EnergyParams energy;
    uint64_t invocations = 100;
    /** NACHOS comparator arbiter width (ablation; paper uses 1). */
    uint32_t nachosComparesPerCycle = 1;
    /** Runtime ST->LD forwarding on confirmed exact conflicts (§VIII). */
    bool nachosRuntimeForwarding = true;
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
    /** All event counters (cache, lsq, mde, fu, net). */
    StatSet stats;
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
    // Kept out of `stats` deliberately: the StatSet, digest, image and
    // commit trace describe the modeled machine, while these counters
    // describe the host engine's own work.
    uint64_t planEventsDispatched = 0; ///< events the engine dispatched
    uint64_t planEventsElided = 0;     ///< events eager delivery avoided
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
     * The memory hierarchy comes from `pool`. Hierarchy construction
     * is dominated by filling the LLC way array (~100 µs,
     * mem/hierarchy_pool) — more than a small region's entire
     * simulation — so reset-heavy drivers (the fuzzer, the suite
     * runner, nachosd workers) keep a pool alive across simulate()
     * calls. A pooled acquire is observably identical to fresh
     * construction (tested); at most one SimCore may use a pool at a
     * time, and the pool must outlive the core.
     */
    SimCore(const Region &region, const MdeSet &mdes,
            OrderingBackend &backend, const SimConfig &cfg,
            HierarchyPool &pool);

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
    void countOrderToken(OpId from, OpId to);

    /** Count a FORWARD value traversal (energy). */
    void countForward(OpId from, OpId to);

    /** Data value a store will write (valid once fully ready). */
    int64_t storeData(OpId op) const;

    /** Concrete address of a mem op in the current invocation. */
    uint64_t memAddr(OpId op) const;

    const Region &region() const { return region_; }
    const MdeSet &mdes() const { return mdes_; }
    /** Counter registry of the run. */
    StatSet &stats() { return stats_; }
    uint64_t invocation() const { return invocation_; }

  private:
    /**
     * Typed event record (16 bytes); cycle lives in the queue bucket.
     * The enum order IS the canonical intra-wave dispatch order: a
     * wave sorts on (kind, op, slot, value), a pure function of event
     * contents (nothing provenance- or sequence-derived), so the
     * dispatch schedule cannot depend on which handler scheduled an
     * event first. AddrReady sorting before InputsReady is load-
     * bearing: when both land in one wave the address must resolve
     * before the op is declared fully ready.
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
        uint16_t slot = 0;
        EvKind kind = EvKind::InputsReady;
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
        int64_t value = 0;
        uint64_t completeCycle = 0;
        uint64_t addr = 0;
    };

    const Region &region_;
    const MdeSet &mdes_;
    OrderingBackend &backend_;
    SimConfig cfg_;
    StatSet stats_;
    Placement placement_;
    OperandNetwork network_;
    /** The run's memory hierarchy: the pool's slot. */
    MemoryHierarchy &hierarchy_;
    EnergyModel energyModel_;

    CalendarQueue<SimEvent> events_;
    uint64_t now_ = 0;
    /** Current wave's events (drained, then canonically sorted). */
    std::vector<SimEvent> waveBuf_;

    std::vector<OpState> states_;
    /** Operand-value arena: op's slots at tables_.inputOffset[op]. */
    std::vector<int64_t> inputArena_;
    /** Static firing tables (cgra/sim_tables). */
    SimTables tables_;
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

    // Firing-plan observability (SimResult::plan* fields).
    uint64_t planEventsDispatched_ = 0;
    uint64_t planEventsElided_ = 0;

    int64_t *inputs(OpId op)
    {
        return inputArena_.data() + tables_.inputOffset[op];
    }
    const int64_t *inputs(OpId op) const
    {
        return inputArena_.data() + tables_.inputOffset[op];
    }
    uint32_t numInputs(OpId op) const { return tables_.numInputs(op); }

    void buildStaticTables();
    void dispatch(const SimEvent &ev);
    uint64_t runInvocation(uint64_t inv, uint64_t start_cycle);
    void seedInvocation(uint64_t start_cycle);
    int64_t evalFireValue(OpId op);
    void fireOp(OpId op, uint64_t cycle);
    void deliverOperand(OpId op, uint32_t slot, uint64_t arrival,
                        int64_t value);
    void opInputsComplete(OpId op, uint64_t cycle);
    void completeAt(OpId op, uint64_t cycle, int64_t value);
    void completeOp(OpId op, uint64_t cycle, int64_t value);
    void deliverToUsers(OpId op, uint64_t cycle, int64_t value);
    void noteAddrReady(OpId op, uint64_t cycle);
    void mlpChange(int delta, uint64_t cycle);
    int64_t liveInValue(OpId op) const;
};

/**
 * Build the backend for `kind` and simulate the region under it, on a
 * freshly constructed memory hierarchy.
 */
SimResult simulate(const Region &region, const MdeSet &mdes,
                   BackendKind kind, const SimConfig &cfg);

/**
 * Pooled variant: reuse `pool`'s memory hierarchy (see the SimCore
 * constructor). Results are identical to the unpooled overload; only
 * the construction cost differs.
 */
SimResult simulate(const Region &region, const MdeSet &mdes,
                   BackendKind kind, const SimConfig &cfg,
                   HierarchyPool &pool);

} // namespace nachos

#endif // NACHOS_CGRA_SIMULATOR_HH
