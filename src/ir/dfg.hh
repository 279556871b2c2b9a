/**
 * @file
 * Region: the offload-path dataflow graph plus its memory environment
 * (objects, pointer params, address symbols).
 *
 * A Region is built in program order (straight-line superblock), then
 * finalize()d, which verifies structural invariants and freezes derived
 * state (use lists, the disambiguated memory-op order). All analyses
 * and the simulator operate on finalized regions.
 */

#ifndef NACHOS_IR_DFG_HH
#define NACHOS_IR_DFG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ir/mem_object.hh"
#include "ir/operation.hh"
#include "support/logging.hh"

namespace nachos {

/** The offload-path IR container. */
class Region
{
  public:
    explicit Region(std::string name = "region") : name_(std::move(name))
    {}

    // ------------------------------------------------------------------
    // Construction (builder/synthesizer API)
    // ------------------------------------------------------------------

    /** Register an object; its id is assigned and returned. */
    ObjectId addObject(MemObject obj);

    /** Register a pointer parameter; its id is assigned and returned. */
    ParamId addParam(PointerParam param);

    /** Register an address symbol; its id is assigned and returned. */
    SymbolId addSymbol(Symbol sym);

    /** Append an operation in program order; its id is returned. */
    OpId addOp(Operation op);

    /**
     * Verify invariants and freeze derived state. Returns *this for
     * chaining. Panics on a malformed region (builder bug).
     */
    Region &finalize();

    // ------------------------------------------------------------------
    // Read access
    // ------------------------------------------------------------------

    const std::string &name() const { return name_; }

    size_t numOps() const { return ops_.size(); }
    // Inline: on the simulator's per-event path (millions of calls).
    const Operation &op(OpId id) const
    {
        NACHOS_ASSERT(id < ops_.size(), "op id out of range");
        return ops_[id];
    }
    const std::vector<Operation> &ops() const { return ops_; }

    const MemObject &object(ObjectId id) const;
    const std::vector<MemObject> &objects() const { return objects_; }

    const PointerParam &param(ParamId id) const;
    const std::vector<PointerParam> &params() const { return params_; }
    PointerParam &mutableParam(ParamId id);

    const Symbol &symbol(SymbolId id) const;
    const std::vector<Symbol> &symbols() const { return symbols_; }

    bool finalized() const { return finalized_; }

    /**
     * Disambiguated memory ops in program order (memIndex order).
     * Valid after finalize().
     */
    const std::vector<OpId> &memOps() const
    {
        NACHOS_ASSERT(finalized_, "memOps before finalize");
        return memOps_;
    }

    /** Ops that consume op `id`'s value. Valid after finalize(). */
    const std::vector<OpId> &users(OpId id) const
    {
        NACHOS_ASSERT(finalized_, "users before finalize");
        NACHOS_ASSERT(id < users_.size(), "op id out of range");
        return users_[id];
    }

    /** Count of operations matching a predicate-style summary. */
    size_t numMemOps() const;        ///< disambiguated only
    size_t numScratchpadOps() const; ///< local (promoted) accesses
    size_t numFloatOps() const;

    /** True if the region opted in to type-based disambiguation. */
    bool strictAliasing() const { return strictAliasing_; }
    void setStrictAliasing(bool on) { strictAliasing_ = on; }

    // ------------------------------------------------------------------
    // Ground truth
    // ------------------------------------------------------------------

    /**
     * Concrete byte address of memory op `id` in the given invocation,
     * evaluated from its AddrExpr with ground-truth symbol values.
     */
    uint64_t evalAddr(OpId id, uint64_t invocation) const;

    /**
     * Lay objects out disjointly in the simulated address space with
     * guard gaps so distinct objects can never overlap dynamically.
     */
    void layoutObjects(uint64_t start = 0x100000, uint64_t guard = 4096);

  private:
    std::string name_;
    std::vector<Operation> ops_;
    std::vector<MemObject> objects_;
    std::vector<PointerParam> params_;
    std::vector<Symbol> symbols_;
    std::vector<OpId> memOps_;
    std::vector<std::vector<OpId>> users_;
    bool strictAliasing_ = false;
    bool finalized_ = false;

    void verify() const;
};

} // namespace nachos

#endif // NACHOS_IR_DFG_HH
