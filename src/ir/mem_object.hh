/**
 * @file
 * Memory objects and pointer parameters of an offload region.
 *
 * A MemObject is an allocation the compiler knows about: a global, a
 * heap allocation site, or a stack slot of the parent function. A
 * PointerParam is a pointer live-in to the offload path whose pointee is
 * not locally known; Stage 2 (inter-procedural provenance) may resolve a
 * param to a concrete object by tracing through parent frames.
 */

#ifndef NACHOS_IR_MEM_OBJECT_HH
#define NACHOS_IR_MEM_OBJECT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/type.hh"

namespace nachos {

using ObjectId = uint32_t;
using ParamId = uint32_t;

/** Allocation class of a memory object. */
enum class ObjectKind : uint8_t { Global, Heap, Stack };

/**
 * A compiler-visible allocation. Objects carry a concrete base address
 * for simulation; the synthesizer lays objects out disjointly so that
 * "distinct objects never overlap" holds dynamically as well.
 */
struct MemObject
{
    ObjectId id = 0;
    std::string name;
    ObjectKind kind = ObjectKind::Global;
    /** Total size in bytes. */
    uint64_t size = 0;
    /** Element type (drives TBAA-style disambiguation). */
    DataType elemType = DataType::I64;
    /**
     * True if the object is private to the region (stack slot or
     * non-escaping local): the compiler promotes its accesses to the
     * scratchpad and they never enter disambiguation (Table II C5).
     */
    bool isLocal = false;
    /**
     * True if the object's address escapes (may be reachable through an
     * unrelated pointer). Non-escaping objects can never alias an
     * unknown-provenance pointer.
     */
    bool escapes = true;
    /** Concrete base address used by the simulator. */
    uint64_t baseAddr = 0;
    /**
     * Declared multidimensional shape (elements per dimension, outermost
     * first); empty for flat objects. Stage 4 uses the shape to
     * delinearize symbolic-stride accesses.
     */
    std::vector<uint64_t> shape;
};

/**
 * Where a pointer parameter's value comes from in the parent frame.
 * Either a concrete object (possibly at a constant offset) or another
 * pointer parameter of the next frame out.
 */
struct ParamProvenance
{
    /** True if the source is an object, false if an outer param. */
    bool isObject = true;
    uint32_t sourceId = 0;
    int64_t offset = 0;
};

/**
 * A pointer live-in to the offload path. Without provenance the
 * compiler must assume it may point into any escaping object or overlap
 * any other unresolved param.
 */
struct PointerParam
{
    ParamId id = 0;
    std::string name;
    /**
     * C99 `restrict` / LLVM `noalias` qualifier: the programmer
     * asserts no other pointer accesses this param's pointee within
     * the region. Stage 1 may then disambiguate it against every
     * other base. (The synthesizer only sets this when the ground
     * truth honors it; the soundness property tests check.)
     */
    bool isRestrict = false;
    /** Provenance link, consulted only by Stage 2. */
    std::optional<ParamProvenance> provenance;
    /**
     * Ground-truth target used by the simulator to materialize
     * addresses. Always set by the synthesizer; invisible to Stage 1.
     */
    ObjectId actualObject = 0;
    int64_t actualOffset = 0;
};

} // namespace nachos

#endif // NACHOS_IR_MEM_OBJECT_HH
