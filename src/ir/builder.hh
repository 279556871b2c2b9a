/**
 * @file
 * Fluent construction helpers for offload regions. RegionBuilder keeps
 * track of the dense memIndex assignment and wires opaque-symbol
 * producers into operand lists so hand-written regions (tests, examples)
 * stay terse and structurally valid.
 */

#ifndef NACHOS_IR_BUILDER_HH
#define NACHOS_IR_BUILDER_HH

#include <string>
#include <tuple>

#include "ir/dfg.hh"

namespace nachos {

/** Convenience wrapper that assembles a valid Region incrementally. */
class RegionBuilder
{
  public:
    explicit RegionBuilder(std::string name = "region")
        : region_(std::move(name))
    {}

    // ---- memory environment -----------------------------------------

    /** Add a flat global/heap/stack object. */
    ObjectId object(const std::string &name, uint64_t size,
                    ObjectKind kind = ObjectKind::Global,
                    DataType elem = DataType::I64, bool escapes = true);

    /** Add a local (scratchpad-promoted) object. */
    ObjectId localObject(const std::string &name, uint64_t size,
                         DataType elem = DataType::I64);

    /**
     * Add a 2-D object with a symbolic row stride; returns the object.
     * rowStrideSym() fetches the created DimStride symbol.
     */
    ObjectId object2d(const std::string &name, uint64_t rows,
                      uint64_t cols, DataType elem = DataType::F64,
                      bool escapes = true);

    /**
     * Add a 3-D object with symbolic plane and row strides (e.g., the
     * lbm lattice): A[p][r][c] with both outer strides unknown to
     * Stage 1 and delinearized by Stage 4.
     */
    ObjectId object3d(const std::string &name, uint64_t planes,
                      uint64_t rows, uint64_t cols,
                      DataType elem = DataType::F64,
                      bool escapes = true);

    /** DimStride symbol of a 2-D/3-D object's dimension `dim`. */
    SymbolId dimStrideSym(ObjectId obj, uint32_t dim) const;

    /** DimStride symbol of a 2-D object created via object2d(). */
    SymbolId rowStrideSym(ObjectId obj) const;

    /** Add a pointer parameter with ground-truth target. */
    ParamId pointerParam(const std::string &name, ObjectId actual,
                         int64_t actual_offset = 0);

    /** Mark a param restrict-qualified (C99 restrict / noalias). */
    void paramRestrict(ParamId p);

    /** Attach compile-time-visible provenance to a param. */
    void paramProvenance(ParamId p, ObjectId source, int64_t offset = 0);

    /** Provenance via an outer frame's pointer param (chained). */
    void paramProvenanceViaParam(ParamId p, ParamId outer,
                                 int64_t offset = 0);

    /** Add an invocation-index symbol (shared; created on first use). */
    SymbolId invocationSym();

    /**
     * Add an opaque (data-dependent) address symbol whose deterministic
     * value stream is (hash % modulus) * scale + bias, produced by
     * `producer` (pass the op id of e.g. an index load).
     */
    SymbolId opaqueSym(const std::string &name, OpId producer,
                       uint64_t modulus, uint64_t scale = 8,
                       int64_t bias = 0, uint64_t seed = 1);

    // ---- operations ---------------------------------------------------

    OpId constant(int64_t value, DataType t = DataType::I64);
    OpId liveIn(DataType t = DataType::I64);
    OpId binary(OpKind k, OpId a, OpId b, DataType t = DataType::I64);
    OpId iadd(OpId a, OpId b) { return binary(OpKind::IAdd, a, b); }
    OpId imul(OpId a, OpId b) { return binary(OpKind::IMul, a, b); }
    OpId ixor(OpId a, OpId b) { return binary(OpKind::IXor, a, b); }
    OpId iand(OpId a, OpId b) { return binary(OpKind::IAnd, a, b); }
    OpId ior(OpId a, OpId b) { return binary(OpKind::IOr, a, b); }
    OpId ishl(OpId a, OpId b) { return binary(OpKind::IShl, a, b); }
    OpId fadd(OpId a, OpId b)
    {
        return binary(OpKind::FAdd, a, b, DataType::F64);
    }
    OpId fmul(OpId a, OpId b)
    {
        return binary(OpKind::FMul, a, b, DataType::F64);
    }
    OpId fdiv(OpId a, OpId b)
    {
        return binary(OpKind::FDiv, a, b, DataType::F64);
    }
    /** cond ? a : b. */
    OpId select(OpId cond, OpId a, OpId b);
    OpId liveOut(OpId v);

    /** Load from a symbolic address; extra operands gate readiness. */
    OpId load(AddrExpr addr, uint32_t size = 8,
              std::vector<OpId> addr_deps = {},
              DataType t = DataType::I64);

    /** Store `data` to a symbolic address. */
    OpId store(AddrExpr addr, OpId data, uint32_t size = 8,
               std::vector<OpId> addr_deps = {});

    /** Scratchpad access to a local object at a constant offset. */
    OpId scratchLoad(ObjectId local, int64_t offset, uint32_t size = 8);
    OpId scratchStore(ObjectId local, int64_t offset, OpId data,
                      uint32_t size = 8);

    // ---- address expression helpers ------------------------------------

    /** base-object + constant offset. */
    AddrExpr at(ObjectId obj, int64_t offset = 0) const;

    /** param + constant offset. */
    AddrExpr atParam(ParamId p, int64_t offset = 0) const;

    /** obj + invocation * stride + offset (streaming access). */
    AddrExpr stream(ObjectId obj, int64_t stride_bytes,
                    int64_t offset = 0);

    /** 2-D access A[row][col] with symbolic row stride. */
    AddrExpr at2d(ObjectId obj, int64_t row, int64_t col,
                  int64_t invocation_stride_bytes = 0);

    /** 3-D access A[plane][row][col], both outer strides symbolic. */
    AddrExpr at3d(ObjectId obj, int64_t plane, int64_t row, int64_t col,
                  int64_t invocation_stride_bytes = 0);

    /** opaque-base address (pointer chase). */
    AddrExpr opaque(SymbolId opaque_base, int64_t offset = 0) const;

    // ---- finish ---------------------------------------------------------

    /** Finalize and hand the region over. */
    Region build();

    /** Access to the region under construction (read-only). */
    const Region &peek() const { return region_; }

  private:
    Region region_;
    uint32_t nextMemIndex_ = 0;
    SymbolId invocationSym_ = 0;
    bool haveInvocationSym_ = false;
    /** (object, dim) -> DimStride symbol. */
    std::vector<std::tuple<ObjectId, uint32_t, SymbolId>> dimStrides_;

    OpId addMemOp(OpKind kind, AddrExpr addr, uint32_t size,
                  std::vector<OpId> operands, bool scratch, DataType t);
};

} // namespace nachos

#endif // NACHOS_IR_BUILDER_HH
