#include "ir/builder.hh"

#include "support/logging.hh"

namespace nachos {

ObjectId
RegionBuilder::object(const std::string &name, uint64_t size,
                      ObjectKind kind, DataType elem, bool escapes)
{
    MemObject obj;
    obj.name = name;
    obj.kind = kind;
    obj.size = size;
    obj.elemType = elem;
    obj.escapes = escapes;
    return region_.addObject(std::move(obj));
}

ObjectId
RegionBuilder::localObject(const std::string &name, uint64_t size,
                           DataType elem)
{
    MemObject obj;
    obj.name = name;
    obj.kind = ObjectKind::Stack;
    obj.size = size;
    obj.elemType = elem;
    obj.isLocal = true;
    obj.escapes = false;
    return region_.addObject(std::move(obj));
}

ObjectId
RegionBuilder::object2d(const std::string &name, uint64_t rows,
                        uint64_t cols, DataType elem, bool escapes)
{
    const uint64_t esz = typeSize(elem);
    MemObject obj;
    obj.name = name;
    obj.kind = ObjectKind::Heap;
    obj.size = rows * cols * esz;
    obj.elemType = elem;
    obj.escapes = escapes;
    obj.shape = {rows, cols};
    ObjectId id = region_.addObject(std::move(obj));

    Symbol stride;
    stride.kind = SymKind::DimStride;
    stride.name = name + ".rowStride";
    stride.object = id;
    stride.dim = 0;
    stride.strideBytes = cols * esz;
    SymbolId sid = region_.addSymbol(std::move(stride));
    dimStrides_.emplace_back(id, 0, sid);
    return id;
}

ObjectId
RegionBuilder::object3d(const std::string &name, uint64_t planes,
                        uint64_t rows, uint64_t cols, DataType elem,
                        bool escapes)
{
    const uint64_t esz = typeSize(elem);
    MemObject obj;
    obj.name = name;
    obj.kind = ObjectKind::Heap;
    obj.size = planes * rows * cols * esz;
    obj.elemType = elem;
    obj.escapes = escapes;
    obj.shape = {planes, rows, cols};
    ObjectId id = region_.addObject(std::move(obj));

    Symbol plane_stride;
    plane_stride.kind = SymKind::DimStride;
    plane_stride.name = name + ".planeStride";
    plane_stride.object = id;
    plane_stride.dim = 0;
    plane_stride.strideBytes = rows * cols * esz;
    dimStrides_.emplace_back(id, 0,
                             region_.addSymbol(std::move(plane_stride)));

    Symbol row_stride;
    row_stride.kind = SymKind::DimStride;
    row_stride.name = name + ".rowStride";
    row_stride.object = id;
    row_stride.dim = 1;
    row_stride.strideBytes = cols * esz;
    dimStrides_.emplace_back(id, 1,
                             region_.addSymbol(std::move(row_stride)));
    return id;
}

SymbolId
RegionBuilder::dimStrideSym(ObjectId obj, uint32_t dim) const
{
    for (const auto &[oid, d, sid] : dimStrides_) {
        if (oid == obj && d == dim)
            return sid;
    }
    NACHOS_PANIC("object ", obj, " has no dim-", dim,
                 " stride symbol");
}

SymbolId
RegionBuilder::rowStrideSym(ObjectId obj) const
{
    for (const auto &[oid, d, sid] : dimStrides_) {
        if (oid == obj && d == 0 &&
            region_.object(obj).shape.size() == 2) {
            return sid;
        }
    }
    NACHOS_PANIC("object ", obj, " has no row-stride symbol");
}

ParamId
RegionBuilder::pointerParam(const std::string &name, ObjectId actual,
                            int64_t actual_offset)
{
    PointerParam p;
    p.name = name;
    p.actualObject = actual;
    p.actualOffset = actual_offset;
    return region_.addParam(std::move(p));
}

void
RegionBuilder::paramProvenance(ParamId p, ObjectId source, int64_t offset)
{
    region_.mutableParam(p).provenance =
        ParamProvenance{true, source, offset};
}

void
RegionBuilder::paramRestrict(ParamId p)
{
    region_.mutableParam(p).isRestrict = true;
}

void
RegionBuilder::paramProvenanceViaParam(ParamId p, ParamId outer,
                                       int64_t offset)
{
    region_.mutableParam(p).provenance =
        ParamProvenance{false, outer, offset};
}

SymbolId
RegionBuilder::invocationSym()
{
    if (!haveInvocationSym_) {
        Symbol s;
        s.kind = SymKind::Invocation;
        s.name = "t";
        invocationSym_ = region_.addSymbol(std::move(s));
        haveInvocationSym_ = true;
    }
    return invocationSym_;
}

SymbolId
RegionBuilder::opaqueSym(const std::string &name, OpId producer,
                         uint64_t modulus, uint64_t scale, int64_t bias,
                         uint64_t seed)
{
    Symbol s;
    s.kind = SymKind::Opaque;
    s.name = name;
    s.producer = producer;
    s.opaqueSeed = seed;
    s.opaqueModulus = modulus;
    s.opaqueScale = scale;
    s.opaqueBias = bias;
    return region_.addSymbol(std::move(s));
}

OpId
RegionBuilder::constant(int64_t value, DataType t)
{
    Operation o;
    o.kind = OpKind::Const;
    o.dtype = t;
    o.imm = value;
    return region_.addOp(std::move(o));
}

OpId
RegionBuilder::liveIn(DataType t)
{
    Operation o;
    o.kind = OpKind::LiveIn;
    o.dtype = t;
    return region_.addOp(std::move(o));
}

OpId
RegionBuilder::binary(OpKind k, OpId a, OpId b, DataType t)
{
    Operation o;
    o.kind = k;
    o.dtype = t;
    o.operands = {a, b};
    return region_.addOp(std::move(o));
}

OpId
RegionBuilder::select(OpId cond, OpId a, OpId b)
{
    Operation o;
    o.kind = OpKind::Select;
    o.operands = {cond, a, b};
    return region_.addOp(std::move(o));
}

OpId
RegionBuilder::liveOut(OpId v)
{
    Operation o;
    o.kind = OpKind::LiveOut;
    o.operands = {v};
    return region_.addOp(std::move(o));
}

OpId
RegionBuilder::addMemOp(OpKind kind, AddrExpr addr, uint32_t size,
                        std::vector<OpId> operands, bool scratch,
                        DataType t)
{
    // Opaque symbols introduce a data dependence on their producer.
    auto add_producer = [&](SymbolId sid) {
        const Symbol &s = region_.symbol(sid);
        if (s.kind != SymKind::Opaque)
            return;
        for (OpId existing : operands) {
            if (existing == s.producer)
                return;
        }
        operands.push_back(s.producer);
    };
    if (addr.base.kind == BaseKind::Opaque)
        add_producer(addr.base.id);
    for (const auto &term : addr.terms)
        add_producer(term.sym);

    Operation o;
    o.kind = kind;
    o.dtype = t;
    o.operands = std::move(operands);
    MemAccess m;
    m.addr = std::move(addr);
    m.accessSize = size;
    m.scratchpad = scratch;
    m.memIndex = scratch ? kNoMemIndex : nextMemIndex_++;
    o.mem = std::move(m);
    return region_.addOp(std::move(o));
}

OpId
RegionBuilder::load(AddrExpr addr, uint32_t size,
                    std::vector<OpId> addr_deps, DataType t)
{
    return addMemOp(OpKind::Load, std::move(addr), size,
                    std::move(addr_deps), false, t);
}

OpId
RegionBuilder::store(AddrExpr addr, OpId data, uint32_t size,
                     std::vector<OpId> addr_deps)
{
    std::vector<OpId> operands;
    operands.push_back(data);
    for (OpId d : addr_deps)
        operands.push_back(d);
    return addMemOp(OpKind::Store, std::move(addr), size,
                    std::move(operands), false, DataType::I64);
}

OpId
RegionBuilder::scratchLoad(ObjectId local, int64_t offset, uint32_t size)
{
    NACHOS_ASSERT(region_.object(local).isLocal,
                  "scratchLoad needs a local object");
    return addMemOp(OpKind::Load, at(local, offset), size, {}, true,
                    DataType::I64);
}

OpId
RegionBuilder::scratchStore(ObjectId local, int64_t offset, OpId data,
                            uint32_t size)
{
    NACHOS_ASSERT(region_.object(local).isLocal,
                  "scratchStore needs a local object");
    return addMemOp(OpKind::Store, at(local, offset), size, {data}, true,
                    DataType::I64);
}

AddrExpr
RegionBuilder::at(ObjectId obj, int64_t offset) const
{
    AddrExpr a;
    a.base = {BaseKind::Object, obj};
    a.constOffset = offset;
    return a;
}

AddrExpr
RegionBuilder::atParam(ParamId p, int64_t offset) const
{
    AddrExpr a;
    a.base = {BaseKind::Param, p};
    a.constOffset = offset;
    return a;
}

AddrExpr
RegionBuilder::stream(ObjectId obj, int64_t stride_bytes, int64_t offset)
{
    AddrExpr a = at(obj, offset);
    a.terms.push_back({invocationSym(), stride_bytes});
    return a;
}

AddrExpr
RegionBuilder::at2d(ObjectId obj, int64_t row, int64_t col,
                    int64_t invocation_stride_bytes)
{
    const MemObject &o = region_.object(obj);
    NACHOS_ASSERT(o.shape.size() == 2, "at2d needs a 2-D object");
    AddrExpr a = at(obj, col * typeSize(o.elemType));
    a.terms.push_back({rowStrideSym(obj), row});
    if (invocation_stride_bytes != 0)
        a.terms.push_back({invocationSym(), invocation_stride_bytes});
    a.canonicalize();
    return a;
}

AddrExpr
RegionBuilder::at3d(ObjectId obj, int64_t plane, int64_t row,
                    int64_t col, int64_t invocation_stride_bytes)
{
    const MemObject &o = region_.object(obj);
    NACHOS_ASSERT(o.shape.size() == 3, "at3d needs a 3-D object");
    AddrExpr a = at(obj, col * typeSize(o.elemType));
    a.terms.push_back({dimStrideSym(obj, 0), plane});
    a.terms.push_back({dimStrideSym(obj, 1), row});
    if (invocation_stride_bytes != 0)
        a.terms.push_back({invocationSym(), invocation_stride_bytes});
    a.canonicalize();
    return a;
}

AddrExpr
RegionBuilder::opaque(SymbolId opaque_base, int64_t offset) const
{
    NACHOS_ASSERT(region_.symbol(opaque_base).kind == SymKind::Opaque,
                  "opaque() needs an opaque symbol");
    AddrExpr a;
    a.base = {BaseKind::Opaque, opaque_base};
    a.constOffset = offset;
    return a;
}

Region
RegionBuilder::build()
{
    region_.layoutObjects();
    region_.finalize();
    return std::move(region_);
}

} // namespace nachos
