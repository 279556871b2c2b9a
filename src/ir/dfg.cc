#include "ir/dfg.hh"

#include <algorithm>

#include "support/logging.hh"

namespace nachos {

ObjectId
Region::addObject(MemObject obj)
{
    NACHOS_ASSERT(!finalized_, "addObject after finalize");
    obj.id = static_cast<ObjectId>(objects_.size());
    objects_.push_back(std::move(obj));
    return objects_.back().id;
}

ParamId
Region::addParam(PointerParam param)
{
    NACHOS_ASSERT(!finalized_, "addParam after finalize");
    param.id = static_cast<ParamId>(params_.size());
    params_.push_back(std::move(param));
    return params_.back().id;
}

SymbolId
Region::addSymbol(Symbol sym)
{
    NACHOS_ASSERT(!finalized_, "addSymbol after finalize");
    sym.id = static_cast<SymbolId>(symbols_.size());
    symbols_.push_back(std::move(sym));
    return symbols_.back().id;
}

OpId
Region::addOp(Operation op)
{
    NACHOS_ASSERT(!finalized_, "addOp after finalize");
    op.id = static_cast<OpId>(ops_.size());
    if (op.mem)
        op.mem->addr.canonicalize();
    ops_.push_back(std::move(op));
    return ops_.back().id;
}

const MemObject &
Region::object(ObjectId id) const
{
    NACHOS_ASSERT(id < objects_.size(), "object id out of range");
    return objects_[id];
}

const PointerParam &
Region::param(ParamId id) const
{
    NACHOS_ASSERT(id < params_.size(), "param id out of range");
    return params_[id];
}

PointerParam &
Region::mutableParam(ParamId id)
{
    NACHOS_ASSERT(id < params_.size(), "param id out of range");
    return params_[id];
}

const Symbol &
Region::symbol(SymbolId id) const
{
    NACHOS_ASSERT(id < symbols_.size(), "symbol id out of range");
    return symbols_[id];
}

size_t
Region::numMemOps() const
{
    size_t n = 0;
    for (const auto &o : ops_)
        n += (o.isMem() && o.mem->disambiguated()) ? 1 : 0;
    return n;
}

size_t
Region::numScratchpadOps() const
{
    size_t n = 0;
    for (const auto &o : ops_)
        n += (o.isMem() && o.mem->scratchpad) ? 1 : 0;
    return n;
}

size_t
Region::numFloatOps() const
{
    size_t n = 0;
    for (const auto &o : ops_)
        n += isFloatKind(o.kind) ? 1 : 0;
    return n;
}

void
Region::verify() const
{
    uint32_t next_mem_index = 0;
    for (const auto &o : ops_) {
        for (OpId src : o.operands) {
            NACHOS_ASSERT(src < o.id,
                          "operand must precede its user in a "
                          "straight-line path: op ",
                          o.id, " uses ", src);
            NACHOS_ASSERT(producesValue(ops_[src].kind),
                          "operand op produces no value: op ", o.id,
                          " uses ", opKindName(ops_[src].kind));
        }
        NACHOS_ASSERT(o.isMem() == o.mem.has_value(),
                      "mem attributes iff memory op (op ", o.id, ")");
        if (o.kind == OpKind::Store) {
            NACHOS_ASSERT(!o.operands.empty(),
                          "store needs a data operand (op ", o.id, ")");
        }
        if (!o.isMem()) {
            // Evaluation reads exactly these operand slots.
            const size_t n = o.operands.size();
            bool ok = n == 2; // the binary compute kinds
            switch (o.kind) {
              case OpKind::Const:
              case OpKind::LiveIn:
                ok = n == 0;
                break;
              case OpKind::LiveOut:
                ok = n == 1;
                break;
              case OpKind::Select:
                ok = n == 1 || n == 3;
                break;
              default:
                break;
            }
            NACHOS_ASSERT(ok, "wrong operand count for ",
                          opKindName(o.kind), ": op ", o.id, " has ", n);
            continue;
        }

        const MemAccess &m = *o.mem;
        NACHOS_ASSERT(m.accessSize > 0 && m.accessSize <= 64,
                      "unreasonable access size on op ", o.id);
        if (m.disambiguated()) {
            NACHOS_ASSERT(m.memIndex == next_mem_index,
                          "memIndex must be dense program order: op ",
                          o.id, " has ", m.memIndex, " want ",
                          next_mem_index);
            ++next_mem_index;
        }

        // Address expression referential integrity.
        const AddrExpr &a = m.addr;
        switch (a.base.kind) {
          case BaseKind::Object:
            NACHOS_ASSERT(a.base.id < objects_.size(),
                          "dangling object base on op ", o.id);
            NACHOS_ASSERT(objects_[a.base.id].isLocal == m.scratchpad,
                          "scratchpad flag must match object locality "
                          "(op ", o.id, ")");
            break;
          case BaseKind::Param:
            NACHOS_ASSERT(a.base.id < params_.size(),
                          "dangling param base on op ", o.id);
            NACHOS_ASSERT(params_[a.base.id].actualObject <
                              objects_.size(),
                          "param ground truth missing on op ", o.id);
            break;
          case BaseKind::Opaque:
            NACHOS_ASSERT(a.base.id < symbols_.size() &&
                              symbols_[a.base.id].kind == SymKind::Opaque,
                          "opaque base must name an opaque symbol (op ",
                          o.id, ")");
            break;
        }
        for (const auto &t : a.terms) {
            NACHOS_ASSERT(t.sym < symbols_.size(),
                          "dangling symbol on op ", o.id);
        }
    }
}

Region &
Region::finalize()
{
    NACHOS_ASSERT(!finalized_, "double finalize");
    verify();

    users_.assign(ops_.size(), {});
    for (const auto &o : ops_) {
        for (OpId src : o.operands)
            users_[src].push_back(o.id);
    }
    // An op using the same value in several operand slots appears once
    // per slot above; keep each user once (delivery fans out per slot).
    for (auto &list : users_) {
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
    }

    memOps_.clear();
    for (const auto &o : ops_) {
        if (o.isMem() && o.mem->disambiguated())
            memOps_.push_back(o.id);
    }

    finalized_ = true;
    return *this;
}

uint64_t
Region::evalAddr(OpId id, uint64_t invocation) const
{
    const Operation &o = op(id);
    NACHOS_ASSERT(o.isMem(), "evalAddr on non-memory op ", id);
    const AddrExpr &a = o.mem->addr;

    int64_t addr = a.constOffset;
    switch (a.base.kind) {
      case BaseKind::Object:
        addr += static_cast<int64_t>(object(a.base.id).baseAddr);
        break;
      case BaseKind::Param: {
        const PointerParam &p = param(a.base.id);
        addr += static_cast<int64_t>(object(p.actualObject).baseAddr) +
                p.actualOffset;
        break;
      }
      case BaseKind::Opaque:
        addr += opaqueValue(symbol(a.base.id), invocation);
        break;
    }

    for (const auto &t : a.terms) {
        const Symbol &s = symbol(t.sym);
        switch (s.kind) {
          case SymKind::Invocation:
            addr += t.coeff * static_cast<int64_t>(invocation);
            break;
          case SymKind::DimStride:
            addr += t.coeff * static_cast<int64_t>(s.strideBytes);
            break;
          case SymKind::Opaque:
            addr += t.coeff * opaqueValue(s, invocation);
            break;
        }
    }
    NACHOS_ASSERT(addr >= 0, "negative ground-truth address on op ", id);
    return static_cast<uint64_t>(addr);
}

void
Region::layoutObjects(uint64_t start, uint64_t guard)
{
    uint64_t cursor = start;
    for (auto &obj : objects_) {
        obj.baseAddr = cursor;
        cursor += obj.size + guard;
        // Keep line-friendly alignment for the cache model.
        cursor = (cursor + 63) & ~uint64_t{63};
    }
}

} // namespace nachos
