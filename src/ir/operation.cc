#include "ir/operation.hh"

#include "support/logging.hh"

namespace nachos {

const char *
opKindName(OpKind k)
{
    switch (k) {
      case OpKind::Const: return "const";
      case OpKind::LiveIn: return "livein";
      case OpKind::IAdd: return "iadd";
      case OpKind::ISub: return "isub";
      case OpKind::IMul: return "imul";
      case OpKind::IXor: return "ixor";
      case OpKind::IAnd: return "iand";
      case OpKind::IOr: return "ior";
      case OpKind::IShl: return "ishl";
      case OpKind::ICmp: return "icmp";
      case OpKind::Select: return "select";
      case OpKind::FAdd: return "fadd";
      case OpKind::FMul: return "fmul";
      case OpKind::FDiv: return "fdiv";
      case OpKind::Load: return "load";
      case OpKind::Store: return "store";
      case OpKind::LiveOut: return "liveout";
    }
    return "?";
}

int64_t
evalCompute(OpKind k, int64_t a, int64_t b)
{
    // Arithmetic is modeled on the int64 bit pattern; FP kinds use
    // integer surrogates (the simulator validates ordering, not
    // numerics, and surrogate arithmetic keeps results deterministic).
    switch (k) {
      case OpKind::IAdd:
      case OpKind::FAdd:
        return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                    static_cast<uint64_t>(b));
      case OpKind::ISub:
        return static_cast<int64_t>(static_cast<uint64_t>(a) -
                                    static_cast<uint64_t>(b));
      case OpKind::IMul:
      case OpKind::FMul:
        return static_cast<int64_t>(static_cast<uint64_t>(a) *
                                    static_cast<uint64_t>(b));
      case OpKind::FDiv:
        // INT64_MIN / -1 overflows; it wraps like the other kinds.
        if (b == 0)
            return 0;
        if (b == -1)
            return static_cast<int64_t>(-static_cast<uint64_t>(a));
        return a / b;
      case OpKind::IXor:
        return a ^ b;
      case OpKind::IAnd:
        return a & b;
      case OpKind::IOr:
        return a | b;
      case OpKind::IShl:
        return static_cast<int64_t>(static_cast<uint64_t>(a)
                                    << (static_cast<uint64_t>(b) & 63));
      case OpKind::ICmp:
        return a < b ? 1 : 0;
      default:
        NACHOS_PANIC("evalCompute on non-binary op ", opKindName(k));
    }
}

} // namespace nachos
