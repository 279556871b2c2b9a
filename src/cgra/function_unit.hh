/**
 * @file
 * Function-unit timing and energy classification for the homogeneous
 * CGRA (paper Figure 3: INT 500 fJ, FP 1500 fJ).
 */

#ifndef NACHOS_CGRA_FUNCTION_UNIT_HH
#define NACHOS_CGRA_FUNCTION_UNIT_HH

#include <cstdint>

#include "ir/operation.hh"
#include "support/stats.hh"

namespace nachos {

/** Execution latency of a compute operation in cycles. */
uint32_t fuLatency(OpKind kind);

/** The energy event executing one op counts. */
enum class FuEvent : uint8_t { None, Int, Fp };

inline FuEvent
fuEvent(OpKind kind)
{
    if (kind == OpKind::Const || kind == OpKind::LiveIn ||
        kind == OpKind::LiveOut) {
        return FuEvent::None; // free: immediates and region boundary latches
    }
    return isFloatKind(kind) ? FuEvent::Fp : FuEvent::Int;
}

/**
 * Account the energy event for executing one compute op. Takes the
 * two counters directly so callers resolve the stat handles once
 * instead of per executed op.
 */
inline void
countFuExecution(OpKind kind, Counter &int_ops, Counter &fp_ops)
{
    switch (fuEvent(kind)) {
      case FuEvent::Int: int_ops.inc(); break;
      case FuEvent::Fp: fp_ops.inc(); break;
      case FuEvent::None: break;
    }
}

} // namespace nachos

#endif // NACHOS_CGRA_FUNCTION_UNIT_HH
