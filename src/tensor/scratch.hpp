// Thread-local scratch buffers for hot-path workspaces (GEMM panel packing,
// padded conv inputs, the backward im2col matrices, conv gradient staging).
//
// Buffers grow monotonically and are reused across calls, so a steady-state
// forward/backward pass performs no heap allocation. Each slot is one buffer
// per thread; callers that need several live workspaces at once (e.g. conv
// backward holds columns + gathered grads + column grads while GEMM packs
// panels underneath) take distinct slots from the fixed map below.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hdczsc::tensor {

/// Fixed slot assignments. Slots may be held live simultaneously, so every
/// concurrent consumer gets its own id; GEMM pack slots are distinct from the
/// conv slots because conv calls GEMM while its workspaces are live.
enum ScratchSlot : std::size_t {
  kScratchGemmPackA = 0,  ///< per-thread packed A panel (one per GEMM block task)
  kScratchGemmPackB = 1,  ///< per-thread packed B panel (one per GEMM block task)
  kScratchConvCols = 2,   ///< padded conv input (float and u8 forward) / im2col (backward)
  kScratchConvOut = 3,    ///< conv backward gathered grads / an int8 conv task's s32 block
  kScratchConvDCols = 4,  ///< conv backward column-gradient matrix
  kScratchGeneric = 5,    ///< unassigned general-purpose workspace
  kScratchSlots = 6
};

/// Return a thread-local float buffer with room for at least `count`
/// elements, growing it if needed. Contents are unspecified (not zeroed);
/// the pointer stays valid until the same slot is requested with a larger
/// count on the same thread.
float* scratch_f32(std::size_t slot, std::size_t count);

/// Byte-typed and s32-typed variants for the int8 quantized path (packed
/// int8 GEMM panels, the quantized conv input, s32 accumulator blocks). Each
/// element type owns an independent per-thread pool, so the same slot id
/// can be live in scratch_f32 and scratch_u8 at once — slot ids only
/// collide within one type. Same growth/validity contract as scratch_f32.
std::uint8_t* scratch_u8(std::size_t slot, std::size_t count);
std::int32_t* scratch_i32(std::size_t slot, std::size_t count);

/// Process-wide number of scratch grow events (allocations) since start.
/// Steady-state hot loops must keep this constant — asserted in tests.
std::size_t scratch_grow_count();

}  // namespace hdczsc::tensor
