// The scalar backend: the reference loops themselves. Always compiled,
// always available — the fallback every other backend must match bit for
// bit and the backend the RPC_SIMD_BACKEND=scalar CI leg forces.
#include "curve/simd_backend.h"
#include "curve/simd_backend_ref.h"

namespace rpc::curve {

namespace {

constexpr SimdOps kScalarOps = {
    SimdBackendKind::kScalar,
    "scalar",
    &internal::RefTileSquaredDistancesFused,
    &internal::RefTileSquaredDistancesSeq,
    &internal::RefPowerSquaredDistanceFused,
    &internal::RefGoldenRefineMulti,
    1,
};

}  // namespace

const SimdOps* ScalarSimdOps() { return &kScalarOps; }

}  // namespace rpc::curve
