// Asynchronous memop facade: the LT_read_async / LT_write_async entry points
// and the ring drain's deferred memops. The prologue (op record claim, then
// ResolveLhs) happens here; the registration, posting, selective signaling,
// window backpressure and retirement all live in the op engine
// (op_engine.cc), shared with the blocking multi-piece path.
#include <cstdint>

#include "src/common/logging.h"
#include "src/common/timing.h"
#include "src/lite/instance.h"
#include "src/lite/ring.h"

namespace lite {

using lt::SpinFor;

StatusOr<MemopHandle> LiteInstance::ReadAsync(Lh lh, uint64_t offset, void* buf, uint64_t len,
                                              Priority pri) {
  return IssueAsyncMemop(lh, offset, buf, len, pri, /*is_read=*/true);
}

StatusOr<MemopHandle> LiteInstance::WriteAsync(Lh lh, uint64_t offset, const void* buf,
                                               uint64_t len, Priority pri) {
  return IssueAsyncMemop(lh, offset, const_cast<void*>(buf), len, pri, /*is_read=*/false);
}

StatusOr<MemopHandle> LiteInstance::IssueAsyncMemop(Lh lh, uint64_t offset, void* buf,
                                                    uint64_t len, Priority pri, bool is_read) {
  lt::telemetry::ScopedOpAttr attr(&node_->telemetry().latency(), is_read ? "aread" : "awrite",
                                   len, static_cast<int>(pri));
  LhRef entry;
  LT_RETURN_IF_ERROR(ResolveLhs({{lh, offset, len, is_read ? kPermRead : kPermWrite, &entry}}));
  // The origin tuple lets the engine transparently re-resolve and re-issue
  // the whole memop if it retires with kStaleHome (LMR migrated mid-flight).
  return engine_.IssueAsyncPieces(SliceDescs(entry->chunks, offset, len, buf), is_read, pri, lh,
                                  offset, buf, len);
}

void LiteInstance::ExecuteDeferredAsync(RingDeferredOp& op, RingDrainCache* cache) {
  // Stamps during the drain land on the op's own detached record; the
  // engine takes it over (or commits it) when it registers the op.
  lt::telemetry::AttrAdoptScope adopt(&op.attr);
  const uint64_t submit_t0 = lt::NowNs();
  // The authoritative map check is paid once per distinct lh per drain
  // batch — the whole batch entered the kernel together, so the lookup
  // amortizes like the crossing does.
  if (!cache->valid || cache->lh != op.lh) {
    SpinFor(kMapCheckNs);
    auto entry = GetLh(op.lh);
    if (!entry.ok()) {
      // The lh died between enqueue and drain: fail the reserved handle.
      engine_.InsertFailedHandle(op.handle, entry.status());
      return;
    }
    cache->valid = true;
    cache->lh = op.lh;
    cache->entry = *entry;
  }
  Status perm =
      CheckAccess(*cache->entry, op.offset, op.len, op.is_read ? kPermRead : kPermWrite);
  if (!perm.ok()) {
    engine_.InsertFailedHandle(op.handle, perm);
    return;
  }
  lt::telemetry::AttrAdd(lt::telemetry::LatStage::kLatSubmit, lt::NowNs() - submit_t0);
  engine_.IssueAsyncPieces(SliceDescs(cache->entry->chunks, op.offset, op.len, op.buf), op.is_read,
                           op.pri, op.lh, op.offset, op.buf, op.len, op.handle);
}

}  // namespace lite
