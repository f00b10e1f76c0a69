#include "src/lite/client.h"

#include "src/common/timing.h"
#include "src/lite/ring.h"

namespace lite {

using lt::telemetry::AttrAdd;
using lt::telemetry::LatStage;
using lt::telemetry::ScopedOpAttr;

void LiteClient::EnterKernel() {
  if (kernel_level_) {
    return;
  }
  const uint64_t cross_t0 = lt::NowNs();
  if (naive_syscalls_) {
    // Unoptimized path: full trap in and out, plus the extra crossings of the
    // separate recv/reply syscalls (~0.9 us total per RPC, paper Sec. 5.2).
    instance_->node()->os().Syscall();
    instance_->node()->os().CrossUserKernel();
    AttrAdd(LatStage::kLatCross, lt::NowNs() - cross_t0);
    return;
  }
  // Optimized path: one user->kernel crossing; the return is hidden behind
  // the shared user/kernel page the LITE library spins on.
  instance_->node()->os().CrossUserKernel();
  AttrAdd(LatStage::kLatCross, lt::NowNs() - cross_t0);
}

LiteClient::DataPathBoundary::DataPathBoundary(LiteClient* client)
    : rings_(client->UseRings() ? client->instance_->rings() : nullptr) {
  if (rings_ != nullptr) {
    rings_->SyncEnter();
  } else {
    client->EnterKernel();
  }
}

LiteClient::DataPathBoundary::~DataPathBoundary() {
  if (rings_ != nullptr) {
    rings_->SyncExit();
  }
}

lt::telemetry::LatencyAttr* LiteClient::AttrSink() {
  return &instance_->node()->telemetry().latency();
}

StatusOr<Lh> LiteClient::Malloc(uint64_t size, const std::string& name,
                                const MallocOptions& options) {
  EnterKernel();
  return instance_->Malloc(size, name, options);
}

Status LiteClient::Free(Lh lh) {
  EnterKernel();
  return instance_->Free(lh);
}

StatusOr<Lh> LiteClient::Map(const std::string& name, uint32_t want_perm) {
  EnterKernel();
  return instance_->Map(name, want_perm);
}

Status LiteClient::Unmap(Lh lh) {
  EnterKernel();
  return instance_->Unmap(lh);
}

Status LiteClient::Read(Lh lh, uint64_t offset, void* buf, uint64_t len) {
  // Claim the op record before the boundary crossing so user-level ops book
  // the cross stage; the instance-level claim is then inert.
  ScopedOpAttr attr(AttrSink(), "read", len, static_cast<int>(priority_));
  DataPathBoundary boundary(this);
  return instance_->Read(lh, offset, buf, len, priority_);
}

StatusOr<MemopHandle> LiteClient::ReadAsync(Lh lh, uint64_t offset, void* buf, uint64_t len) {
  ScopedOpAttr attr(AttrSink(), "aread", len, static_cast<int>(priority_));
  if (UseRings()) {
    // Deferred submission: the descriptor parks in this CPU's ring (no
    // crossing); the kernel half drains a whole batch per doorbell.
    return instance_->rings()->SubmitAsync(lh, offset, buf, len, /*is_read=*/true, priority_);
  }
  EnterKernel();
  return instance_->ReadAsync(lh, offset, buf, len, priority_);
}

StatusOr<MemopHandle> LiteClient::WriteAsync(Lh lh, uint64_t offset, const void* buf,
                                             uint64_t len) {
  ScopedOpAttr attr(AttrSink(), "awrite", len, static_cast<int>(priority_));
  if (UseRings()) {
    return instance_->rings()->SubmitAsync(lh, offset, const_cast<void*>(buf), len,
                                           /*is_read=*/false, priority_);
  }
  EnterKernel();
  return instance_->WriteAsync(lh, offset, buf, len, priority_);
}

StatusOr<bool> LiteClient::Poll(MemopHandle h) {
  if (UseRings()) {
    // Reaping reads the shared completion ring: crossing-free. The handle
    // must be registered first, so its deferred batch (if any) drains now.
    instance_->rings()->FlushHandle(h);
    return instance_->Poll(h);
  }
  EnterKernel();
  return instance_->Poll(h);
}

Status LiteClient::Wait(MemopHandle h) {
  if (UseRings()) {
    SubmissionRings* rings = instance_->rings();
    rings->FlushHandle(h);
    const uint64_t wait_t0 = lt::NowNs();
    Status s = instance_->Wait(h);
    rings->AccountReap(lt::NowNs() - wait_t0);
    return s;
  }
  // Blocking fallback: the shared completion flag shows an already-done op
  // without entering the kernel; the crossing is paid once per sleep cycle
  // (stamped into kLatCross by EnterKernel), not per poll iteration.
  if (naive_syscalls_ || !instance_->AsyncHandleReady(h)) {
    EnterKernel();
  }
  return instance_->Wait(h);
}

Status LiteClient::WaitAll(std::vector<std::pair<MemopHandle, Status>>* results) {
  if (UseRings()) {
    SubmissionRings* rings = instance_->rings();
    rings->FlushAll();
    const uint64_t wait_t0 = lt::NowNs();
    Status s = instance_->WaitAll(results);
    rings->AccountReap(lt::NowNs() - wait_t0);
    return s;
  }
  if (naive_syscalls_ || !instance_->AsyncAllReady()) {
    EnterKernel();
  }
  return instance_->WaitAll(results);
}

Status LiteClient::Write(Lh lh, uint64_t offset, const void* buf, uint64_t len) {
  ScopedOpAttr attr(AttrSink(), "write", len, static_cast<int>(priority_));
  DataPathBoundary boundary(this);
  return instance_->Write(lh, offset, buf, len, priority_);
}

Status LiteClient::Memset(Lh lh, uint64_t offset, uint8_t value, uint64_t len) {
  ScopedOpAttr attr(AttrSink(), "memset", len, static_cast<int>(priority_));
  DataPathBoundary boundary(this);
  return instance_->Memset(lh, offset, value, len, priority_);
}

Status LiteClient::Memcpy(Lh dst, uint64_t dst_off, Lh src, uint64_t src_off, uint64_t len) {
  ScopedOpAttr attr(AttrSink(), "memcpy", len, static_cast<int>(priority_));
  DataPathBoundary boundary(this);
  return instance_->Memcpy(dst, dst_off, src, src_off, len, priority_);
}

Status LiteClient::Memmove(Lh dst, uint64_t dst_off, Lh src, uint64_t src_off, uint64_t len) {
  ScopedOpAttr attr(AttrSink(), "memcpy", len, static_cast<int>(priority_));
  DataPathBoundary boundary(this);
  return instance_->Memmove(dst, dst_off, src, src_off, len, priority_);
}

Status LiteClient::RegisterRpc(RpcFuncId func) {
  EnterKernel();
  return instance_->RegisterRpc(func);
}

Status LiteClient::Rpc(NodeId server, RpcFuncId func, const void* in, uint32_t in_len, void* out,
                       uint32_t out_max, uint32_t* out_len) {
  ScopedOpAttr attr(AttrSink(), "rpc", in_len, static_cast<int>(priority_));
  DataPathBoundary boundary(this);
  return instance_->Rpc(server, func, in, in_len, out, out_max, out_len, priority_);
}

Status LiteClient::MulticastRpc(const std::vector<NodeId>& servers, RpcFuncId func, const void* in,
                                uint32_t in_len, std::vector<std::vector<uint8_t>>* replies) {
  DataPathBoundary boundary(this);
  return instance_->MulticastRpc(servers, func, in, in_len, replies);
}

StatusOr<RpcIncoming> LiteClient::RecvRpc(RpcFuncId func, uint64_t timeout_ns) {
  EnterKernel();
  return instance_->RecvRpc(func, timeout_ns);
}

Status LiteClient::ReplyRpc(const ReplyToken& token, const void* data, uint32_t len) {
  EnterKernel();
  return instance_->ReplyRpc(token, data, len);
}

StatusOr<RpcIncoming> LiteClient::ReplyAndRecv(const ReplyToken& token, const void* data,
                                               uint32_t len, RpcFuncId func, uint64_t timeout_ns) {
  // The combined API exists precisely to pay ONE boundary crossing for both
  // the reply and the next receive (paper Sec. 5.2).
  EnterKernel();
  return instance_->ReplyAndRecv(token, data, len, func, timeout_ns);
}

Status LiteClient::SendMsg(NodeId dst, const void* data, uint32_t len) {
  DataPathBoundary boundary(this);
  return instance_->SendMsg(dst, data, len, priority_);
}

StatusOr<MsgIncoming> LiteClient::RecvMsg(uint64_t timeout_ns) {
  EnterKernel();
  return instance_->RecvMsg(timeout_ns);
}

StatusOr<uint64_t> LiteClient::FetchAdd(Lh lh, uint64_t offset, uint64_t delta) {
  ScopedOpAttr attr(AttrSink(), "atomic", 8, static_cast<int>(Priority::kHigh));
  DataPathBoundary boundary(this);
  return instance_->FetchAdd(lh, offset, delta);
}

StatusOr<uint64_t> LiteClient::TestSet(Lh lh, uint64_t offset, uint64_t expected,
                                       uint64_t desired) {
  ScopedOpAttr attr(AttrSink(), "atomic", 8, static_cast<int>(Priority::kHigh));
  DataPathBoundary boundary(this);
  return instance_->TestSet(lh, offset, expected, desired);
}

StatusOr<LockId> LiteClient::CreateLock(const std::string& name) {
  EnterKernel();
  return instance_->CreateLock(name);
}

StatusOr<LockId> LiteClient::OpenLock(const std::string& name) {
  EnterKernel();
  return instance_->OpenLock(name);
}

Status LiteClient::Lock(const LockId& lock) {
  EnterKernel();
  return instance_->Lock(lock);
}

Status LiteClient::Unlock(const LockId& lock) {
  EnterKernel();
  return instance_->Unlock(lock);
}

Status LiteClient::Barrier(const std::string& name, uint32_t expected) {
  EnterKernel();
  return instance_->Barrier(name, expected);
}

Status LiteClient::Migrate(const std::string& name, NodeId new_home,
                           LiteInstance::MigrateStats* stats) {
  EnterKernel();
  return instance_->Migrate(name, new_home, stats);
}

Status LiteClient::DrainNode(NodeId victim, uint64_t* moved) {
  EnterKernel();
  return instance_->DrainNode(victim, moved);
}

}  // namespace lite
