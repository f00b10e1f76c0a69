#include "src/baselines/base_util.h"

#include "src/common/timing.h"

namespace liteapp {

Status WriteVirt(Process* proc, VirtAddr addr, const void* src, uint64_t len) {
  // The baseline systems copy payloads between application and network
  // buffers (LITE's zero-copy design avoids exactly this); charge the memcpy.
  lt::SpinFor(lt::LocalCopyNs(len));
  auto ranges = proc->page_table().TranslateRange(proc->node()->id(), addr, len);
  if (!ranges.ok()) {
    return ranges.status();
  }
  const uint8_t* s = static_cast<const uint8_t*>(src);
  uint64_t off = 0;
  for (const lt::PhysRange& r : *ranges) {
    std::memcpy(proc->node()->mem().Data(r.addr, r.size), s + off, r.size);
    off += r.size;
  }
  return Status::Ok();
}

Status ReadVirt(Process* proc, VirtAddr addr, void* dst, uint64_t len) {
  lt::SpinFor(lt::LocalCopyNs(len));  // The copy, as in WriteVirt.
  auto ranges = proc->page_table().TranslateRange(proc->node()->id(), addr, len);
  if (!ranges.ok()) {
    return ranges.status();
  }
  uint8_t* d = static_cast<uint8_t*>(dst);
  uint64_t off = 0;
  for (const lt::PhysRange& r : *ranges) {
    std::memcpy(d + off, proc->node()->mem().Data(r.addr, r.size), r.size);
    off += r.size;
  }
  return Status::Ok();
}

StatusOr<RegisteredBuf> AllocRegistered(Process* proc, uint64_t len, uint32_t access) {
  auto addr = proc->page_table().AllocVirt(len);
  if (!addr.ok()) {
    return addr.status();
  }
  auto mr = proc->verbs().RegisterMr(*addr, len, access);
  if (!mr.ok()) {
    return mr.status();
  }
  RegisteredBuf buf;
  buf.addr = *addr;
  buf.mr = *mr;
  return buf;
}

}  // namespace liteapp
