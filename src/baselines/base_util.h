// Shared plumbing for the re-implemented comparator systems (HERD, FaSST,
// send/recv RPC). These run on the *native Verbs* path — registered
// virtual-memory MRs, their own QPs/CQs and polling threads — with no LITE
// involvement, exactly like the paper's baselines.
#ifndef SRC_BASELINES_BASE_UTIL_H_
#define SRC_BASELINES_BASE_UTIL_H_

#include <cstdint>
#include <cstring>
#include <functional>

#include "src/common/status.h"
#include "src/node/node.h"

namespace liteapp {

using lt::NodeId;
using lt::Process;
using lt::Status;
using lt::StatusOr;
using lt::VirtAddr;

// Request handler: consumes `in`, produces up to `out_max` bytes in `out`,
// returns the reply length.
using RpcHandler =
    std::function<uint32_t(const uint8_t* in, uint32_t in_len, uint8_t* out, uint32_t out_max)>;

// Copies host memory into a process's virtual memory (through its page
// table), page fragment by page fragment.
Status WriteVirt(Process* proc, VirtAddr addr, const void* src, uint64_t len);

// Copies a process's virtual memory out to host memory.
Status ReadVirt(Process* proc, VirtAddr addr, void* dst, uint64_t len);

// Allocates + registers a virtual-memory buffer in one step.
struct RegisteredBuf {
  VirtAddr addr = 0;
  lt::VerbsMr mr;
};
StatusOr<RegisteredBuf> AllocRegistered(Process* proc, uint64_t len, uint32_t access);

}  // namespace liteapp

#endif  // SRC_BASELINES_BASE_UTIL_H_
