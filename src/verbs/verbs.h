// Native Verbs — the user-level RDMA interface LITE's baselines use.
//
// Mirrors the ibv_* workflow from the paper's Sec. 2.1: register an MR (by
// virtual address: pays per-page pinning, puts per-page translation pressure
// on the RNIC), exchange rkeys out of band, create/connect QPs, post work
// requests, poll CQs. A thin synchronous helper (ExecSync) implements the
// blocking post+poll pattern the microbenchmarks measure.
#ifndef SRC_VERBS_VERBS_H_
#define SRC_VERBS_VERBS_H_

#include <atomic>
#include <cstdint>

#include "src/common/status.h"
#include "src/mem/page_table.h"
#include "src/oss/os_kernel.h"
#include "src/rnic/rnic.h"

namespace lt {

// Fixed driver/firmware cost of registering and deregistering one MR, on top
// of the syscall and the per-page (un)pinning.
inline constexpr uint64_t kMrRegisterBaseNs = 2500;
inline constexpr uint64_t kMrDeregisterBaseNs = 1800;

struct VerbsMr {
  uint32_t lkey = 0;
  uint32_t rkey = 0;
  VirtAddr addr = 0;
  uint64_t length = 0;
};

// One Verbs context per (node, process). Not tied to LITE in any way: this is
// the kernel-bypass path.
class VerbsContext {
 public:
  VerbsContext(Rnic* rnic, OsKernel* os, PageTable* pt) : rnic_(rnic), os_(os), pt_(pt) {}

  // Registers [addr, addr+length) as an MR. Charges the pinning cost the
  // paper measures in Fig. 8.
  StatusOr<VerbsMr> RegisterMr(VirtAddr addr, uint64_t length, uint32_t access);
  Status DeregisterMr(const VerbsMr& mr);

  Cq* CreateCq() { return rnic_->CreateCq(); }
  Qp* CreateQp(QpType type, Cq* send_cq, Cq* recv_cq) {
    return rnic_->CreateQp(type, send_cq, recv_cq);
  }

  Status PostSend(Qp* qp, const WorkRequest& wr) { return rnic_->PostSend(qp, wr); }
  Status PostRecv(Qp* qp, const Rqe& rqe) { return qp->PostRecv(rqe); }

  // Posts `wr` signaled, takes its completion off the QP's send CQ and
  // busy-polls until the completion's ready time.
  Status ExecSync(Qp* qp, WorkRequest wr);

  Rnic* rnic() const { return rnic_; }
  OsKernel* os() const { return os_; }
  PageTable* page_table() const { return pt_; }

 private:
  Rnic* const rnic_;
  OsKernel* const os_;
  PageTable* const pt_;
  std::atomic<uint64_t> next_wr_id_{1};
};

}  // namespace lt

#endif  // SRC_VERBS_VERBS_H_
