#include "src/verbs/verbs.h"

#include "src/common/timing.h"

namespace lt {

StatusOr<VerbsMr> VerbsContext::RegisterMr(VirtAddr addr, uint64_t length, uint32_t access) {
  // Registration is a syscall into the driver...
  os_->Syscall();
  // ...that pins every page of the region (get_user_pages)...
  os_->PinPages(pt_->PagesSpanned(addr, length));
  // ...and installs the MR in the NIC's MPT/MTT host tables.
  SpinFor(kMrRegisterBaseNs);

  auto entry = rnic_->RegisterMrVirtual(pt_, addr, length, access);
  if (!entry.ok()) {
    return entry.status();
  }
  VerbsMr mr;
  mr.lkey = entry->lkey;
  mr.rkey = entry->lkey;
  mr.addr = addr;
  mr.length = length;
  return mr;
}

Status VerbsContext::DeregisterMr(const VerbsMr& mr) {
  os_->Syscall();
  os_->UnpinPages(pt_->PagesSpanned(mr.addr, mr.length));
  SpinFor(kMrDeregisterBaseNs);
  return rnic_->DeregisterMr(mr.lkey);
}

Status VerbsContext::ExecSync(Qp* qp, WorkRequest wr, uint64_t timeout_ns) {
  if (wr.wr_id == 0) {
    wr.wr_id = next_wr_id_.fetch_add(1);
  }
  LT_RETURN_IF_ERROR(rnic_->PostSend(qp, wr));
  // Busy-poll the send CQ for our completion (the blocking Verbs pattern the
  // paper's microbenchmarks measure).
  auto c = qp->send_cq()->WaitPollFor(wr.wr_id, timeout_ns, WaitMode::kBusyPoll);
  if (!c.has_value()) {
    return Status::Timeout("ExecSync: no completion before deadline");
  }
  return c->status;
}

}  // namespace lt
