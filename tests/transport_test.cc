// Transport virtualization (DESIGN.md §10): the pluggable RC/DC layer behind
// the op engine. Covers QpManager handle validation (bounds, holes, empty
// pools), the DC bounded pool's attach/detach/steal state machine and
// per-destination affinity, the lite_dc_connect_ns re-target charge,
// RC-vs-DC functional parity on data ops, O(pool)-vs-O(peers) QP state, and
// the transport-mode tag journaled by errored-QP recovery.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/timing.h"
#include "src/lite/dc_transport.h"
#include "src/lite/lite_cluster.h"
#include "src/lite/qp_manager.h"
#include "src/lite/qos.h"
#include "src/node/node.h"

namespace lite {
namespace {

lt::SimParams DcParams(lt::SimParams base) {
  base.lite_transport = lt::LiteTransport::kDc;
  return base;
}

std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 13);
  }
  return v;
}

// Extracts the `b` arguments of every qp_recover event in a DumpJournal()
// timeline. b packs (transport mode << 32) | qpn — see Transport::RecoverQp.
std::vector<uint64_t> QpRecoverArgs(const std::string& journal_json) {
  std::vector<uint64_t> out;
  const std::string needle = "\"ev\":\"qp_recover\"";
  size_t pos = 0;
  while ((pos = journal_json.find(needle, pos)) != std::string::npos) {
    size_t bpos = journal_json.find("\"b\":", pos);
    if (bpos == std::string::npos) break;
    out.push_back(std::strtoull(journal_json.c_str() + bpos + 4, nullptr, 10));
    pos = bpos;
  }
  return out;
}

// ------------------------------------------------------- RC handle validity

TEST(QpManagerTest, ValidChecksBoundsHolesAndEmptyPools) {
  lt::SimParams p;
  ASSERT_GE(p.lite_qp_sharing_factor, 2);
  lt::Cluster cluster(3, p);
  QosManager qos(p);
  QpManager qm(cluster.node(0), &qos);
  lt::Cq* recv = cluster.node(0)->rnic().CreateCq();
  // Node 1 is connected; node 0 (self) and node 2 are not.
  qm.Setup({false, true, false}, recv);
  EXPECT_EQ(qm.TotalQps(), static_cast<size_t>(p.lite_qp_sharing_factor));

  TransportHandle good = qm.Lease(1, Priority::kHigh);
  EXPECT_TRUE(qm.Valid(good));
  EXPECT_NE(qm.Qp(good), nullptr);

  // Unconnected destination: Lease hands back slot -1, Valid rejects it.
  EXPECT_FALSE(qm.Valid(qm.Lease(2, Priority::kHigh)));
  EXPECT_FALSE(qm.Valid(qm.Lease(0, Priority::kHigh)));
  // Forged handles: destination out of range, slot out of range / negative.
  EXPECT_FALSE(qm.Valid(TransportHandle{7, 0}));
  EXPECT_FALSE(qm.Valid(TransportHandle{1, p.lite_qp_sharing_factor}));
  EXPECT_FALSE(qm.Valid(TransportHandle{1, -1}));
  // A hole in the pool (dead QP unplugged) must invalidate exactly that slot.
  qm.DropQpForTest(1, 0);
  EXPECT_FALSE(qm.Valid(TransportHandle{1, 0}));
  EXPECT_TRUE(qm.Valid(TransportHandle{1, 1}));
  EXPECT_EQ(qm.PoolQp(1, 0), nullptr);
  EXPECT_NE(qm.PoolQp(1, 1), nullptr);
}

TEST(QpManagerTest, StickySelectionRespectsSaltAndRotation) {
  lt::SimParams p;
  p.lite_qp_sharing_factor = 4;
  lt::Cluster cluster(2, p);
  QosManager qos(p);
  QpManager qm(cluster.node(0), &qos);
  qm.Setup({false, true}, cluster.node(0)->rnic().CreateCq());

  // Sticky is stable within a thread: same slot on every pick.
  const int first = qm.PickQpIndexSticky(1, Priority::kHigh);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(qm.PickQpIndexSticky(1, Priority::kHigh), first);
  }
  // Round-robin covers the whole band.
  std::vector<bool> seen(4, false);
  for (int i = 0; i < 8; ++i) {
    seen[qm.PickQpIndex(1, Priority::kHigh)] = true;
  }
  EXPECT_EQ(seen, std::vector<bool>(4, true));
}

// ------------------------------------------- DC pool: attach/steal/affinity

TEST(DcTransportTest, BoundedPoolAttachesStealsAndKeepsAffinity) {
  lt::SimParams p;
  p.lite_transport = lt::LiteTransport::kDc;
  p.lite_dc_qp_pool = 2;
  p.lite_dc_connect_ns = 700;
  lt::Cluster cluster(4, p);
  QosManager qos(p);
  DcTransport dc(cluster.node(0), &qos);
  dc.Setup({false, true, true, true}, cluster.node(0)->rnic().CreateCq());
  // Bounded: 2 initiators + 1 target, regardless of peer count.
  EXPECT_EQ(dc.TotalQps(), 3u);
  EXPECT_NE(dc.TargetQpn(), 0u);

  // Self and out-of-range destinations never lease.
  EXPECT_FALSE(dc.Valid(dc.Lease(0, Priority::kHigh)));
  EXPECT_FALSE(dc.Valid(TransportHandle{9, 0}));
  EXPECT_FALSE(dc.Valid(TransportHandle{1, 2}));
  EXPECT_FALSE(dc.Valid(TransportHandle{1, -1}));

  // First two destinations claim the two slots; attach happens in Prepare
  // under the slot mutex and charges lite_dc_connect_ns of virtual time.
  TransportHandle h1 = dc.Lease(1, Priority::kHigh);
  ASSERT_TRUE(dc.Valid(h1));
  {
    std::lock_guard<std::mutex> lock(dc.Mu(h1));
    const uint64_t t0 = lt::NowNs();
    EXPECT_FALSE(dc.Prepare(h1));  // No error recovery, just an attach.
    EXPECT_GE(lt::NowNs() - t0, p.lite_dc_connect_ns);
  }
  EXPECT_EQ(dc.attaches(), 1u);
  EXPECT_EQ(dc.Qp(h1)->remote_node(), 1u);

  TransportHandle h2 = dc.Lease(2, Priority::kHigh);
  ASSERT_TRUE(dc.Valid(h2));
  EXPECT_NE(h2.slot, h1.slot);
  {
    std::lock_guard<std::mutex> lock(dc.Mu(h2));
    dc.Prepare(h2);
  }
  EXPECT_EQ(dc.attaches(), 2u);
  EXPECT_EQ(dc.steals(), 0u);

  // Affinity: a hot destination re-leases its slot and Prepare is free.
  TransportHandle h1b = dc.Lease(1, Priority::kHigh);
  EXPECT_EQ(h1b.slot, h1.slot);
  {
    std::lock_guard<std::mutex> lock(dc.Mu(h1b));
    const uint64_t t0 = lt::NowNs();
    EXPECT_FALSE(dc.Prepare(h1b));
    EXPECT_EQ(lt::NowNs() - t0, 0u);  // Already attached: no re-target.
  }
  EXPECT_EQ(dc.attaches(), 2u);

  // Third destination with a full pool: round-robin steal + re-target,
  // which detaches the victim's peer.
  TransportHandle h3 = dc.Lease(3, Priority::kHigh);
  ASSERT_TRUE(dc.Valid(h3));
  EXPECT_EQ(dc.steals(), 1u);
  {
    std::lock_guard<std::mutex> lock(dc.Mu(h3));
    dc.Prepare(h3);
  }
  EXPECT_EQ(dc.attaches(), 3u);
  EXPECT_EQ(dc.detaches(), 1u);
  EXPECT_EQ(dc.Qp(h3)->remote_node(), 3u);
}

TEST(DcTransportTest, PrepareRecoversAndRetargetsAStolenSlot) {
  // A handle leased before its slot was stolen AND errored must come back
  // usable from one Prepare: recovery runs (returns true) and the QP is
  // re-attached to the handle's destination, not the thief's.
  lt::SimParams p;
  p.lite_transport = lt::LiteTransport::kDc;
  p.lite_dc_qp_pool = 1;  // Every second destination steals.
  lt::Cluster cluster(3, p);
  QosManager qos(p);
  DcTransport dc(cluster.node(0), &qos);
  dc.Setup({false, true, true}, cluster.node(0)->rnic().CreateCq());

  TransportHandle h1 = dc.Lease(1, Priority::kHigh);
  {
    std::lock_guard<std::mutex> lock(dc.Mu(h1));
    dc.Prepare(h1);
  }
  ASSERT_EQ(dc.Qp(h1)->remote_node(), 1u);

  // The only slot gets stolen for destination 2 and errors while away.
  TransportHandle h2 = dc.Lease(2, Priority::kHigh);
  EXPECT_EQ(h2.slot, h1.slot);
  {
    std::lock_guard<std::mutex> lock(dc.Mu(h2));
    dc.Prepare(h2);
  }
  ASSERT_EQ(dc.Qp(h1)->remote_node(), 2u);
  dc.Qp(h1)->SetError();

  const uint64_t attaches_before = dc.attaches();
  {
    std::lock_guard<std::mutex> lock(dc.Mu(h1));
    EXPECT_TRUE(dc.Prepare(h1));  // Recovery ran...
  }
  EXPECT_FALSE(dc.Qp(h1)->in_error());
  EXPECT_EQ(dc.Qp(h1)->remote_node(), 1u);  // ...and the re-target too.
  EXPECT_EQ(dc.attaches(), attaches_before + 1);
}

// ------------------------------------------------------ RC/DC mode parity

TEST(TransportParityTest, DataOpsMatchAcrossModes) {
  for (const bool use_dc : {false, true}) {
    lt::SimParams p;
    if (use_dc) p = DcParams(p);
    LiteCluster cluster(3, p);
    auto client = cluster.CreateClient(0);
    MallocOptions on1;
    on1.nodes = {1};
    auto lh = *client->Malloc(8192, use_dc ? "par_dc" : "par_rc", on1);

    auto pattern = Pattern(4096, use_dc ? 0x5d : 0x5c);
    ASSERT_TRUE(client->Write(lh, 0, pattern.data(), pattern.size()).ok());
    std::vector<uint8_t> out(pattern.size());
    ASSERT_TRUE(client->Read(lh, 0, out.data(), out.size()).ok());
    EXPECT_EQ(out, pattern);

    // Async path (leases sticky handles per piece) and atomics.
    uint64_t v = 0x1122334455667788ull;
    auto h = client->WriteAsync(lh, 4096, &v, sizeof(v));
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(client->Wait(*h).ok());
    auto fa = client->FetchAdd(lh, 4096, 3);
    ASSERT_TRUE(fa.ok());
    EXPECT_EQ(*fa, v);

    // Messaging crosses the send/recv (DC: initiator -> DCT) path.
    auto c2 = cluster.CreateClient(2);
    const char msg[] = "mode parity";
    ASSERT_TRUE(client->SendMsg(2, msg, sizeof(msg)).ok());
    auto in = c2->RecvMsg();
    ASSERT_TRUE(in.ok());
    EXPECT_EQ(0, std::memcmp(in->data.data(), msg, sizeof(msg)));

    EXPECT_EQ(cluster.instance(0)->transport().mode(),
              use_dc ? lt::LiteTransport::kDc : lt::LiteTransport::kRc);
    if (use_dc) {
      auto* dc = dynamic_cast<DcTransport*>(&cluster.instance(0)->transport());
      ASSERT_NE(dc, nullptr);
      EXPECT_GT(dc->attaches(), 0u);
    }
    EXPECT_EQ(cluster.RunHealthCheck(), std::vector<std::string>{});
  }
}

TEST(TransportParityTest, DcHoldsQpStateAtPoolScale) {
  lt::SimParams rc_p;
  lt::SimParams dc_p = DcParams(rc_p);
  dc_p.lite_dc_qp_pool = 4;
  const size_t n = 8;
  LiteCluster rc(n, rc_p);
  LiteCluster dc(n, dc_p);
  uint64_t rc_bytes = 0;
  uint64_t dc_bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    rc_bytes += rc.instance(i)->transport().QpStateBytes();
    dc_bytes += dc.instance(i)->transport().QpStateBytes();
  }
  // RC: K QPs per peer pair, O(n^2) cluster-wide. DC: pool + DCT per node.
  EXPECT_EQ(rc_bytes, n * (n - 1) *
                          static_cast<uint64_t>(rc_p.lite_qp_sharing_factor) *
                          kQpStateBytes);
  EXPECT_EQ(dc_bytes, n * (dc_p.lite_dc_qp_pool + 1) * kQpStateBytes);
  EXPECT_GT(rc_bytes, 2 * dc_bytes);
}

// ------------------------------------------- recovery journals its mode

TEST(TransportParityTest, RecoveryJournalsTransportMode) {
  for (const bool use_dc : {false, true}) {
    lt::SimParams p;
    if (use_dc) p = DcParams(p);
    LiteCluster cluster(2, p);
    auto client = cluster.CreateClient(0);
    MallocOptions on1;
    on1.nodes = {1};
    auto lh = *client->Malloc(4096, "jrec", on1);

    cluster.faults().DropNextTransfers(0, 1, 1);
    auto pattern = Pattern(512, 0x3e);
    ASSERT_TRUE(client->Write(lh, 0, pattern.data(), pattern.size()).ok());
    std::vector<uint8_t> out(pattern.size());
    ASSERT_TRUE(client->Read(lh, 0, out.data(), out.size()).ok());
    EXPECT_EQ(out, pattern);
    EXPECT_GT(cluster.instance(0)->Stat("lite.qp.reconnects"), 0);

    // Every recovery event carries the active transport mode in b's high
    // word (1 = rc, 2 = dc) and a real QPN in the low word.
    const std::vector<uint64_t> recs = QpRecoverArgs(cluster.DumpJournal());
    ASSERT_FALSE(recs.empty());
    for (uint64_t b : recs) {
      EXPECT_EQ(b >> 32, use_dc ? 2u : 1u);
      EXPECT_NE(b & 0xffffffffu, 0u);
    }
  }
}

}  // namespace
}  // namespace lite
