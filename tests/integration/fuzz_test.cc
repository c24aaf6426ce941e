/**
 * @file
 * Randomized operation-storm fuzzing of the management server.
 *
 * Issues a large stream of randomly parameterized operations — every
 * op verb, in a deliberate mix of valid and invalid requests — lets
 * everything drain, and then checks global invariants:
 *
 *   - op accounting: submitted == completed + failed
 *   - no lock, dispatch slot, agent slot, or DB connection leaked
 *   - datastore space equals the sum of resident disk allocations
 *   - host commitments equal the sum of powered-on VM footprints
 *   - disk reference counts equal the number of child disks
 *
 * Any resource leak on any failure path shows up here.
 */

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/ha_manager.hh"
#include "controlplane/management_server.hh"
#include "sim/logging.hh"

namespace vcp {
namespace {

class OpFuzzer
{
  public:
    OpFuzzer(std::uint64_t seed)
        : sim(seed), inv(sim), net(sim, {}),
          srv(sim, inv, net, stats, makeCfg()), ha(srv),
          rng(seed * 31 + 7)
    {
        // Plant: 3 hosts, 2 datastores, one template with a base.
        for (int d = 0; d < 2; ++d) {
            DatastoreConfig dc;
            dc.name = "ds" + std::to_string(d);
            dc.capacity = gib(256);
            ds.push_back(inv.addDatastore(dc));
        }
        for (int h = 0; h < 3; ++h) {
            HostConfig hc;
            hc.name = "h" + std::to_string(h);
            hc.cores = 8;
            hc.memory = gib(32);
            HostId id = inv.addHost(hc);
            for (DatastoreId d : ds)
                inv.connectHostToDatastore(id, d);
            hosts.push_back(id);
        }
        VmConfig vc;
        vc.name = "tmpl";
        vc.vcpus = 1;
        vc.memory = gib(1);
        vc.is_template = true;
        tmpl = inv.createVm(vc);
        DiskConfig bdc;
        bdc.kind = DiskKind::Flat;
        bdc.datastore = ds[0];
        bdc.capacity = gib(4);
        bdc.initial_allocation = gib(2);
        bdc.owner = tmpl;
        base = inv.createDisk(bdc);
        inv.vm(tmpl).disks.push_back(base);
        vms.push_back(tmpl); // invalid target for many ops: good
        srv.setTaskObserver([this](const Task &t) { hashTask(t); });
    }

    /** The stats dump plus a digest of every finished task. */
    std::string
    outcome() const
    {
        return stats.toCsv() + "tasks," + std::to_string(task_hash) +
               "\n";
    }

    static ManagementServerConfig
    makeCfg()
    {
        ManagementServerConfig cfg;
        cfg.dispatch_width = 8;
        cfg.retain_finished_tasks = false;
        return cfg;
    }

    /** Issue @p n random ops at random times over @p window. */
    void
    storm(int n, SimDuration window)
    {
        for (int i = 0; i < n; ++i) {
            SimDuration at = rng.uniformInt(0, window);
            sim.schedule(at, [this] { fireRandomOp(); });
        }
        sim.run();
    }

    void
    checkInvariants()
    {
        // Accounting.
        EXPECT_EQ(srv.opsSubmitted(),
                  srv.opsCompleted() + srv.opsFailed());
        EXPECT_GT(srv.opsCompleted(), 0u);
        EXPECT_GT(srv.opsFailed(), 0u); // fuzz must hit error paths

        // No execution resource leaked.
        EXPECT_EQ(srv.scheduler().inFlight(), 0);
        EXPECT_EQ(srv.scheduler().queueLength(), 0u);
        EXPECT_EQ(srv.apiCenter().busyServers(), 0);
        EXPECT_EQ(srv.database().center().busyServers(), 0);
        for (HostId h : hosts) {
            EXPECT_EQ(srv.hostAgent(h).center().busyServers(), 0);
            EXPECT_EQ(srv.hostAgent(h).center().queueLength(), 0u);
        }
        for (DatastoreId d : ds) {
            EXPECT_EQ(srv.datastoreSlots(d).busyServers(), 0);
        }

        // No lock held on any entity.
        for (VmId v : inv.vmIds())
            EXPECT_EQ(srv.lockManager().holders(lockKey(v)), 0);
        for (HostId h : hosts)
            EXPECT_EQ(srv.lockManager().holders(lockKey(h)), 0);
        for (DatastoreId d : ds)
            EXPECT_EQ(srv.lockManager().holders(lockKey(d)), 0);
        for (DiskId d : inv.diskIds())
            EXPECT_EQ(srv.lockManager().holders(lockKey(d)), 0);

        // Datastore space conservation.
        std::unordered_map<DatastoreId, Bytes> alloc;
        for (DiskId did : inv.diskIds()) {
            const VirtualDisk &disk = inv.disk(did);
            alloc[disk.datastore] += disk.allocated;
        }
        for (DatastoreId d : ds)
            EXPECT_EQ(inv.datastore(d).used(), alloc[d])
                << "datastore " << d.value;

        // Host commitment conservation.
        std::unordered_map<HostId, int> vcpus;
        std::unordered_map<HostId, Bytes> mem;
        for (VmId v : inv.vmIds()) {
            const Vm &vm = inv.vm(v);
            if (vm.powerState() == PowerState::PoweredOn) {
                ASSERT_TRUE(vm.host.valid());
                vcpus[vm.host] += vm.vcpus;
                mem[vm.host] += vm.memory;
            }
        }
        for (HostId h : hosts) {
            EXPECT_EQ(inv.host(h).committedVcpus(), vcpus[h])
                << "host " << h.value;
            EXPECT_EQ(inv.host(h).committedMemory(), mem[h]);
        }

        // Disk reference counts match actual children.
        std::unordered_map<DiskId, int> children;
        for (DiskId did : inv.diskIds()) {
            const VirtualDisk &disk = inv.disk(did);
            if (disk.parent.valid())
                children[disk.parent] += 1;
        }
        for (DiskId did : inv.diskIds())
            EXPECT_EQ(inv.disk(did).ref_count, children[did])
                << "disk " << did.value;

        // Disconnect/reconnect symmetry: every disconnect schedules
        // its reconcile, and the drain runs them all, so no agent may
        // end the storm dark or holding parked completions.
        for (HostId h : hosts) {
            EXPECT_TRUE(srv.hostAgent(h).connected())
                << "host " << h.value;
            EXPECT_EQ(srv.hostAgent(h).parkedOps(), 0u)
                << "host " << h.value;
        }

        // Registration symmetry.
        for (VmId v : inv.vmIds()) {
            const Vm &vm = inv.vm(v);
            if (vm.host.valid())
                EXPECT_TRUE(inv.host(vm.host).hasVm(v));
        }
        for (HostId h : hosts) {
            for (VmId v : inv.host(h).vms()) {
                ASSERT_TRUE(inv.hasVm(v));
                EXPECT_EQ(inv.vm(v).host, h);
            }
        }
    }

  private:
    /** Fold one finished task into the FNV-1a task digest. */
    void
    hashTask(const Task &t)
    {
        auto fold = [this](std::int64_t v) {
            for (int i = 0; i < 8; ++i) {
                task_hash ^= static_cast<std::uint64_t>(v >> (8 * i)) &
                             0xffu;
                task_hash *= 1099511628211ull;
            }
        };
        fold(static_cast<std::int64_t>(t.type()));
        fold(static_cast<std::int64_t>(t.error()));
        fold(t.submittedAt());
        fold(t.latency());
        for (std::size_t p = 0; p < kNumTaskPhases; ++p)
            fold(t.phaseTime(static_cast<TaskPhase>(p)));
    }

    VmId
    randomVm()
    {
        // Mix live ids with stale/bogus ones.
        if (rng.bernoulli(0.05))
            return VmId(rng.uniformInt(0, 500));
        return vms[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(vms.size()) - 1))];
    }

    void
    fireRandomOp()
    {
        // Occasionally crash a host (and schedule its recovery) —
        // abrupt state collapse racing every op in flight.
        if (rng.bernoulli(0.01)) {
            HostId victim = hosts[static_cast<std::size_t>(
                rng.uniformInt(0, 2))];
            if (!ha.isCrashed(victim) &&
                inv.host(victim).connected()) {
                ha.crashHost(victim);
                SimDuration outage = rng.uniformInt(seconds(10),
                                                    minutes(10));
                sim.schedule(outage, [this, victim] {
                    ha.recoverHost(victim);
                });
            }
            return;
        }

        // Occasionally drop a host agent's session (the host keeps
        // running) and schedule the reconnect+reconciliation — parks
        // whatever completions land during the dark window.
        if (rng.bernoulli(0.01)) {
            HostId victim = hosts[static_cast<std::size_t>(
                rng.uniformInt(0, 2))];
            if (inv.host(victim).connected() &&
                !ha.isCrashed(victim)) {
                srv.disconnectHost(victim);
                SimDuration dark = rng.uniformInt(seconds(5),
                                                  minutes(5));
                sim.schedule(dark, [this, victim] {
                    srv.reconcileHost(victim);
                });
            }
            return;
        }

        OpRequest req;
        int kind = static_cast<int>(rng.uniformInt(0, 22));
        switch (kind) {
          case 0:
          case 1: { // linked clone off the template base
            req.type = OpType::CloneLinked;
            req.vm = tmpl;
            req.host = hosts[static_cast<std::size_t>(
                rng.uniformInt(0, 2))];
            req.datastore = ds[0];
            req.base_disk = base;
            srv.submit(req, [this](const Task &t) {
                if (t.succeeded())
                    vms.push_back(t.resultVm());
            });
            return;
          }
          case 2: { // full clone
            req.type = OpType::CloneFull;
            req.vm = tmpl;
            req.host = hosts[static_cast<std::size_t>(
                rng.uniformInt(0, 2))];
            req.datastore = ds[static_cast<std::size_t>(
                rng.uniformInt(0, 1))];
            srv.submit(req, [this](const Task &t) {
                if (t.succeeded())
                    vms.push_back(t.resultVm());
            });
            return;
          }
          case 3:
          case 4:
            req.type = OpType::PowerOn;
            break;
          case 5:
            req.type = OpType::PowerOff;
            break;
          case 6:
            req.type = OpType::Destroy;
            break;
          case 7:
            req.type = OpType::Snapshot;
            break;
          case 8:
            req.type = OpType::RemoveSnapshot;
            break;
          case 9: {
            req.type = OpType::Reconfigure;
            req.vcpus = static_cast<int>(rng.uniformInt(1, 64));
            req.memory = gib(rng.uniformInt(1, 64));
            break;
          }
          case 10: {
            req.type = OpType::Migrate;
            req.host = hosts[static_cast<std::size_t>(
                rng.uniformInt(0, 2))];
            break;
          }
          case 11: {
            req.type = OpType::Relocate;
            req.datastore = ds[static_cast<std::size_t>(
                rng.uniformInt(0, 1))];
            break;
          }
          case 12:
            req.type = OpType::Suspend;
            break;
          case 13:
            req.type = OpType::Reset;
            break;
          case 14: { // from-scratch VM, sometimes too big to place
            req.type = OpType::CreateVm;
            req.host = randomHost();
            req.datastore = randomDatastore();
            req.vcpus = static_cast<int>(rng.uniformInt(1, 4));
            req.memory = gib(rng.uniformInt(1, 4));
            req.disk_size = gib(rng.uniformInt(1, 300));
            srv.submit(req, [this](const Task &t) {
                if (t.succeeded())
                    vms.push_back(t.resultVm());
            });
            return;
          }
          case 15:
            req.type = OpType::RegisterVm;
            req.host = randomHost();
            break;
          case 16:
            req.type = OpType::UnregisterVm;
            break;
          case 17:
            req.type = OpType::AddHost;
            req.host = randomHost();
            break;
          case 18:
            req.type = OpType::RemoveHost;
            req.host = randomHost();
            break;
          case 19:
            req.type = OpType::EnterMaintenance;
            req.host = randomHost();
            break;
          case 20:
            req.type = OpType::ExitMaintenance;
            req.host = randomHost();
            break;
          case 21: { // replicate the base, or a random (maybe delta) disk
            req.type = OpType::ReplicateBaseDisk;
            req.host = randomHost();
            req.datastore = randomDatastore();
            req.base_disk = rng.bernoulli(0.8) ? base : randomDisk();
            srv.submit(req);
            return;
          }
          case 22: { // consolidate some VM's newest disk
            req.type = OpType::ConsolidateDisk;
            req.host = randomHost();
            req.base_disk = randomDisk();
            srv.submit(req);
            return;
          }
        }
        req.vm = randomVm();
        srv.submit(req);
    }

    HostId
    randomHost()
    {
        return hosts[static_cast<std::size_t>(rng.uniformInt(0, 2))];
    }

    DatastoreId
    randomDatastore()
    {
        return ds[static_cast<std::size_t>(rng.uniformInt(0, 1))];
    }

    /** The newest disk of a random VM (invalid if it has none). */
    DiskId
    randomDisk()
    {
        VmId v = randomVm();
        if (!inv.hasVm(v) || inv.vm(v).disks.empty())
            return DiskId();
        return inv.vm(v).disks.back();
    }

    Simulator sim;
    StatRegistry stats;
    Inventory inv;
    Network net;
    ManagementServer srv;
    HaManager ha;
    Rng rng;

    std::vector<HostId> hosts;
    std::vector<DatastoreId> ds;
    std::vector<VmId> vms;
    VmId tmpl;
    DiskId base;
    std::uint64_t task_hash = 14695981039346656037ull;
};

class FuzzTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FuzzTest, InvariantsHoldAfterRandomStorm)
{
    OpFuzzer fuzzer(GetParam());
    // Spread phase: ops trickle in over two hours.
    fuzzer.storm(1500, hours(2));
    fuzzer.checkInvariants();
    // Burst phase: dense contention — many ops racing for the same
    // entities and lock queues (where destroy-vs-user races live).
    fuzzer.storm(600, minutes(2));
    fuzzer.checkInvariants();
}

TEST(FuzzDeterminism, SameSeedSameOutcome)
{
    auto run = [] {
        OpFuzzer fuzzer(5);
        fuzzer.storm(800, hours(1));
        return fuzzer.outcome();
    };
    EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 23u, 99u,
                                           1234u, 31337u));

} // namespace
} // namespace vcp
