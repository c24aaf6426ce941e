/**
 * @file
 * The inventory: the authoritative object store for every simulated
 * infrastructure entity.  The management server's database model
 * charges for *persisting* changes; the Inventory holds the in-memory
 * truth that tasks mutate.
 */

#ifndef VCP_INFRA_INVENTORY_HH
#define VCP_INFRA_INVENTORY_HH

#include <string>
#include <vector>

#include "infra/arena.hh"
#include "infra/cluster.hh"
#include "infra/datastore.hh"
#include "infra/disk.hh"
#include "infra/host.hh"
#include "infra/ids.hh"
#include "infra/vm.hh"
#include "sim/simulator.hh"

namespace vcp {

/** Parameters for creating a VM. */
struct VmConfig
{
    std::string name;
    int vcpus = 1;
    Bytes memory = gib(1);
    TenantId tenant;
    VAppId vapp;
    bool is_template = false;
};

/** Parameters for creating a disk. */
struct DiskConfig
{
    DiskKind kind = DiskKind::Flat;
    DatastoreId datastore;
    Bytes capacity = 0;

    /** Initial physical allocation.  0 on a Flat disk means thick
     *  (reserve full capacity); positive makes it thin. */
    Bytes initial_allocation = 0;

    /** Required for delta kinds. */
    DiskId parent;

    VmId owner;
};

/** Authoritative store of hosts, datastores, clusters, VMs, disks. */
class Inventory
{
  public:
    explicit Inventory(Simulator &sim);

    Inventory(const Inventory &) = delete;
    Inventory &operator=(const Inventory &) = delete;

    /** @{ Entity creation. */
    HostId addHost(const HostConfig &cfg);
    DatastoreId addDatastore(const DatastoreConfig &cfg);
    ClusterId addCluster(const std::string &name);

    /** Put a host into a cluster (moves it if already clustered). */
    void assignHostToCluster(HostId h, ClusterId c);

    /** Connect a host to a datastore. */
    void connectHostToDatastore(HostId h, DatastoreId d);

    /**
     * Create a VM record (unregistered, powered off, no disks).
     * Registration on a host is a control-plane action.
     */
    VmId createVm(const VmConfig &cfg);

    /**
     * Create a disk, reserving datastore space.
     * Flat disks reserve full capacity; delta disks reserve
     * initial_allocation and bump the parent's ref count.
     * @return invalid id if the datastore lacks space.
     */
    DiskId createDisk(const DiskConfig &cfg);
    /** @} */

    /** @{ Entity destruction. */

    /**
     * Destroy a disk, releasing space and the parent reference.
     * @return false if the disk still has children.
     */
    bool destroyDisk(DiskId id);

    /**
     * Destroy a VM and all its disks.
     * @pre the VM is powered off and unregistered.
     * @return false if any disk still has children.
     */
    bool destroyVm(VmId id);
    /** @} */

    /** @{ Lookup; panics on an id that does not exist. */
    Host &host(HostId id);
    const Host &host(HostId id) const;
    Datastore &datastore(DatastoreId id);
    const Datastore &datastore(DatastoreId id) const;
    Cluster &cluster(ClusterId id);
    const Cluster &cluster(ClusterId id) const;
    Vm &vm(VmId id);
    const Vm &vm(VmId id) const;
    VirtualDisk &disk(DiskId id);
    const VirtualDisk &disk(DiskId id) const;
    /** @} */

    /** @{ Existence checks (stale handles report false). */
    bool hasVm(VmId id) const { return vms.has(id); }
    bool hasDisk(DiskId id) const { return disks.has(id); }
    bool hasHost(HostId id) const { return hosts.has(id); }
    /** @} */

    /**
     * Grow a disk's physical allocation (delta disks filling in).
     * @return false if the datastore is out of space.
     */
    bool growDisk(DiskId id, Bytes by);

    /** @{ Id enumeration (sorted for determinism). */
    std::vector<HostId> hostIds() const;
    std::vector<DatastoreId> datastoreIds() const;
    std::vector<VmId> vmIds() const;
    std::vector<DiskId> diskIds() const;
    /** @} */

    std::size_t numHosts() const { return hosts.size(); }
    std::size_t numDatastores() const { return datastores_.size(); }
    std::size_t numVms() const { return vms.size(); }

    /** Total VMs ever created (for churn accounting). */
    std::uint64_t vmsEverCreated() const { return vm_creations; }

    Simulator &simulator() { return sim; }

  private:
    Simulator &sim;

    SlotArena<Host, HostId> hosts{"host"};
    SlotArena<Datastore, DatastoreId> datastores_{"datastore"};
    SlotArena<Cluster, ClusterId> clusters{"cluster"};
    SlotArena<Vm, VmId> vms{"vm"};
    SlotArena<VirtualDisk, DiskId> disks{"disk"};

    std::int64_t next_id = 0;
    std::uint64_t vm_creations = 0;
};

} // namespace vcp

#endif // VCP_INFRA_INVENTORY_HH
