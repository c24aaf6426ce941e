#include "infra/inventory.hh"

#include "sim/logging.hh"

namespace vcp {

Inventory::Inventory(Simulator &sim_)
    : sim(sim_)
{}

HostId
Inventory::addHost(const HostConfig &cfg)
{
    return hosts.emplace(next_id++, [&](void *mem, HostId id) {
        new (mem) Host(id, cfg);
    });
}

DatastoreId
Inventory::addDatastore(const DatastoreConfig &cfg)
{
    return datastores_.emplace(next_id++,
                               [&](void *mem, DatastoreId id) {
        new (mem) Datastore(sim, id, cfg);
    });
}

ClusterId
Inventory::addCluster(const std::string &name)
{
    return clusters.emplace(next_id++, [&](void *mem, ClusterId id) {
        new (mem) Cluster(id, name);
    });
}

void
Inventory::assignHostToCluster(HostId h, ClusterId c)
{
    Host &hst = host(h);
    if (hst.cluster().valid())
        cluster(hst.cluster()).removeHost(h);
    cluster(c).addHost(h);
    hst.setCluster(c);
}

void
Inventory::connectHostToDatastore(HostId h, DatastoreId d)
{
    // Validate the datastore exists.
    datastore(d);
    host(h).attachDatastore(d);
}

VmId
Inventory::createVm(const VmConfig &cfg)
{
    VmId id = vms.emplace(next_id++, [&](void *mem, VmId vid) {
        Vm *vm = new (mem) Vm();
        vm->id = vid;
        vm->name = cfg.name;
        vm->vcpus = cfg.vcpus;
        vm->memory = cfg.memory;
        vm->tenant = cfg.tenant;
        vm->vapp = cfg.vapp;
        vm->is_template = cfg.is_template;
        vm->created_at = sim.now();
    });
    ++vm_creations;
    return id;
}

DiskId
Inventory::createDisk(const DiskConfig &cfg)
{
    if (cfg.capacity < 0)
        panic("Inventory::createDisk: negative capacity");
    Datastore &ds = datastore(cfg.datastore);

    // Flat disks default to thick allocation; a positive
    // initial_allocation makes them thin (template golden masters).
    Bytes to_reserve = cfg.initial_allocation;
    if (cfg.kind == DiskKind::Flat && cfg.initial_allocation == 0)
        to_reserve = cfg.capacity;
    if (!ds.reserve(to_reserve))
        return DiskId();

    int depth = 1;
    if (cfg.kind != DiskKind::Flat) {
        if (!cfg.parent.valid())
            panic("Inventory::createDisk: delta disk needs a parent");
        VirtualDisk &par = disk(cfg.parent);
        par.ref_count += 1;
        depth = par.chain_depth + 1;
    }

    return disks.emplace(next_id++, [&](void *mem, DiskId id) {
        VirtualDisk *d = new (mem) VirtualDisk();
        d->id = id;
        d->kind = cfg.kind;
        d->datastore = cfg.datastore;
        d->capacity = cfg.capacity;
        d->allocated = to_reserve;
        d->parent = cfg.parent;
        d->owner = cfg.owner;
        d->chain_depth = depth;
    });
}

bool
Inventory::destroyDisk(DiskId id)
{
    VirtualDisk &d = disk(id);
    if (d.ref_count > 0)
        return false;
    datastore(d.datastore).release(d.allocated);
    if (d.parent.valid()) {
        VirtualDisk &par = disk(d.parent);
        par.ref_count -= 1;
        if (par.ref_count < 0)
            panic("Inventory: disk ref count underflow");
    }
    disks.destroy(d.id);
    return true;
}

bool
Inventory::destroyVm(VmId id)
{
    Vm &v = vm(id);
    if (v.powerState() != PowerState::PoweredOff)
        panic("Inventory::destroyVm: %s is not powered off",
              v.name.c_str());
    if (v.host.valid())
        panic("Inventory::destroyVm: %s is still registered",
              v.name.c_str());
    // A disk may be referenced by the VM's own snapshot deltas
    // (which we destroy children-first below); only references from
    // *outside* the VM block destruction.
    for (DiskId did : v.disks) {
        int refs_within_vm = 0;
        for (DiskId other : v.disks) {
            if (disk(other).parent == did)
                ++refs_within_vm;
        }
        if (disk(did).ref_count > refs_within_vm)
            return false;
    }
    // Children were appended after their parents, so reverse order
    // tears chains down leaf-first.
    for (auto it = v.disks.rbegin(); it != v.disks.rend(); ++it) {
        if (!destroyDisk(*it))
            panic("Inventory::destroyVm: chain destroy failed");
    }
    vms.destroy(v.id);
    return true;
}

bool
Inventory::growDisk(DiskId id, Bytes by)
{
    if (by < 0)
        panic("Inventory::growDisk: negative growth");
    VirtualDisk &d = disk(id);
    if (!datastore(d.datastore).reserve(by))
        return false;
    d.allocated += by;
    return true;
}

Host &
Inventory::host(HostId id)
{
    return hosts.get(id);
}

const Host &
Inventory::host(HostId id) const
{
    return hosts.get(id);
}

Datastore &
Inventory::datastore(DatastoreId id)
{
    return datastores_.get(id);
}

const Datastore &
Inventory::datastore(DatastoreId id) const
{
    return datastores_.get(id);
}

Cluster &
Inventory::cluster(ClusterId id)
{
    return clusters.get(id);
}

const Cluster &
Inventory::cluster(ClusterId id) const
{
    return clusters.get(id);
}

Vm &
Inventory::vm(VmId id)
{
    return vms.get(id);
}

const Vm &
Inventory::vm(VmId id) const
{
    return vms.get(id);
}

VirtualDisk &
Inventory::disk(DiskId id)
{
    return disks.get(id);
}

const VirtualDisk &
Inventory::disk(DiskId id) const
{
    return disks.get(id);
}

std::vector<HostId>
Inventory::hostIds() const
{
    return hosts.ids();
}

std::vector<DatastoreId>
Inventory::datastoreIds() const
{
    return datastores_.ids();
}

std::vector<VmId>
Inventory::vmIds() const
{
    return vms.ids();
}

std::vector<DiskId>
Inventory::diskIds() const
{
    return disks.ids();
}

} // namespace vcp
