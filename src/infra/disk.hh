/**
 * @file
 * Virtual disk model with linked-clone delta chains.
 *
 * A disk is either a flat (fully allocated) disk, a delta disk whose
 * parent holds the shared base content (the linked-clone mechanism
 * that conserves provisioning bandwidth), or a snapshot delta.  Delta
 * disks start nearly empty and grow; the chain depth matters because
 * long chains degrade I/O and bound how many times a base can be
 * re-derived before consolidation ("cloud reconfiguration") is needed.
 */

#ifndef VCP_INFRA_DISK_HH
#define VCP_INFRA_DISK_HH

#include <string>

#include "infra/ids.hh"
#include "sim/types.hh"

namespace vcp {

/** What kind of backing a virtual disk has. */
enum class DiskKind
{
    /** Fully materialized disk; no parent. */
    Flat,
    /** Copy-on-write child of a base disk (linked clone). */
    LinkedCloneDelta,
    /** Copy-on-write child created by a VM snapshot. */
    SnapshotDelta,
};

/** One virtual disk in the inventory. */
struct VirtualDisk
{
    DiskId id;
    DiskKind kind = DiskKind::Flat;
    DatastoreId datastore;

    /** Logical size visible to the guest. */
    Bytes capacity = 0;

    /** Bytes physically allocated on the datastore (thin). */
    Bytes allocated = 0;

    /** Parent disk for delta kinds; invalid for Flat. */
    DiskId parent;

    /** Owning VM; invalid for template/base disks owned by a pool. */
    VmId owner;

    /** 1 for Flat, parent depth + 1 for deltas. */
    int chain_depth = 1;

    /** Number of child delta disks referencing this disk. */
    int ref_count = 0;

    /** @return true for either delta kind. */
    bool
    isDelta() const
    {
        return kind != DiskKind::Flat;
    }
};

} // namespace vcp

#endif // VCP_INFRA_DISK_HH
