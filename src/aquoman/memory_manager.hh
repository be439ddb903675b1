/**
 * @file
 * AQUOMAN device DRAM management (Sec. VI-D). Intermediate tables —
 * key+RowID streams left by sort / sort-merge Table Tasks — live in
 * named slots. Sort inputs are garbage-collected as soon as their
 * consuming sort-merge task finishes; backward-pointer tables live for
 * the whole multi-way join. Exceeding the configured DRAM capacity is
 * reported so the device can suspend the query (Sec. VI-E condition 4).
 */

#ifndef AQUOMAN_AQUOMAN_MEMORY_MANAGER_HH
#define AQUOMAN_AQUOMAN_MEMORY_MANAGER_HH

#include <cstdint>
#include <map>
#include <string>

#include "common/logging.hh"

namespace aquoman {

/** Tracks intermediate-table allocations in device DRAM. */
class DeviceMemoryManager
{
  public:
    explicit DeviceMemoryManager(std::int64_t capacity_bytes)
        : capacity(capacity_bytes)
    {
    }

    std::int64_t capacityBytes() const { return capacity; }
    std::int64_t usedBytes() const { return used; }
    std::int64_t peakBytes() const { return peak; }

    /**
     * Allocate @p bytes under slot @p name.
     * @return false when the allocation would exceed device DRAM (the
     *         caller must suspend to the host); state is unchanged.
     */
    bool
    allocate(const std::string &name, std::int64_t bytes)
    {
        AQ_ASSERT(bytes >= 0);
        AQ_ASSERT(slots.find(name) == slots.end(),
                  "slot '", name, "' already allocated");
        if (used + bytes > capacity)
            return false;
        slots[name] = bytes;
        used += bytes;
        peak = std::max(peak, used);
        return true;
    }

    /** Resize an existing slot (streams grow as tasks emit). */
    bool
    grow(const std::string &name, std::int64_t extra_bytes)
    {
        auto it = slots.find(name);
        AQ_ASSERT(it != slots.end(), "no slot '", name, "'");
        if (used + extra_bytes > capacity)
            return false;
        it->second += extra_bytes;
        used += extra_bytes;
        peak = std::max(peak, used);
        return true;
    }

    /** Free a slot (sort inputs GC immediately after the merge). */
    void
    free(const std::string &name)
    {
        auto it = slots.find(name);
        AQ_ASSERT(it != slots.end(), "no slot '", name, "'");
        used -= it->second;
        slots.erase(it);
    }

    bool has(const std::string &name) const
    {
        return slots.count(name) != 0;
    }

    std::int64_t
    slotBytes(const std::string &name) const
    {
        auto it = slots.find(name);
        return it == slots.end() ? 0 : it->second;
    }

    /** Release everything (end of query). */
    void
    reset()
    {
        slots.clear();
        used = 0;
    }

    /** Also clear the peak (start of a fresh measurement). */
    void
    resetPeak()
    {
        reset();
        peak = 0;
    }

  private:
    std::int64_t capacity;
    std::int64_t used = 0;
    std::int64_t peak = 0;
    std::map<std::string, std::int64_t> slots;
};

} // namespace aquoman

#endif // AQUOMAN_AQUOMAN_MEMORY_MANAGER_HH
