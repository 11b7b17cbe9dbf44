#include "plan/plan_cache.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/hash.h"
#include "common/logging.h"
#include "plan/serialize.h"
#include "telemetry/stats_registry.h"

namespace crophe::plan {

namespace {

constexpr u8 kMagic[4] = {'C', 'R', 'P', 'L'};
constexpr u32 kDiskFormatVersion = 1;

u64
fnv1a(const u8 *bytes, std::size_t size)
{
    u64 h = 1469598103934665603ull;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
    }
    return h;
}

void
appendU32(std::vector<u8> &buf, u32 v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<u8>(v >> (8 * i)));
}

void
appendU64(std::vector<u8> &buf, u64 v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<u8>(v >> (8 * i)));
}

u64
readU64(const u8 *p)
{
    u64 v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<u64>(p[i]) << (8 * i);
    return v;
}

u32
readU32(const u8 *p)
{
    u32 v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<u32>(p[i]) << (8 * i);
    return v;
}

}  // namespace

u64
PlanKey::combined() const
{
    u64 h = kHashSeed;
    hashMix(h, graphHash);
    hashMix(h, hwDigest);
    hashMix(h, optDigest);
    return h;
}

PlanCache::PlanCache(std::string dir, std::size_t max_entries)
    : dir_(std::move(dir)), maxEntries_(max_entries)
{
    CROPHE_ASSERT(maxEntries_ >= 1, "plan cache needs at least one entry");
}

void
PlanCache::touchFront(std::list<Entry>::iterator it)
{
    lru_.splice(lru_.begin(), lru_, it);
}

bool
PlanCache::remember(const PlanKey &key, const sched::Schedule &schedule)
{
    sched::Schedule plan = schedule;
    if (plan.nttN1 == 0)
        plan.graph = graph::Graph();
    auto it = index_.find(key.combined());
    if (it != index_.end() && it->second->key == key) {
        it->second->plan = std::move(plan);
        touchFront(it->second);
        return false;
    }
    lru_.push_front({key, std::move(plan)});
    index_[key.combined()] = lru_.begin();
    while (lru_.size() > maxEntries_) {
        index_.erase(lru_.back().key.combined());
        lru_.pop_back();
        ++stats_.evictions;
    }
    return true;
}

bool
PlanCache::lookup(const PlanKey &key, const graph::Graph &g,
                  sched::Schedule &out)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key.combined());
    if (it != index_.end() && it->second->key == key) {
        ++stats_.hits;
        touchFront(it->second);
        const sched::Schedule &plan = it->second->plan;
        out = sched::Schedule{.graph = plan.nttN1 == 0 ? g : plan.graph,
                              .nttN1 = plan.nttN1,
                              .groups = plan.groups,
                              .stats = plan.stats,
                              .warmStats = plan.warmStats};
        return true;
    }
    if (!dir_.empty() && loadFromDisk(key, g, out)) {
        ++stats_.diskHits;
        // Promote into the memory tier (counted separately from inserts so
        // tests can tell the tiers apart).
        remember(key, out);
        return true;
    }
    ++stats_.misses;
    return false;
}

void
PlanCache::insert(const PlanKey &key, const sched::Schedule &schedule)
{
    // dir_ never changes, so the write-through payload is serialized
    // before taking the lock.
    const std::vector<u8> payload =
        dir_.empty() ? std::vector<u8>() : scheduleBytes(schedule);
    std::lock_guard<std::mutex> lock(mu_);
    if (remember(key, schedule))
        ++stats_.insertions;
    if (!dir_.empty())
        writeToDisk(key, payload);
}

std::string
PlanCache::filePath(const PlanKey &key) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.plan",
                  static_cast<unsigned long long>(key.combined()));
    return dir_ + "/" + name;
}

bool
PlanCache::loadFromDisk(const PlanKey &key, const graph::Graph &g,
                        sched::Schedule &out)
{
    std::ifstream in(filePath(key), std::ios::binary);
    if (!in)
        return false;
    std::vector<u8> file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    // Header: magic(4) version(4) key(3*8) payloadSize(8); trailer: fnv(8).
    constexpr std::size_t kHeader = 4 + 4 + 24 + 8;
    if (file.size() < kHeader + 8 ||
        !std::equal(kMagic, kMagic + 4, file.begin()) ||
        readU32(file.data() + 4) != kDiskFormatVersion) {
        ++stats_.diskRejects;
        return false;
    }
    PlanKey echoed{readU64(file.data() + 8), readU64(file.data() + 16),
                   readU64(file.data() + 24)};
    u64 payload_size = readU64(file.data() + 32);
    if (!(echoed == key) || file.size() != kHeader + payload_size + 8) {
        ++stats_.diskRejects;
        return false;
    }
    const u8 *payload = file.data() + kHeader;
    const auto size = static_cast<std::size_t>(payload_size);
    ByteReader reader(payload, size);
    if (readU64(payload + size) != fnv1a(payload, size) ||
        !deserializeSchedule(reader, g, out)) {
        ++stats_.diskRejects;
        return false;
    }
    return true;
}

void
PlanCache::writeToDisk(const PlanKey &key, const std::vector<u8> &payload)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        return;  // disk tier is best-effort; memory tier already has it

    std::vector<u8> file;
    file.reserve(48 + payload.size() + 8);
    file.insert(file.end(), kMagic, kMagic + 4);
    appendU32(file, kDiskFormatVersion);
    appendU64(file, key.graphHash);
    appendU64(file, key.hwDigest);
    appendU64(file, key.optDigest);
    appendU64(file, payload.size());
    file.insert(file.end(), payload.begin(), payload.end());
    appendU64(file, fnv1a(payload.data(), payload.size()));

    // Temp-then-rename so a concurrent reader (or a crash) never sees a
    // half-written entry. The temp name is per-process; two processes
    // racing on the same key both write valid identical content.
    const std::string path = filePath(key);
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<u64>(::getpid()));
    {
        std::ofstream outf(tmp, std::ios::binary | std::ios::trunc);
        if (!outf)
            return;
        outf.write(reinterpret_cast<const char *>(file.data()),
                   static_cast<std::streamsize>(file.size()));
        if (!outf)
            return;
    }
    fs::rename(tmp, path, ec);
    if (ec)
        fs::remove(tmp, ec);
    else
        ++stats_.diskWrites;
}

PlanCacheStats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
PlanCache::registerStats(telemetry::StatsRegistry &reg,
                         const std::string &prefix) const
{
    PlanCacheStats s = stats();
    reg.counter(prefix + ".hits", "plan-cache memory-tier hits").set(s.hits);
    reg.counter(prefix + ".misses", "plan-cache lookups that searched")
        .set(s.misses);
    reg.counter(prefix + ".insertions", "schedules stored in the plan cache")
        .set(s.insertions);
    reg.counter(prefix + ".evictions", "LRU evictions from the memory tier")
        .set(s.evictions);
    reg.counter(prefix + ".diskHits", "misses served by the on-disk tier")
        .set(s.diskHits);
    reg.counter(prefix + ".diskRejects",
                "on-disk entries rejected by validation")
        .set(s.diskRejects);
    reg.counter(prefix + ".diskWrites", "entries written through to disk")
        .set(s.diskWrites);
}

std::string
PlanCache::dirFromEnv()
{
    const char *dir = std::getenv("CROPHE_PLAN_CACHE");
    return dir ? std::string(dir) : std::string();
}

}  // namespace crophe::plan
