#include "plan/serialize.h"

#include <cstring>
#include <utility>

#include "common/math_util.h"
#include "sched/loopnest.h"
#include "sched/ntt_decomp.h"

namespace crophe::plan {

void
ByteWriter::putU32(u32 v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<u8>(v >> (8 * i)));
}

void
ByteWriter::putU64(u64 v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<u8>(v >> (8 * i)));
}

void
ByteWriter::putDouble(double v)
{
    u64 bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
ByteWriter::putString(const std::string &s)
{
    putU64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
}

bool
ByteReader::take(std::size_t n, const u8 *&p)
{
    if (!ok_ || size_ - pos_ < n) {
        ok_ = false;
        return false;
    }
    p = data_ + pos_;
    pos_ += n;
    return true;
}

bool
ByteReader::getU8(u8 &v)
{
    const u8 *p;
    if (!take(1, p))
        return false;
    v = *p;
    return true;
}

bool
ByteReader::getU32(u32 &v)
{
    const u8 *p;
    if (!take(4, p))
        return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<u32>(p[i]) << (8 * i);
    return true;
}

bool
ByteReader::getU64(u64 &v)
{
    const u8 *p;
    if (!take(8, p))
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<u64>(p[i]) << (8 * i);
    return true;
}

bool
ByteReader::getDouble(double &v)
{
    u64 bits;
    if (!getU64(bits))
        return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
}

bool
ByteReader::getString(std::string &s)
{
    u64 len;
    if (!getU64(len))
        return false;
    if (len > size_ - pos_) {
        ok_ = false;
        return false;
    }
    s.assign(reinterpret_cast<const char *>(data_ + pos_),
             static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return true;
}

namespace {

// A cheap sanity ceiling for deserialized list lengths: any plausible
// schedule is far below this, and it keeps a corrupt length prefix from
// turning into a giant allocation before the bounds checks kick in.
constexpr u64 kMaxListLen = 1u << 24;

void
writeStats(const sched::SchedStats &s, ByteWriter &w)
{
    w.putDouble(s.cycles);
    w.putU64(s.dramWords);
    w.putU64(s.auxDramWords);
    w.putU64(s.sramWords);
    w.putU64(s.nocWords);
    w.putU64(s.flops);
    w.putDouble(s.peUtil);
    w.putDouble(s.nocUtil);
    w.putDouble(s.sramBwUtil);
    w.putDouble(s.dramBwUtil);
}

bool
readStats(ByteReader &r, sched::SchedStats &s)
{
    return r.getDouble(s.cycles) && r.getU64(s.dramWords) &&
           r.getU64(s.auxDramWords) && r.getU64(s.sramWords) &&
           r.getU64(s.nocWords) && r.getU64(s.flops) &&
           r.getDouble(s.peUtil) && r.getDouble(s.nocUtil) &&
           r.getDouble(s.sramBwUtil) && r.getDouble(s.dramBwUtil);
}

void
writeSpatialGroup(const sched::SpatialGroup &sg, ByteWriter &w)
{
    w.putU64(sg.allocs.size());
    for (const auto &a : sg.allocs) {
        w.putU32(a.op);
        w.putU32(a.pes);
        w.putU64(a.chunks);
    }
    w.putU64(sg.internalEdges.size());
    for (const auto &e : sg.internalEdges) {
        w.putU32(e.from);
        w.putU32(e.to);
        w.putU8(static_cast<u8>(e.mode));
        w.putU64(e.volumeWords);
        w.putU64(e.granuleWords);
        w.putU64(e.bufferWords);
    }
    w.putDouble(sg.computeCycles);
    w.putU64(sg.dramWords);
    w.putU64(sg.sramWords);
    w.putU64(sg.nocWords);
    w.putU64(sg.bufferWords);
    w.putU64(sg.flops);
    w.putU64(sg.auxNeeds.size());
    for (const auto &[key, words] : sg.auxNeeds) {
        w.putString(key);
        w.putU64(words);
    }
    w.putDouble(sg.cycles);
}

bool
readSpatialGroup(ByteReader &r, u32 n_ops, sched::SpatialGroup &sg)
{
    // Position of op @p id among the allocs read so far, or allocs.size()
    // when absent. A group lists each op once.
    auto position = [&sg](graph::OpId id) {
        std::size_t k = 0;
        while (k < sg.allocs.size() && sg.allocs[k].op != id)
            ++k;
        return k;
    };
    u64 count;
    if (!r.getU64(count) || count > kMaxListLen)
        return false;
    sg.allocs.clear();
    for (u64 i = 0; i < count; ++i) {
        sched::OpAlloc a;
        if (!r.getU32(a.op) || a.op >= n_ops ||
            position(a.op) < sg.allocs.size() || !r.getU32(a.pes) ||
            !r.getU64(a.chunks) || a.chunks < 1 ||
            a.chunks > sched::kMaxChunks)
            return false;
        sg.allocs.push_back(a);
    }
    if (!r.getU64(count) || count > kMaxListLen)
        return false;
    sg.internalEdges.clear();
    for (u64 i = 0; i < count; ++i) {
        sched::EdgePlan e;
        u8 mode;
        if (!r.getU32(e.from) || !r.getU32(e.to) || !r.getU8(mode) ||
            mode > static_cast<u8>(sched::EdgeMode::Materialized) ||
            !r.getU64(e.volumeWords) || !r.getU64(e.granuleWords) ||
            !r.getU64(e.bufferWords))
            return false;
        // The simulator issues a group's ops in order, so every edge must
        // run from an op of the group to a later one.
        const std::size_t to = position(e.to);
        if (to == sg.allocs.size() || position(e.from) >= to)
            return false;
        e.mode = static_cast<sched::EdgeMode>(mode);
        sg.internalEdges.push_back(e);
    }
    if (!r.getDouble(sg.computeCycles) || !r.getU64(sg.dramWords) ||
        !r.getU64(sg.sramWords) || !r.getU64(sg.nocWords) ||
        !r.getU64(sg.bufferWords) || !r.getU64(sg.flops) ||
        !r.getU64(count) || count > kMaxListLen)
        return false;
    sg.auxNeeds.clear();
    for (u64 i = 0; i < count; ++i) {
        std::string key;
        u64 words;
        if (!r.getString(key) || !r.getU64(words))
            return false;
        sg.auxNeeds.emplace_back(std::move(key), words);
    }
    return r.getDouble(sg.cycles);
}

void
writeScheduleBody(const sched::Schedule &s, ByteWriter &w)
{
    w.putU64(s.nttN1);
    w.putU64(s.groups->size());
    for (const auto &sg : *s.groups)
        writeSpatialGroup(sg, w);
    writeStats(s.stats, w);
    writeStats(s.warmStats, w);
}

bool
readScheduleBody(ByteReader &r, const graph::Graph &g, sched::Schedule &s)
{
    u64 n1, n_groups;
    // 0 names the input graph. A rewrite factor is a power of two of at
    // least 2, like every candidate of nttDecompositionOptions.
    if (!r.getU64(n1) || (n1 != 0 && (n1 < 2 || !isPow2(n1))))
        return false;
    s.nttN1 = n1;
    s.graph = n1 == 0 ? g : sched::rewriteNttDecomposition(g, n1);
    if (!r.getU64(n_groups) || n_groups > kMaxListLen)
        return false;
    std::vector<sched::SpatialGroup> groups;
    for (u64 gi = 0; gi < n_groups; ++gi) {
        sched::SpatialGroup sg;
        if (!readSpatialGroup(r, s.graph.size(), sg))
            return false;
        groups.push_back(std::move(sg));
    }
    s.groups = std::make_shared<const std::vector<sched::SpatialGroup>>(
        std::move(groups));
    return readStats(r, s.stats) && readStats(r, s.warmStats);
}

}  // namespace

void
serializeSchedule(const sched::Schedule &s, ByteWriter &w)
{
    w.putU32(kPlanFormatVersion);
    writeScheduleBody(s, w);
}

bool
deserializeSchedule(ByteReader &r, const graph::Graph &g,
                    sched::Schedule &out)
{
    u32 version;
    if (!r.getU32(version) || version != kPlanFormatVersion)
        return false;
    return readScheduleBody(r, g, out) && r.atEnd();
}

std::vector<u8>
scheduleBytes(const sched::Schedule &s)
{
    ByteWriter w;
    serializeSchedule(s, w);
    return w.take();
}

std::vector<u8>
workloadResultBytes(const sched::WorkloadResult &res)
{
    ByteWriter w;
    w.putU32(kPlanFormatVersion);
    w.putString(res.workload);
    w.putString(res.design);
    w.putU32(res.clusters);
    writeStats(res.stats, w);
    w.putDouble(res.seconds);
    w.putU64(res.perSegment.size());
    for (const auto &[name, stats] : res.perSegment) {
        w.putString(name);
        writeStats(stats, w);
    }
    w.putString(res.rotScheme);
    w.putString(res.ksDataflow);
    return w.take();
}

}  // namespace crophe::plan
