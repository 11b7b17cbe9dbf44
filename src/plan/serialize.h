#ifndef CROPHE_PLAN_SERIALIZE_H_
#define CROPHE_PLAN_SERIALIZE_H_

/**
 * @file
 * Versioned binary serialization of schedules and workload results for the
 * plan cache (DESIGN.md §8).
 *
 * The format is deliberately exact: integers are fixed-width little-endian,
 * doubles are stored as their IEEE-754 bit pattern, and the graph's
 * adjacency lists are written in insertion order (group analysis iterates
 * producers/consumers in that order, so a canonicalized re-encode would
 * change downstream behavior). A round-trip therefore reproduces the
 * original structures bit-for-bit, which is what lets the cache promise
 * byte-identical results to a cold search.
 */

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "sched/cost_model.h"
#include "sched/group.h"

namespace crophe::plan {

/** Bump on ANY layout change; readers reject other versions.
 *  v2: WorkloadResult gained rotScheme / ksDataflow annotation strings. */
constexpr u32 kPlanFormatVersion = 2;

/** Append-only little-endian byte sink. */
class ByteWriter
{
  public:
    void putU8(u8 v) { buf_.push_back(v); }
    void putU32(u32 v);
    void putU64(u64 v);
    /** IEEE-754 bit pattern; exact round-trip (incl. -0.0 and inf). */
    void putDouble(double v);
    /** u64 length prefix + raw bytes. */
    void putString(const std::string &s);

    const std::vector<u8> &bytes() const { return buf_; }
    std::vector<u8> take() { return std::move(buf_); }

  private:
    std::vector<u8> buf_;
};

/**
 * Bounds-checked reader over a byte span. Every get returns false on
 * truncation and latches the failure; callers may batch reads and check
 * ok() once.
 */
class ByteReader
{
  public:
    ByteReader(const u8 *data, std::size_t size) : data_(data), size_(size) {}
    explicit ByteReader(const std::vector<u8> &bytes)
        : ByteReader(bytes.data(), bytes.size())
    {
    }

    bool getU8(u8 &v);
    bool getU32(u32 &v);
    bool getU64(u64 &v);
    bool getDouble(double &v);
    bool getString(std::string &s);

    bool ok() const { return ok_; }
    /** True when every byte has been consumed (trailing garbage check). */
    bool atEnd() const { return ok_ && pos_ == size_; }

  private:
    bool take(std::size_t n, const u8 *&p);

    const u8 *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/**
 * Schedule <-> bytes. serialize writes a version header; deserialize
 * returns false (leaving @p out unspecified) on a version mismatch,
 * truncation, or structurally invalid payload. @{
 */
void serializeSchedule(const sched::Schedule &s, ByteWriter &w);
bool deserializeSchedule(ByteReader &r, sched::Schedule &out);
std::vector<u8> scheduleBytes(const sched::Schedule &s);
/** @} */

/** WorkloadResult -> bytes, with a version header: the fingerprint
 *  tests compare results by. Nothing reads these bytes back. */
std::vector<u8> workloadResultBytes(const sched::WorkloadResult &res);

}  // namespace crophe::plan

#endif  // CROPHE_PLAN_SERIALIZE_H_
