#include "fhe/biguint.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace crophe::fhe {

BigUInt::BigUInt(u64 v)
{
    if (v != 0)
        words_.push_back(v);
}

BigUInt
BigUInt::fromWords(std::vector<u64> words)
{
    BigUInt b;
    b.words_ = std::move(words);
    b.trim();
    return b;
}

void
BigUInt::trim()
{
    while (!words_.empty() && words_.back() == 0)
        words_.pop_back();
}

bool
BigUInt::isZero() const
{
    return words_.empty();
}

int
BigUInt::compare(const BigUInt &other) const
{
    if (words_.size() != other.words_.size())
        return words_.size() < other.words_.size() ? -1 : 1;
    for (std::size_t i = words_.size(); i-- > 0;) {
        if (words_[i] != other.words_[i])
            return words_[i] < other.words_[i] ? -1 : 1;
    }
    return 0;
}

BigUInt &
BigUInt::addInplace(const BigUInt &other)
{
    words_.resize(std::max(words_.size(), other.words_.size()), 0);
    u64 carry = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
        u128 s = static_cast<u128>(words_[i]) + carry;
        if (i < other.words_.size())
            s += other.words_[i];
        words_[i] = static_cast<u64>(s);
        carry = static_cast<u64>(s >> 64);
    }
    if (carry != 0)
        words_.push_back(carry);
    return *this;
}

BigUInt &
BigUInt::subInplace(const BigUInt &other)
{
    CROPHE_ASSERT(other <= *this, "BigUInt underflow");
    u64 borrow = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
        u128 rhs = borrow;
        if (i < other.words_.size())
            rhs += other.words_[i];
        if (static_cast<u128>(words_[i]) >= rhs) {
            words_[i] = static_cast<u64>(words_[i] - rhs);
            borrow = 0;
        } else {
            words_[i] = static_cast<u64>((static_cast<u128>(1) << 64) +
                                         words_[i] - rhs);
            borrow = 1;
        }
    }
    CROPHE_ASSERT(borrow == 0, "BigUInt underflow");
    trim();
    return *this;
}

BigUInt &
BigUInt::mulSmallInplace(u64 m)
{
    u64 carry = 0;
    for (auto &w : words_) {
        u128 prod = static_cast<u128>(w) * m + carry;
        w = static_cast<u64>(prod);
        carry = static_cast<u64>(prod >> 64);
    }
    if (carry != 0)
        words_.push_back(carry);
    trim();
    return *this;
}

BigUInt &
BigUInt::addMulSmall(const BigUInt &a, u64 b)
{
    BigUInt t = a;
    t.mulSmallInplace(b);
    return addInplace(t);
}

u64
BigUInt::modSmall(u64 m) const
{
    CROPHE_ASSERT(m != 0, "mod by zero");
    u64 r = 0;
    for (std::size_t i = words_.size(); i-- > 0;) {
        u128 cur = (static_cast<u128>(r) << 64) | words_[i];
        r = static_cast<u64>(cur % m);
    }
    return r;
}

BigUInt
BigUInt::half() const
{
    BigUInt out = *this;
    u64 carry = 0;
    for (std::size_t i = out.words_.size(); i-- > 0;) {
        u64 w = out.words_[i];
        out.words_[i] = (w >> 1) | (carry << 63);
        carry = w & 1;
    }
    out.trim();
    return out;
}

double
BigUInt::toDouble() const
{
    double acc = 0.0;
    for (std::size_t i = words_.size(); i-- > 0;)
        acc = acc * 0x1.0p64 + static_cast<double>(words_[i]);
    return acc;
}

std::string
BigUInt::toHex() const
{
    if (isZero())
        return "0";
    static const char *digits = "0123456789abcdef";
    std::string out;
    for (std::size_t i = words_.size(); i-- > 0;) {
        for (int nib = 15; nib >= 0; --nib) {
            int d = static_cast<int>((words_[i] >> (4 * nib)) & 0xf);
            if (!out.empty() || d != 0)
                out.push_back(digits[d]);
        }
    }
    return out;
}

BigUInt
productOf(const std::vector<u64> &factors)
{
    BigUInt out(1);
    for (u64 f : factors)
        out.mulSmallInplace(f);
    return out;
}

}  // namespace crophe::fhe
