/**
 * @file
 * Aligned, huge-page-advised plane allocation.
 *
 * The hot and cold line planes are scanned on every miss; a plane
 * whose base is not 64-byte aligned silently splits line records
 * across hardware cache lines. At giant-cache sizes (256 MB+ of
 * metadata) the planes additionally thrash the TLB with 4 KB pages,
 * so allocations large enough to hold at least one huge page are
 * 2 MB-aligned and advised with madvise(MADV_HUGEPAGE). Everything degrades gracefully: if the
 * kernel declines the advice (or the platform lacks madvise), the
 * allocation is still a perfectly valid 64-byte-aligned plane.
 *
 * VANTAGE_HUGEPAGES=0 disables the huge-page path (alignment stays at
 * 64 bytes) so the huge-page on/off delta can be measured on the same
 * binary.
 */

#ifndef VANTAGE_COMMON_HP_ALLOC_H_
#define VANTAGE_COMMON_HP_ALLOC_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace vantage {

/** Minimum alignment of every plane: one hardware cache line. */
constexpr std::size_t kPlaneAlignment = 64;

/** Transparent-huge-page granule on the platforms we care about. */
constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/** False iff VANTAGE_HUGEPAGES=0 was set (checked once). */
bool hugePagesEnabled();

/**
 * Allocate `bytes` with at least kPlaneAlignment alignment; blocks of
 * kHugePageBytes or more are huge-page aligned and advised when
 * enabled. Throws std::bad_alloc on exhaustion; returns nullptr only
 * for bytes == 0.
 */
void *hpAllocBytes(std::size_t bytes);

/** Release a block obtained from hpAllocBytes(). */
void hpFreeBytes(void *p);

/**
 * Fixed-size array backed by hpAllocBytes(): the plane container for
 * line metadata and walk tables. Size is set at construction (cache
 * geometries never grow), elements are value-initialized, and the
 * subset of the std::vector interface the arrays use is provided so
 * call sites read unchanged.
 */
template <typename T> class HpArray
{
    static_assert(std::is_trivially_destructible_v<T>,
                  "plane elements must not need destruction");

  public:
    HpArray() = default;

    explicit HpArray(std::size_t n) : size_(n)
    {
        if (n == 0) {
            return;
        }
        data_ = static_cast<T *>(hpAllocBytes(n * sizeof(T)));
        for (std::size_t i = 0; i < n; ++i) {
            new (data_ + i) T();
        }
    }

    HpArray(std::size_t n, const T &fill) : size_(n)
    {
        if (n == 0) {
            return;
        }
        data_ = static_cast<T *>(hpAllocBytes(n * sizeof(T)));
        for (std::size_t i = 0; i < n; ++i) {
            new (data_ + i) T(fill);
        }
    }

    HpArray(HpArray &&other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0))
    {
    }

    HpArray &
    operator=(HpArray &&other) noexcept
    {
        if (this != &other) {
            hpFreeBytes(data_);
            data_ = std::exchange(other.data_, nullptr);
            size_ = std::exchange(other.size_, 0);
        }
        return *this;
    }

    HpArray(const HpArray &) = delete;
    HpArray &operator=(const HpArray &) = delete;

    ~HpArray() { hpFreeBytes(data_); }

    T *data() { return data_; }
    const T *data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

  private:
    T *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace vantage

#endif // VANTAGE_COMMON_HP_ALLOC_H_
