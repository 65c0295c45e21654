/**
 * @file
 * InlineVec: a fixed-capacity, inline-storage vector for the
 * simulator's hot paths. Traces are at most 16 instructions long
 * (Section 4.1), yet the seed implementation heap-allocated a
 * std::vector<TraceInst> for every segmentation, fill-unit build,
 * preconstruction-buffer insert and trace-cache copy. InlineVec
 * keeps the body inline in the owning object, so constructing one
 * allocates nothing and copying one touches only the live prefix.
 *
 * Storage is an anonymous union so that construction does not
 * value-initialize the full backing array, and copy/move only
 * transfer the first size() elements; slots at and beyond size()
 * are uninitialized and are never read. This restricts T to
 * trivially copyable, trivially destructible types — exactly the
 * plain-data records the simulator stores.
 *
 * The interface is the subset of std::vector the codebase uses
 * (push_back / emplace_back / pop_back / resize / clear /
 * iteration / indexing / equality); exceeding the capacity is an
 * invariant violation and panics in every build type.
 */

#ifndef TPRE_COMMON_INLINE_VEC_HH
#define TPRE_COMMON_INLINE_VEC_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/logging.hh"

namespace tpre
{

/** A vector of at most @p N elements stored inline. */
template <typename T, unsigned N>
class InlineVec
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "InlineVec elements must be trivially copyable");
    static_assert(std::is_trivially_destructible_v<T>,
                  "InlineVec elements must be trivially destructible");

  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    InlineVec() {}

    // Copies transfer only the live prefix, as one memcpy: the
    // element type is trivially copyable by the static_assert
    // above, and trace bodies are copied on every trace-cache /
    // preconstruction-buffer insert, which makes the element-wise
    // loop measurable on the hot path.
    InlineVec(const InlineVec &other) : size_(other.size_)
    {
        std::memcpy(elems_, other.elems_, size_ * sizeof(T));
    }

    InlineVec &
    operator=(const InlineVec &other)
    {
        size_ = other.size_;
        std::memmove(elems_, other.elems_, size_ * sizeof(T));
        return *this;
    }

    // Moves copy the live prefix and leave the source untouched;
    // with trivially copyable elements there is nothing to steal.
    InlineVec(InlineVec &&other) noexcept
        : InlineVec(static_cast<const InlineVec &>(other)) {}
    InlineVec &
    operator=(InlineVec &&other) noexcept
    {
        return *this = static_cast<const InlineVec &>(other);
    }

    static constexpr unsigned capacity() { return N; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void
    push_back(const T &value)
    {
        tpre_assert(size_ < N, "InlineVec capacity exceeded");
        elems_[size_++] = value;
    }

    /** Aggregate-initialize the next element in place: no stack
     *  temporary to store and then read back for a copy. */
    template <typename... Args>
    void
    emplace_back(Args &&...args)
    {
        tpre_assert(size_ < N, "InlineVec capacity exceeded");
        ::new (elems_ + size_++) T{std::forward<Args>(args)...};
    }

    void
    pop_back()
    {
        tpre_assert(size_ > 0, "pop_back() on empty InlineVec");
        --size_;
    }

    /**
     * Change the element count. Growing value-initializes the new
     * tail (std::vector semantics); shrinking just drops elements.
     */
    void
    resize(std::size_t count)
    {
        tpre_assert(count <= N, "InlineVec resize beyond capacity");
        for (std::size_t i = size_; i < count; ++i)
            elems_[i] = T();
        size_ = static_cast<unsigned>(count);
    }

    void clear() { size_ = 0; }

    T &operator[](std::size_t i)
    {
        tpre_assert(i < size_);
        return elems_[i];
    }
    const T &operator[](std::size_t i) const
    {
        tpre_assert(i < size_);
        return elems_[i];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    T *data() { return elems_; }
    const T *data() const { return elems_; }

    iterator begin() { return elems_; }
    iterator end() { return elems_ + size_; }
    const_iterator begin() const { return elems_; }
    const_iterator end() const { return elems_ + size_; }

    bool
    operator==(const InlineVec &other) const
    {
        if (size_ != other.size_)
            return false;
        for (std::size_t i = 0; i < size_; ++i)
            if (!(elems_[i] == other.elems_[i]))
                return false;
        return true;
    }

  private:
    /**
     * Anonymous union suppresses default construction of the
     * array: slots beyond size_ stay uninitialized and unread.
     */
    union { T elems_[N]; };
    unsigned size_ = 0;
};

} // namespace tpre

#endif // TPRE_COMMON_INLINE_VEC_HH
