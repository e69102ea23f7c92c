/**
 * @file
 * Lightweight expected-style result type for faulting capability
 * operations (C++20 predates std::expected).
 */

#ifndef CHERI_CAP_RESULT_H
#define CHERI_CAP_RESULT_H

#include <utility>
#include <variant>

#include "cap/fault.h"
#include "os/panic.h"

namespace cheri
{

/**
 * Holds either a success value or the CapFault the operation would raise.
 * Misuse (a value() of a fault, a fault() of a value, a fault of None)
 * fails a CHERI_KASSERT in every build: it panics the live kernel, or
 * aborts when none is registered, never reads the wrong alternative.
 */
template <typename T>
class Result
{
  public:
    Result(T value) : storage(std::move(value)) {}
    Result(CapFault fault) : storage(fault)
    {
        CHERI_KASSERT(fault != CapFault::None, "Result built from no fault");
    }

    /** True when the operation succeeded. */
    bool ok() const { return std::holds_alternative<T>(storage); }
    explicit operator bool() const { return ok(); }

    /** The success value; kasserts ok(). */
    const T &
    value() const
    {
        const T *v = std::get_if<T>(&storage);
        CHERI_KASSERT(v, "Result::value() of a fault");
        return *v;
    }

    T &
    value()
    {
        T *v = std::get_if<T>(&storage);
        CHERI_KASSERT(v, "Result::value() of a fault");
        return *v;
    }

    /** The fault; kasserts !ok(). */
    CapFault
    fault() const
    {
        const CapFault *f = std::get_if<CapFault>(&storage);
        CHERI_KASSERT(f, "Result::fault() of a success");
        return *f;
    }

    /** Success value, or @p alt when the operation faulted. */
    T
    valueOr(T alt) const
    {
        return ok() ? std::get<T>(storage) : std::move(alt);
    }

  private:
    std::variant<T, CapFault> storage;
};

} // namespace cheri

#endif // CHERI_CAP_RESULT_H
