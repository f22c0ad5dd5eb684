/**
 * @file
 * Error reporting as values: Status and Result<T>.
 *
 * The logging layer's fatal()/panic() terminate the process, which is
 * the right call for CLI argument errors and internal bugs — but a
 * library routine that parses user-supplied bytes (a genome file, a
 * checkpoint) must be able to say "this input is bad" without taking
 * the process down, so callers can degrade gracefully (warn + fresh
 * start is the checkpoint contract). Persistence APIs therefore return
 * Status (operations with no payload) or Result<T> (operations that
 * produce a value), and thin ...OrDie wrappers recover the old
 * die-on-error behaviour at the application boundary.
 *
 * Dropping an error is a compile error, not a lint finding: both
 * classes are [[nodiscard]] (a discarded call is diagnosed) and
 * gnu::warn_unused (a local that is never read trips
 * -Wunused-variable), and every CI build runs -Wall -Wextra -Werror.
 * A cast to `(void)` is the one sanctioned way to discard on purpose.
 */

#ifndef E3_COMMON_RESULT_HH
#define E3_COMMON_RESULT_HH

#include <optional>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace e3 {

/**
 * Success, or an error described by a message. The compiler rejects a
 * dropped Status; `(void)` discards one on purpose.
 */
class [[nodiscard, gnu::warn_unused]] Status
{
  public:
    /** Default status is success. */
    Status() = default;

    /** Build an error from message fragments (operator<< folded). */
    template <typename... Args>
    static Status
    error(Args &&...args)
    {
        Status s;
        s.failed_ = true;
        s.message_ = detail::format(std::forward<Args>(args)...);
        return s;
    }

    bool ok() const { return !failed_; }
    explicit operator bool() const { return ok(); }

    /** Error description; empty for success. */
    const std::string &message() const { return message_; }

  private:
    bool failed_ = false;
    std::string message_;
};

/**
 * Either a value of type T or an error Status.
 *
 * Implicitly constructible from both, so functions can `return value;`
 * on success and `return Status::error(...);` on failure. Accessing
 * value() of an error Result is a programming bug and panics. Like
 * Status, a dropped Result is a compile error; `(void)` discards one on
 * purpose.
 */
template <typename T>
class [[nodiscard, gnu::warn_unused]] Result
{
  public:
    /** Success. */
    Result(T value) : value_(std::move(value)) {}

    /** Failure; @p status must not be ok. */
    Result(Status status) : status_(std::move(status))
    {
        e3_assert(!status_.ok(),
                  "Result constructed from an ok Status without a value");
    }

    bool ok() const { return value_.has_value(); }
    explicit operator bool() const { return ok(); }

    /** The error (Status::ok() if this holds a value). */
    const Status &status() const { return status_; }

    /** Error description; empty on success. */
    const std::string &message() const { return status_.message(); }

    T &
    value() &
    {
        e3_assert(ok(), "value() on error Result: ", message());
        return *value_;
    }

    const T &
    value() const &
    {
        e3_assert(ok(), "value() on error Result: ", message());
        return *value_;
    }

    T &&
    value() &&
    {
        e3_assert(ok(), "value() on error Result: ", message());
        return std::move(*value_);
    }

    /** The value, or @p fallback if this holds an error. */
    T
    valueOr(T fallback) const &
    {
        return ok() ? *value_ : std::move(fallback);
    }

    T &operator*() & { return value(); }
    const T &operator*() const & { return value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

  private:
    Status status_;
    std::optional<T> value_;
};

/**
 * Panic unless @p status is ok. For library-internal preconditions:
 * user input is validated at the boundary with a Status-returning
 * check, so an invalid value reaching deeper layers is a caller bug.
 */
inline void
assertOk(const Status &status)
{
    e3_assert(status.ok(), status.message());
}

} // namespace e3

#endif // E3_COMMON_RESULT_HH
